package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"prestroid/internal/api"
	"prestroid/internal/models"
	"prestroid/internal/persist"
	"prestroid/internal/serve"
)

// servingArch is prestroidd's fixed serving architecture (its modelConfig).
// A bundle whose weights do not fit it is refused at load, so a drift
// between the two shows up as a failed run, not as a silent mismatch.
func servingArch() models.PrestroidConfig {
	cfg := models.DefaultPrestroidConfig(15, 9)
	cfg.ConvWidths = []int{32, 32, 32}
	cfg.DenseWidths = []int{32, 16}
	cfg.LR = 5e-3
	return cfg
}

// loadPredictor decodes a full bundle into a predictor, the way prestroidd
// loads -bundle at start-up.
func loadPredictor(path string) (*serve.Predictor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fb, err := persist.DecodeFullBundle(f)
	if err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	m := models.NewPrestroid(servingArch(), fb.Pipeline())
	if err := fb.Weights().Apply(m); err != nil {
		return nil, fmt.Errorf("apply %s: %w", path, err)
	}
	return &serve.Predictor{Model: m, Pipe: fb.Pipeline(), Norm: fb.Norm()}, nil
}

// timeDecode times persist.DecodeFullBundle on a bundle file.
func timeDecode(path string) (time.Duration, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if _, err := persist.DecodeFullBundle(bytes.NewReader(raw)); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// probeBody is the request that proves a fresh server answers.
var probeBody = []byte(`{"sql":"SELECT t0.id FROM probe_table t0 WHERE t0.id > 1"}`)

const reloadToken = "perfbench"

// startServer is the serving set-up the benchmark times: bundle decode,
// NewMultiServer with the daemon defaults, then predicts until the first 200.
func startServer(bundle string) (*serve.Server, time.Duration, error) {
	start := time.Now()
	pred, err := loadPredictor(bundle)
	if err != nil {
		return nil, 0, err
	}
	srv, err := serve.NewMultiServer(serve.DefaultConfig(), serve.NamedPredictor{Pred: pred})
	if err != nil {
		return nil, 0, err
	}
	srv.SetReloadToken(reloadToken)
	for {
		rec := newRecorder(false)
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(probeBody)))
		if rec.code == http.StatusOK {
			return srv, time.Since(start), nil
		}
		if time.Since(start) > 30*time.Second {
			srv.Close()
			return nil, 0, fmt.Errorf("server never answered 200 (last status %d: %s)", rec.code, rec.body.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// recorder is the in-process ResponseWriter. When traced it notes the first
// Header call: the predict handler makes none before the engine returns, so
// that instant closes the engine span.
type recorder struct {
	h        http.Header
	code     int
	body     bytes.Buffer
	traced   bool
	headerAt time.Time
}

func newRecorder(traced bool) *recorder { return &recorder{h: http.Header{}, traced: traced} }

func (r *recorder) Header() http.Header {
	if r.traced && r.headerAt.IsZero() {
		r.headerAt = time.Now()
	}
	return r.h
}

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(b)
}

// eofReader is a request body that notes when the handler has read all of
// it: the instant that opens the engine span.
type eofReader struct {
	r     *bytes.Reader
	eofAt time.Time
}

func (e *eofReader) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err == io.EOF && e.eofAt.IsZero() {
		e.eofAt = time.Now()
	}
	return n, err
}

// harness drives one server and remembers which bundle each weight
// generation it rolled to came from.
type harness struct {
	srv       *serve.Server
	genBundle map[int64]string
}

type rollResult struct {
	wall     time.Duration // client-side wall time of POST /v1/reload
	handler  time.Duration // the handler's own figure (ReloadResponse.Millis)
	gen      int64
	bundle   string
	failed   bool
	response string
}

func newHarness(srv *serve.Server, bundle string) *harness {
	gen := srv.Models().Default().Live().Generation()
	return &harness{srv: srv, genBundle: map[int64]string{gen: bundle}}
}

// predict sends one body through ServeHTTP. With tr set it records the
// request's http and engine spans under request id req.
func (h *harness) predict(body []byte, tr *tracer, req int32, parent int32) *recorder {
	rec := newRecorder(tr != nil)
	br := &eofReader{r: bytes.NewReader(body)}
	r := httptest.NewRequest(http.MethodPost, "/v1/predict", br)
	start := time.Now()
	h.srv.ServeHTTP(rec, r)
	end := time.Now()
	if tr != nil {
		id := tr.add(req, parent, "serve.http", start, end)
		if !br.eofAt.IsZero() && !rec.headerAt.IsZero() {
			tr.add(req, id, "serve.engine", br.eofAt, rec.headerAt)
		}
	}
	return rec
}

// roll issues one in-place full-bundle roll through POST /v1/reload, with
// the bearer token: in-process requests do not come from loopback.
func (h *harness) roll(bundle string) rollResult {
	body, _ := json.Marshal(api.ReloadRequest{Bundle: bundle}) // strings always marshal
	r := httptest.NewRequest(http.MethodPost, "/v1/reload", bytes.NewReader(body))
	r.Header.Set("Authorization", "Bearer "+reloadToken)
	rec := newRecorder(false)
	start := time.Now()
	h.srv.ServeHTTP(rec, r)
	res := rollResult{wall: time.Since(start), bundle: bundle}
	var resp api.ReloadResponse
	if rec.code != http.StatusOK || json.Unmarshal(rec.body.Bytes(), &resp) != nil {
		res.failed = true
		res.response = fmt.Sprintf("%d %s", rec.code, rec.body.String())
	} else {
		res.gen = resp.Generation
		res.handler = time.Duration(resp.Millis * float64(time.Millisecond))
		h.genBundle[res.gen] = bundle
	}
	return res
}

// counters is the part of /v1/stats the per-layer metrics read.
type counters struct {
	cacheHits, cacheMisses       int64
	templateHits, templateMisses int64
	subtreeHits, subtreeMisses   int64
	batches, coalesced           int64
	shed, expired                int64
	templateBytes, subtreeBytes  int64
	serviceMicros                float64
}

func (h *harness) stats() (counters, error) {
	rec := newRecorder(false)
	h.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var s api.Stats
	if rec.code != http.StatusOK {
		return counters{}, fmt.Errorf("/v1/stats answered %d", rec.code)
	}
	if err := json.Unmarshal(rec.body.Bytes(), &s); err != nil {
		return counters{}, fmt.Errorf("/v1/stats: %w", err)
	}
	c := counters{
		cacheHits: s.CacheHits, cacheMisses: s.CacheMisses,
		templateHits: s.TemplateHits, templateMisses: s.TemplateMisses,
		subtreeHits: s.SubtreeHits, subtreeMisses: s.SubtreeMisses,
		batches: s.Batches, shed: s.Shed, expired: s.Expired,
		templateBytes: s.TemplateBytes, subtreeBytes: s.SubtreeBytes,
	}
	for _, sh := range s.Shards {
		c.coalesced += sh.Coalesced
		c.serviceMicros += sh.ServiceTimeMillis * 1e3 / float64(len(s.Shards))
	}
	return c, nil
}

// phase is one stretch of load. rate 0 is a closed loop: the scheduler sends
// the next request as soon as one of inFlight slots frees. A positive rate
// is an open loop: request i is due at start + i/rate, sent when due (or as
// soon as a slot frees, if all are taken) and timed from its due instant.
type phase struct {
	name     string
	bodies   [][]byte
	inFlight int
	rate     float64
	dur      time.Duration
	trace    *tracer // non-nil: record spans, request id = send order
}

// phaseResult holds per-request outcomes indexed by send order.
type phaseResult struct {
	name    string
	sent    int
	elapsed time.Duration
	codes   []int
	due     []time.Duration // due instant (send instant, closed loop) since phase start
	lat     []time.Duration // from due to response
	lag     []time.Duration // send minus due; open loop only
	resp    [][]byte        // response bodies of sampled requests
	bodies  [][]byte        // request bodies, in send order
	wantGen []int64         // generation each response must carry; roll checks only
	rolls   []rollResult
}

// sampleEvery picks the fixed sample of responses checked against the serial
// reference: every sampleEvery-th request of a phase, at most sampleCap.
const (
	sampleEvery = 25
	sampleCap   = 120
)

// run drives one phase from a single scheduling goroutine (the caller) with
// at most inFlight requests outstanding.
func (h *harness) run(p phase) phaseResult {
	n := len(p.bodies)
	res := phaseResult{name: p.name, codes: make([]int, n), due: make([]time.Duration, n),
		lat: make([]time.Duration, n), lag: make([]time.Duration, n), resp: make([][]byte, n)}
	sem := make(chan struct{}, p.inFlight)
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(p.dur)
	i := 0
	for ; i < n; i++ {
		var due time.Time
		if p.rate > 0 {
			due = start.Add(time.Duration(float64(i) / p.rate * float64(time.Second)))
			if !due.Before(end) {
				break
			}
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
		} else if !time.Now().Before(end) {
			break
		}
		sem <- struct{}{}
		sent := time.Now()
		if p.rate == 0 {
			due = sent
		}
		res.lag[i] = sent.Sub(due)
		res.due[i] = due.Sub(start)
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			var rec *recorder
			if p.trace != nil {
				req := int32(i)
				root := p.trace.begin()
				rec = h.predict(p.bodies[i], p.trace, req, root)
				p.trace.end(root, req, -1, "request", due)
			} else {
				rec = h.predict(p.bodies[i], nil, 0, 0)
			}
			res.lat[i] = time.Since(due)
			res.codes[i] = rec.code
			if i%sampleEvery == 0 && i/sampleEvery < sampleCap {
				res.resp[i] = append([]byte(nil), rec.body.Bytes()...)
			}
			<-sem
		}(i, due)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.sent = i
	res.codes, res.due, res.lat, res.lag, res.resp = res.codes[:i], res.due[:i], res.lat[:i], res.lag[:i], res.resp[:i]
	res.bodies = p.bodies[:i]
	return res
}

// rollCheckEvery spaces the served-answer checks of the roll phase: before
// the first roll and after every rollCheckEvery-th, untimed, the check
// bodies are sent through ServeHTTP and each answer must carry the live
// generation and match that generation's reference. The spacing is odd, so
// consecutive checks land on different bundles, and the same bodies are
// re-sent each time, so an entry a roll failed to drop from a cache would be
// served stale and caught.
const rollCheckEvery = 5

// rollPhase issues n in-place full-bundle rolls back to back, alternating
// between bundles, with no traffic: the roll path's own cost, the first
// roll also dropping the caches the traffic filled. Each roll starts after
// a forced collection. Without it a roll ran in 1.2 ms or in 2–3 ms
// depending on whether the collector was marking at the time, and whole
// runs landed in one mode or the other; the collection work a roll leaves
// behind shows in peak_heap_mb instead.
func (h *harness) rollPhase(bundles []string, n int, check [][]byte) phaseResult {
	res := phaseResult{name: "rolls"}
	sendChecks := func(gen int64) {
		for _, body := range check {
			rec := h.predict(body, nil, 0, 0)
			res.sent++
			res.codes = append(res.codes, rec.code)
			res.resp = append(res.resp, append([]byte(nil), rec.body.Bytes()...))
			res.bodies = append(res.bodies, body)
			res.wantGen = append(res.wantGen, gen)
		}
	}
	sendChecks(h.srv.Models().Default().Live().Generation())
	start := time.Now()
	for k := 0; k < n; k++ {
		runtime.GC()
		r := h.roll(bundles[k%len(bundles)])
		res.rolls = append(res.rolls, r)
		if !r.failed && k%rollCheckEvery == rollCheckEvery-1 {
			sendChecks(r.gen)
		}
	}
	res.elapsed = time.Since(start)
	return res
}

func (r phaseResult) okCount() int {
	ok := 0
	for _, c := range r.codes {
		if c >= 200 && c < 300 {
			ok++
		}
	}
	return ok
}

// okLatencies returns the latencies of 2xx responses, sorted.
func (r phaseResult) okLatencies() []time.Duration {
	var out []time.Duration
	for i, c := range r.codes {
		if c >= 200 && c < 300 {
			out = append(out, r.lat[i])
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// The open loop is cut into windows for the latency figures, and each
// window's quantile is read on its own. On grab_cold the tail is set by
// collections of the 400 MB template cache, about one a second, and a
// single long stall can move a whole-phase p99 by half.
//
// latency_p50_ms is the median over latencyWindow windows of each window's
// p50: 0.75 s holds 600 requests at 800/s, and the per-window p50s form one
// cluster, so their median ignores the odd slow window.
//
// latency_p99_ms is the mean over tailWindow windows of each window's p99:
// 0.5 s holds 400 requests, 4 of them beyond the p99. Per-window p99s run
// from about 3 to 40 ms, by how much of a collection fell in the window,
// so their median jumped from run to run, while their mean follows the
// share of the open loop that collections took (README.md, "Latency
// windows").
const (
	latencyWindow = 750 * time.Millisecond
	tailWindow    = 500 * time.Millisecond
)

// windowQuantiles returns the q-quantile latency, in ms, of each full
// window of length w of the phase, in order.
func (r phaseResult) windowQuantiles(q float64, w time.Duration) []float64 {
	n := int(r.elapsed / w)
	per := make([][]time.Duration, n)
	for i, c := range r.codes {
		if k := int(r.due[i] / w); c >= 200 && c < 300 && k < n {
			per[k] = append(per[k], r.lat[i])
		}
	}
	var out []float64
	for _, l := range per {
		if len(l) > 0 {
			sort.Slice(l, func(a, b int) bool { return l[a] < l[b] })
			out = append(out, ms(quantile(l, q)))
		}
	}
	return out
}

// window is the stretch over which closed-loop completions are counted;
// throughput is the median over a phase's windows, so a second in which
// another guest took the host's CPUs does not decide the figure.
const window = 500 * time.Millisecond

// windowThroughput is the median over the phase's full windows of the 2xx
// responses completed per second.
func (r phaseResult) windowThroughput() float64 {
	counts := make([]float64, int(r.elapsed/window))
	for i, c := range r.codes {
		if c < 200 || c >= 300 {
			continue
		}
		if w := int((r.due[i] + r.lat[i]) / window); w < len(counts) {
			counts[w]++
		}
	}
	return median(counts) / window.Seconds()
}

// verify checks every sampled response of the phases against the serial
// reference path (serve.Predictor.PredictSQL) on a fresh decode of the
// bundle that served its generation. It returns the number checked and the
// mismatches, each counted as a failed operation.
func (h *harness) verify(phases []phaseResult) (checked int, mismatches []string, err error) {
	refs := map[string]*serve.Predictor{}
	for _, p := range phases {
		for i, raw := range p.resp {
			if raw == nil || p.codes[i] != http.StatusOK {
				continue
			}
			checked++
			var req api.PredictRequest
			if err := json.Unmarshal(p.bodies[i], &req); err != nil {
				return checked, mismatches, err
			}
			var got api.PredictResponse
			if err := json.Unmarshal(raw, &got); err != nil {
				mismatches = append(mismatches, fmt.Sprintf("%s #%d: undecodable response %q", p.name, i, raw))
				continue
			}
			if p.wantGen != nil && got.Generation != p.wantGen[i] {
				mismatches = append(mismatches, fmt.Sprintf("%s #%d: served generation %d after the roll to %d", p.name, i, got.Generation, p.wantGen[i]))
				continue
			}
			bundle, ok := h.genBundle[got.Generation]
			if !ok {
				mismatches = append(mismatches, fmt.Sprintf("%s #%d: generation %d was never rolled to", p.name, i, got.Generation))
				continue
			}
			ref := refs[bundle]
			if ref == nil {
				if ref, err = loadPredictor(bundle); err != nil {
					return checked, mismatches, err
				}
				refs[bundle] = ref
			}
			want, err := ref.PredictSQL(req.SQL)
			if err != nil {
				mismatches = append(mismatches, fmt.Sprintf("%s #%d: reference failed: %v", p.name, i, err))
				continue
			}
			if got.Prediction != want {
				mismatches = append(mismatches, fmt.Sprintf("%s #%d gen %d: served %+v, reference %+v", p.name, i, got.Generation, got.Prediction, want))
			}
		}
	}
	return checked, mismatches, nil
}
