// Command perfbench is the repository benchmark. One invocation runs one
// workload once and prints a human-readable report followed, on the last
// line of standard output, by one JSON object with the keys correct,
// attempted, failed and metrics:
//
//	bash perfbench/run.sh --workload grab_cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with --trace 1 they are its per-layer metrics. README.md in this directory
// describes the workloads, the metrics and how a traced run is read.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"prestroid/internal/models"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	bundle   string // the fixture: prestroidd's own trained full bundle
	workdir  string // where run files go; inside the checkout
	commit   string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "seconds of measured traffic")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.StringVar(&o.bundle, "bundle", "", "fixture full bundle trained by prestroidd -train")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for run files")
	flag.StringVar(&o.commit, "commit", "unknown", "source revision, for the host fingerprint")
	flag.Parse()
	o.trace = trace == 1
	if o.bundle == "" || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -bundle, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	w, err := lookupWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	res, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Phase lengths. The measured traffic (closed loop, then open loop) takes
// --seconds; warm-up, set-up, training, the roll phase and the checks come
// on top.
const (
	warmup          = time.Second
	setupReps       = 9   // serving set-ups per run; setup_s takes the median
	rollsPerPhase   = 200 // back-to-back rolls after the traffic; roll_s takes medians
	replayCap       = 400 // traced requests replayed layer by layer
	rollCheckBodies = 4   // requests re-sent after every rollCheckEvery-th roll

	// An in-process open loop shares the CPUs with the server, and Go
	// preempts a running goroutine only after 10ms, so sends run up to a
	// few time slices late even when the generator keeps its rate. Latency
	// is timed from the due instant, so that lag is charged to the run; a
	// run is flagged only when the lag goes past these limits.
	lagP99Limit = 25 * time.Millisecond
	lagMaxLimit = 250 * time.Millisecond
)

// runWorkload runs one cycle of the workload: training, inputs, serving
// set-up, warm-up, closed loop, open loop (traced runs add a traced open
// loop), rolls, then the correctness checks.
func runWorkload(w workloadDef, o options) (*result, error) {
	rep := &report{}
	rep.line("host nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), o.commit)
	rep.line("run workload=%s seed=%d seconds=%d trace=%v", w.name, o.seed, o.seconds, o.trace)
	tmp, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	// Training comes first. Its traces are fixed and nothing else is live
	// yet, so every seed trains on the same heap. Peak heap is measured over
	// training and, separately, over serving, each above what was live when
	// the phase began.
	trainSet := trainingTraces(w.trainQueries)
	runtime.GC()
	trainBase := liveHeap()
	steal0, _ := readSteal()
	began := time.Now()
	trainHeap := startHeapSampler()
	defer trainHeap.stop()

	// Training: the paper's loop on the workload's labelled traces.
	trained := filepath.Join(tmp, "trained.full")
	var trains []trainResult
	fails := 0
	for r := 0; r < w.trainReps; r++ {
		var rt *tracer
		if o.trace && r == w.trainReps-1 {
			rt = tr // the last run records its TrainBatch spans
		}
		res, err := trainOnce(trainSet, w.trainEpochs, rt, trained)
		if err != nil {
			rep.line("FAIL training run %d: %v", r+1, err)
			fails++
			continue
		}
		trains = append(trains, res)
		rep.line("train run=%d setup_s=%.4f epoch_s=%.4f test_mse=%.6g", r+1, res.setup.Seconds(), median(durSeconds(res.epochs)), res.testMSE)
	}
	for r := 1; r < len(trains); r++ {
		if trains[r].testMSE != trains[0].testMSE {
			rep.line("FAIL test MSE changed between identical training runs: %v vs %v", trains[0].testMSE, trains[r].testMSE)
			fails++
		}
	}
	if len(trains) == 0 {
		return nil, fmt.Errorf("no training run succeeded:\n%s", rep)
	}
	trainPeak := trainHeap.stop()

	// Inputs: every request body is built before any traffic is timed.
	// A quarter of the measured time goes to the closed loop and the rest to
	// the open loop: throughput steadies sooner than the latency tail.
	closedDur := time.Duration(o.seconds) * time.Second / 4
	openDur := time.Duration(o.seconds)*time.Second - closedDur
	built := time.Now()
	in := buildInputs(w, o.seed, closedDur, openDur, o.trace)
	rep.line("inputs bodies=%d training_traces=%d build_s=%.1f", in.total(), len(trainSet), time.Since(built).Seconds())
	runtime.GC()
	serveBase := liveHeap()
	serveHeap := startHeapSampler()
	defer serveHeap.stop()

	// Serving set-up, several times; the last server stays up.
	var setups []time.Duration
	var h *harness
	for k := 0; k < setupReps; k++ {
		srv, d, err := startServer(o.bundle)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
		if k < setupReps-1 {
			srv.Close()
			continue
		}
		h = newHarness(srv, o.bundle)
	}
	defer h.srv.Close()

	var phases []phaseResult
	runPhase := func(p phase) phaseResult {
		// Each phase starts right after a collection, so the collector's
		// cycles fall at the same points of every run.
		runtime.GC()
		r := h.run(p)
		phases = append(phases, r)
		return r
	}
	runPhase(phase{name: "warmup", bodies: in.warm, inFlight: w.closedInFlight, dur: warmup})
	c0, err := h.stats()
	if err != nil {
		return nil, err
	}
	closed := runPhase(phase{name: "closed", bodies: in.closed, inFlight: w.closedInFlight, dur: closedDur})
	open := runPhase(phase{name: "open", bodies: in.open, inFlight: w.openInFlight, rate: w.openRate, dur: openDur})
	c1, err := h.stats()
	if err != nil {
		return nil, err
	}
	var traced phaseResult
	if o.trace {
		// Half the open loop's length holds enough traced requests for the
		// ladder and keeps a traced run short.
		traced = runPhase(phase{name: "traced", bodies: in.traced, inFlight: w.openInFlight, rate: w.openRate, dur: openDur / 2, trace: tr})
	}
	phases = append(phases, h.rollPhase([]string{trained, o.bundle}, rollsPerPhase, in.check))
	servePeak := serveHeap.stop()
	if steal1, ok := readSteal(); ok {
		// Jiffies are hundredths of a second of one CPU.
		capacity := time.Since(began).Seconds() * 100 * float64(runtime.NumCPU())
		rep.line("host steal_pct=%.1f (CPU time the hypervisor gave to other guests while the run wanted it)", 100*float64(steal1-steal0)/capacity)
	}

	// Outcomes and correctness.
	attempted, failed := len(trains)+fails, fails
	rollWalls := map[string][]float64{}
	var rollHandler []float64
	for _, p := range phases {
		ok := p.okCount()
		attempted += p.sent
		failed += p.sent - ok
		rep.line("phase %s sent=%d ok=%d failed=%d elapsed_s=%.3f rolls=%d", p.name, p.sent, ok, p.sent-ok, p.elapsed.Seconds(), len(p.rolls))
		for _, r := range p.rolls {
			attempted++
			if r.failed {
				failed++
				rep.line("FAIL roll to %s: %s", filepath.Base(r.bundle), r.response)
				continue
			}
			rollWalls[r.bundle] = append(rollWalls[r.bundle], r.wall.Seconds())
			rollHandler = append(rollHandler, float64(r.handler.Microseconds())/1e3)
		}
	}
	checked, mismatches, err := h.verify(phases)
	if err != nil {
		return nil, err
	}
	failed += len(mismatches)
	for i, m := range mismatches {
		if i == 5 {
			rep.line("FAIL ... %d more mismatches", len(mismatches)-5)
			break
		}
		rep.line("FAIL %s", m)
	}
	rep.line("check sampled=%d mismatches=%d (serial reference per generation)", checked, len(mismatches))

	lats := open.okLatencies()
	lag := lagStats(open)
	behind := lag.p99 > lagP99Limit || lag.max > lagMaxLimit
	rep.line("open rate=%.0f/s in_flight_cap=%d samples=%d send_lag_p99_ms=%.3f send_lag_max_ms=%.3f generator_behind=%v",
		w.openRate, w.openInFlight, len(lats), ms(lag.p99), ms(lag.max), behind)
	if behind {
		rep.line("WARNING the open-loop generator fell behind its schedule; latency figures of this run are not comparable")
	}
	if len(lats) == 0 || closed.elapsed <= 0 || len(rollWalls) == 0 {
		return nil, fmt.Errorf("run produced no latency, throughput or roll sample:\n%s", rep)
	}

	setupS := median(durSeconds(setups))
	var trainSetups, epochs []float64
	for _, t := range trains {
		trainSetups = append(trainSetups, t.setup.Seconds())
		epochs = append(epochs, durSeconds(t.epochs)...)
	}
	trainMB, serveMB := mb(trainPeak, trainBase), mb(servePeak, serveBase)
	// train_grab reports the training phase's set-up and heap, the paper's
	// per-batch memory; grab_cold the serving phase's.
	setup, peak := setupS, serveMB
	if w.setupIsTraining {
		setup, peak = median(trainSetups), trainMB
	}
	res := &result{Attempted: attempted, Failed: failed, Correct: failed == 0, Metrics: map[string]metric{}}
	p50 := median(open.windowQuantiles(0.50, latencyWindow))
	rep.line("open whole-phase p50_ms=%.4f p99_ms=%.4f; closed whole-phase throughput_qps=%.1f",
		ms(quantile(lats, 0.5)), ms(quantile(lats, 0.99)), float64(closed.okCount())/closed.elapsed.Seconds())
	if !o.trace {
		res.Metrics = map[string]metric{
			"setup_s":        {setup, "s"},
			"latency_p50_ms": {p50, "ms"},
			"latency_p99_ms": {mean(open.windowQuantiles(0.99, tailWindow)), "ms"},
			"throughput_qps": {closed.windowThroughput(), "1/s"},
			"peak_heap_mb":   {peak, "MB"},
			"roll_s":         {rollSeconds(rollWalls), "s"},
			"epoch_s":        {median(epochs), "s"},
			"test_mse":       {trains[0].testMSE, "min2"},
		}
		rep.line("setup serving_s=%.4f training_s=%.4f", setupS, median(trainSetups))
		rep.line("heap training_peak_mb=%.1f serving_peak_mb=%.1f", trainMB, serveMB)
	} else {
		lm, err := layerMetrics(tr, o.bundle, in.traced, traced, c0, c1, p50, rollHandler, trains[len(trains)-1], rep)
		if err != nil {
			return nil, err
		}
		res.Metrics = lm
		if err := tr.write(filepath.Join(o.workdir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, o.seed))); err != nil {
			return nil, err
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rep.line("metric %s %.6g %s", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	rep.line("result attempted=%d failed=%d correct=%v", res.Attempted, res.Failed, res.Correct)
	fmt.Print(rep.String())
	return res, nil
}

// report collects the human-readable lines printed before the JSON result.
type report struct{ b strings.Builder }

func (r *report) line(format string, args ...any) {
	fmt.Fprintf(&r.b, format+"\n", args...)
}

func (r *report) String() string { return r.b.String() }

// runInputs holds every request body of a run, per phase, as disjoint
// slices of one never-repeating stream. check holds the few bodies that the
// roll phase sends again after each checked roll.
type runInputs struct {
	warm, closed, open, traced, check [][]byte
}

func (in runInputs) total() int {
	return len(in.warm) + len(in.closed) + len(in.open) + len(in.traced) + len(in.check)
}

func (in runInputs) byPhase() map[string][][]byte {
	return map[string][][]byte{"warmup": in.warm, "closed": in.closed, "open": in.open, "traced": in.traced, "rolls": in.check}
}

// closedCeiling bounds the closed-loop rate the inputs are sized for: 1.3
// times the fastest closed-loop throughput seen on the recorded host. A run faster than that
// exhausts its closed-loop inputs early; throughput is still counted over
// the windows the phase actually ran.
const closedCeiling = 7000

func buildInputs(w workloadDef, seed uint64, closedDur, openDur time.Duration, traced bool) runInputs {
	nWarm := int(closedCeiling * warmup.Seconds())
	nClosed := int(closedCeiling * closedDur.Seconds())
	nOpen := int(w.openRate*openDur.Seconds()) + 1
	nTraced := 0
	if traced {
		nTraced = int(w.openRate*(openDur/2).Seconds()) + 1
	}
	n := nWarm + nClosed + nOpen + nTraced + rollCheckBodies
	all := bodies(coldSQL(seed, n))
	take := func(k int) [][]byte {
		out := all[:k:k]
		all = all[k:]
		return out
	}
	return runInputs{warm: take(nWarm), closed: take(nClosed), open: take(nOpen), traced: take(nTraced), check: take(rollCheckBodies)}
}

// layerMetrics turns the traced run into the per-layer metrics and prints
// the layer ladder: the untraced open-loop p50 against the sum of the
// layers, and the tracing overhead.
func layerMetrics(tr *tracer, bundle string, tracedBodies [][]byte, traced phaseResult,
	c0, c1 counters, untracedP50 float64, rollHandler []float64, tres trainResult, rep *report) (map[string]metric, error) {
	ratio := func(a, b int64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	cacheHit := ratio(c1.cacheHits-c0.cacheHits, c1.cacheMisses-c0.cacheMisses)
	tmplHit := ratio(c1.templateHits-c0.templateHits, c1.templateMisses-c0.templateMisses)
	batches := c1.batches - c0.batches
	batchMean := 1.0
	if batches > 0 {
		batchMean = float64(c1.coalesced-c0.coalesced) / float64(batches)
	}

	// Replay the first traced requests layer by layer, then predict them in
	// batches of the observed mean size.
	pred, err := loadPredictor(bundle)
	if err != nil {
		return nil, err
	}
	m, ok := pred.Model.(*models.Prestroid)
	if !ok {
		return nil, fmt.Errorf("fixture model is %T, not Prestroid", pred.Model)
	}
	n := min(replayCap, traced.sent)
	traces, err := replayRequests(tr, m, tracedBodies[:n])
	if err != nil {
		return nil, err
	}
	replayPredict(tr, m, traces, max(1, int(math.Round(batchMean))))
	var decodes []float64
	for r := 0; r < 5; r++ {
		d, err := timeDecode(bundle)
		if err != nil {
			return nil, err
		}
		decodes = append(decodes, float64(d.Microseconds())/1e3)
	}

	tr.mu.Lock()
	st := selfTimes(tr.spans)
	tr.mu.Unlock()
	us := func(name string) float64 { return st[name].meanMicros() }
	httpSelf := us("serve.http") + us("serve.decode")
	engine := us("serve.engine") - us("serve.decode")
	miss := us("sqlparse.parse") + us("logicalplan.plan") + us("models.encode") + us("models.template_deposit")
	hit := us("sqlparse.rebind") + us("logicalplan.plan") + us("models.encoding_rebind")
	front := us("serve.canonical") + (1-cacheHit)*(us("sqlparse.extract_template")+tmplHit*hit+(1-tmplHit)*miss)
	predict := (1 - cacheHit) * us("models.predict")
	queue := engine - front - predict
	layerSum := (httpSelf + engine) / 1e3
	tracedLats := traced.okLatencies()
	tracedP50 := median(traced.windowQuantiles(0.5, latencyWindow))
	lag := lagStats(traced)
	rep.line("ladder (mean us per request, traced open loop of %d requests, replay of %d):", len(tracedLats), n)
	rep.line("  loadgen+dispatch %.1f | http %.1f | engine %.1f = canonical %.1f + front end %.1f + predict %.1f + queue %.1f",
		us("request"), httpSelf, engine, us("serve.canonical"), front-us("serve.canonical"), predict, queue)
	rep.line("  weights: cache_hit=%.3f template_hit=%.3f batch_mean=%.2f", cacheHit, tmplHit, batchMean)
	rep.line("  layer sum %.4f ms vs untraced latency_p50_ms %.4f: residual %.4f ms; tracing overhead (traced p50 %.4f - untraced) %.4f ms",
		layerSum, untracedP50, untracedP50-layerSum, tracedP50, tracedP50-untracedP50)

	subtreeHit := ratio(c1.subtreeHits-c0.subtreeHits, c1.subtreeMisses-c0.subtreeMisses)
	return map[string]metric{
		"serve.http_us":                {httpSelf, "us"},
		"serve.engine_us":              {engine, "us"},
		"serve.queue_us":               {queue, "us"},
		"serve.canonical_us":           {us("serve.canonical"), "us"},
		"sqlparse.extract_template_us": {us("sqlparse.extract_template"), "us"},
		"sqlparse.parse_us":            {us("sqlparse.parse"), "us"},
		"logicalplan.plan_us":          {us("logicalplan.plan"), "us"},
		"models.encode_us":             {us("models.encode"), "us"},
		"models.template_deposit_us":   {us("models.template_deposit"), "us"},
		"sqlparse.rebind_us":           {us("sqlparse.rebind"), "us"},
		"models.encoding_rebind_us":    {us("models.encoding_rebind"), "us"},
		"models.predict_us":            {us("models.predict"), "us"},
		"serve.cache_hit_rate":         {cacheHit, "ratio"},
		"serve.template_hit_rate":      {tmplHit, "ratio"},
		"serve.subtree_hit_rate":       {subtreeHit, "ratio"},
		"serve.batch_size_mean":        {batchMean, "count"},
		"serve.batches":                {float64(batches), "count"},
		"serve.service_time_us":        {c1.serviceMicros, "us"},
		"serve.template_cache_mb":      {float64(c1.templateBytes) / (1 << 20), "MB"},
		"serve.subtree_cache_mb":       {float64(c1.subtreeBytes) / (1 << 20), "MB"},
		"serve.shed":                   {float64(c1.shed - c0.shed), "count"},
		"serve.expired":                {float64(c1.expired - c0.expired), "count"},
		"serve.reload_ms":              {median(rollHandler), "ms"},
		"persist.decode_bundle_ms":     {median(decodes), "ms"},
		"models.train_batch_ms":        {us("models.train_batch") / 1e3, "ms"},
		"models.prepare_s":             {us("models.prepare") / 1e6, "s"},
		"models.pipeline_build_s":      {us("models.pipeline_build") / 1e6, "s"},
		"models.batch_bytes":           {float64(tres.batchBytes), "bytes"},
		"trace.layer_sum_ms":           {layerSum, "ms"},
		"trace.residual_ms":            {untracedP50 - layerSum, "ms"},
		"trace.overhead_ms":            {tracedP50 - untracedP50, "ms"},
		"loadgen.lag_p99_ms":           {ms(lag.p99), "ms"},
		"loadgen.lag_max_ms":           {ms(lag.max), "ms"},
	}, nil
}

// rollSeconds is the mean over the rolled bundles of each bundle's median
// roll time. Rolls alternate between two bundles of different size, so a
// median over all rolls would sit on whichever side has one roll more.
func rollSeconds(byBundle map[string][]float64) float64 {
	var meds []float64
	for _, v := range byBundle {
		meds = append(meds, median(v))
	}
	return mean(meds)
}

type lagSummary struct{ p99, max time.Duration }

func lagStats(p phaseResult) lagSummary {
	if len(p.lag) == 0 {
		return lagSummary{}
	}
	l := append([]time.Duration(nil), p.lag...)
	sort.Slice(l, func(a, b int) bool { return l[a] < l[b] })
	return lagSummary{p99: quantile(l, 0.99), max: l[len(l)-1]}
}

// quantile reads the q-quantile of sorted durations (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// mb is the heap above base, in MiB.
func mb(heap, base uint64) float64 { return float64(int64(heap)-int64(base)) / (1 << 20) }

func durSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}

// liveHeap reads the live heap as of the last completed GC cycle.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler tracks the peak live heap until stopped.
type heapSampler struct {
	done chan struct{}
	once sync.Once
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	hs := &heapSampler{done: make(chan struct{}), peak: liveHeap()}
	hs.wg.Add(1)
	go func() {
		defer hs.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-hs.done:
				return
			case <-t.C:
				if v := liveHeap(); v > hs.peak {
					hs.peak = v
				}
			}
		}
	}()
	return hs
}

// stop ends sampling and returns the peak. Later calls return the same.
func (hs *heapSampler) stop() uint64 {
	hs.once.Do(func() {
		close(hs.done)
		hs.wg.Wait()
		runtime.GC()
		if v := liveHeap(); v > hs.peak {
			hs.peak = v
		}
	})
	return hs.peak
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(l, "model name") {
			if i := strings.IndexByte(l, ':'); i >= 0 {
				return strings.TrimSpace(l[i+1:])
			}
		}
	}
	return "unknown"
}
