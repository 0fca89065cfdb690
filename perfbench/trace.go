package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"prestroid/internal/api"
	"prestroid/internal/logicalplan"
	"prestroid/internal/models"
	"prestroid/internal/serve"
	"prestroid/internal/sqlparse"
	"prestroid/internal/workload"
)

// span is one timed interval of a traced run. Spans of one request share
// Req; Parent is the id of the span that caused it, or -1 for a root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin reserves a span id for a span whose children end before it does.
func (t *tracer) begin() int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.next
	t.next++
	return id
}

// end records the span reserved by begin, ending now.
func (t *tracer) end(id, req, parent int32, name string, start time.Time) {
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: time.Since(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// add records a finished span and returns its id.
func (t *tracer) add(req, parent int32, name string, start, end time.Time) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.next
	t.next++
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// time runs f inside a span.
func (t *tracer) time(req, parent int32, name string, f func()) {
	start := time.Now()
	f()
	t.add(req, parent, name, start, time.Now())
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerStat is the self time of every span with one name.
type layerStat struct {
	count int
	total time.Duration
}

func (l layerStat) meanMicros() float64 {
	if l.count == 0 {
		return 0
	}
	return float64(l.total.Nanoseconds()) / float64(l.count) / 1e3
}

// selfTimes sums, per span name, each span's duration minus the part of its
// interval that its children cover (overlapping children count once, and
// time a child spends outside its parent is not subtracted).
func selfTimes(spans []span) map[string]layerStat {
	children := map[int32][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerStat{}
	for _, s := range spans {
		covered := coveredNanos(s.Start, s.End, children[s.ID])
		st := out[s.Name]
		st.count++
		st.total += time.Duration(s.End - s.Start - covered)
		out[s.Name] = st
	}
	return out
}

// coveredNanos is the length of the union of the children's intervals
// clipped to [start, end].
func coveredNanos(start, end int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, start), min(k.End, end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// replayRequests re-runs the engine's front end on the given request
// bodies, in the daemon's order, timing each public call under the
// request's id (its index, as in the traced phase): body decode,
// canonicalise, extract the template, then both branches the engine can
// take — the miss path (parse, plan, encode, and the template deposit a miss
// leaves behind) and the hit path (rebind the parsed skeleton, plan the
// rebound statement, rebind the template encoding) — so every layer is
// timed on every workload. Which branch live traffic took is
// read from the server's counters. It returns the traces, encoded by the
// miss path, for the predict replay.
func replayRequests(t *tracer, m *models.Prestroid, bodies [][]byte) ([]*workload.Trace, error) {
	traces := make([]*workload.Trace, 0, len(bodies))
	for i, body := range bodies {
		req := int32(i)
		root := t.begin()
		start := time.Now()
		var pr api.PredictRequest
		var err error
		t.time(req, root, "serve.decode", func() { err = json.Unmarshal(body, &pr) })
		if err != nil {
			return nil, fmt.Errorf("replay #%d: %w", i, err)
		}
		sql := pr.SQL
		t.time(req, root, "serve.canonical", func() { _ = serve.CanonicalSQL(sql) })
		var lits []sqlparse.TemplateLiteral
		var ok bool
		t.time(req, root, "sqlparse.extract_template", func() { _, lits, ok = sqlparse.ExtractTemplate(sql) })
		if !ok {
			return nil, fmt.Errorf("replay #%d: template extraction failed", i)
		}
		var stmt *sqlparse.SelectStmt
		t.time(req, root, "sqlparse.parse", func() { stmt, err = sqlparse.Parse(sql) })
		if err != nil {
			return nil, fmt.Errorf("replay #%d: parse: %w", i, err)
		}
		var plan *logicalplan.Node
		t.time(req, root, "logicalplan.plan", func() { plan, err = logicalplan.Plan(stmt) })
		if err != nil {
			return nil, fmt.Errorf("replay #%d: plan: %w", i, err)
		}
		tr := &workload.Trace{SQL: sql, Plan: plan, Template: -1}
		var enc any
		t.time(req, root, "models.encode", func() { enc = m.EncodeTrace(tr) })
		m.AdoptEncoding(tr, enc)
		var te *models.TemplateEncoding
		t.time(req, root, "models.template_deposit", func() { te = m.BuildTemplateEncoding(plan) })

		var rebound *sqlparse.SelectStmt
		t.time(req, root, "sqlparse.rebind", func() { rebound, err = stmt.Rebind(lits) })
		if err != nil {
			return nil, fmt.Errorf("replay #%d: rebind: %w", i, err)
		}
		var plan2 *logicalplan.Node
		t.time(req, root, "logicalplan.plan", func() { plan2, err = logicalplan.Plan(rebound) })
		if err != nil {
			return nil, fmt.Errorf("replay #%d: plan rebound: %w", i, err)
		}
		t.time(req, root, "models.encoding_rebind", func() { _, ok = te.Rebind(plan2) })
		t.end(root, req, -1, "replay", start)
		traces = append(traces, tr)
	}
	return traces, nil
}

// replayPredict times PredictInto over consecutive batches of batchSize of
// the already-encoded traces, with a sub-tree cache that the replay fills as
// it goes (the live engine's is warm, so live predict is at most this slow).
func replayPredict(t *tracer, m *models.Prestroid, traces []*workload.Trace, batchSize int) {
	m.SetConvCache(newConvCache())
	dst := make([]float64, batchSize)
	for i := 0; i+batchSize <= len(traces); i += batchSize {
		batch := traces[i : i+batchSize]
		t.time(int32(i), -1, "models.predict", func() { m.PredictInto(batch, dst) })
	}
	m.SetConvCache(nil)
	m.Evict(traces)
}

// convCache is a map-backed models.ConvCache for the predict replay. The
// conv stack calls it from several goroutines.
type convCache struct {
	mu sync.Mutex
	m  map[uint64][]float64
}

func newConvCache() *convCache { return &convCache{m: map[uint64][]float64{}} }

func (c *convCache) Get(h uint64) ([]float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[h]
	return v, ok
}

func (c *convCache) Put(h uint64, pooled []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[h]; !ok {
		c.m[h] = append([]float64(nil), pooled...)
	}
}
