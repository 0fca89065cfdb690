package main

import (
	"encoding/json"
	"testing"
	"time"

	"prestroid/internal/api"
)

func decodeSQL(t *testing.T, body []byte) string {
	t.Helper()
	var r api.PredictRequest
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	return r.SQL
}

// A request span [0,100) holds an http span [10,90), which holds an engine
// span [20,70); the http span also holds two overlapping decode spans
// [15,25) and [22,30) and one [85,95) that runs past its parent.
func TestSelfTimesSubtractTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Req: 1, Name: "request", Start: 0, End: 100},
		{ID: 1, Parent: 0, Req: 1, Name: "http", Start: 10, End: 90},
		{ID: 2, Parent: 1, Req: 1, Name: "engine", Start: 20, End: 70},
		{ID: 3, Parent: 1, Req: 1, Name: "decode", Start: 15, End: 25},
		{ID: 4, Parent: 1, Req: 1, Name: "decode", Start: 22, End: 30},
		{ID: 5, Parent: 1, Req: 1, Name: "late", Start: 85, End: 95},
		// A second request contributes to the same names.
		{ID: 6, Parent: -1, Req: 2, Name: "request", Start: 200, End: 210},
	}
	got := selfTimes(spans)
	want := map[string]layerStat{
		// 100 minus http's 80.
		"request": {count: 2, total: 20 + 10},
		// 80 minus the union [15,70) ∪ [85,90) = 55 + 5.
		"http":   {count: 1, total: 20},
		"engine": {count: 1, total: 50},
		"decode": {count: 2, total: 10 + 8},
		"late":   {count: 1, total: 10},
	}
	for name, w := range want {
		if g := got[name]; g != w {
			t.Errorf("%s: got %+v, want %+v", name, g, w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got layers %v", got)
	}
	if m := got["decode"].meanMicros(); m != 9.0/1e3 {
		t.Errorf("decode mean %v us, want 0.009", m)
	}
}

func TestTracerKeepsParentage(t *testing.T) {
	tr := newTracer()
	root := tr.begin()
	start := time.Now()
	child := tr.add(3, root, "child", start, start.Add(time.Millisecond))
	tr.end(root, 3, -1, "root", start)
	if child == root {
		t.Fatal("child reused the reserved root id")
	}
	st := selfTimes(tr.spans)
	if st["root"].count != 1 || st["child"].count != 1 {
		t.Fatalf("got %+v", st)
	}
	for _, s := range tr.spans {
		if s.Req != 3 {
			t.Fatalf("span %s has request %d, want 3", s.Name, s.Req)
		}
	}
}

func TestThroughputIsTheMedianOverWindows(t *testing.T) {
	// Four half-second windows at 2000/s; the third is a slow stretch.
	r := phaseResult{elapsed: 4 * window}
	for w := 0; w < 4; w++ {
		for i := 0; i < 1000; i++ {
			lat := time.Microsecond
			if w == 2 {
				lat = 25 * time.Millisecond
			}
			r.codes = append(r.codes, 200)
			r.due = append(r.due, time.Duration(w)*window+time.Duration(i)*window/1000)
			r.lat = append(r.lat, lat)
		}
	}
	// Completions per window: 1000, 1000, 950 and 1050, the slow window's
	// last 50 spilling into the next.
	if got := r.windowThroughput(); got != 2000 {
		t.Errorf("median window throughput = %v/s, want 2000", got)
	}
}

func TestLatencyWindows(t *testing.T) {
	// Four windows of 1200 requests; the third holds a stall.
	r := phaseResult{elapsed: 4 * latencyWindow}
	for w := 0; w < 4; w++ {
		for i := 0; i < 1200; i++ {
			lat := time.Millisecond
			if w == 2 {
				lat = 81 * time.Millisecond
			}
			r.codes = append(r.codes, 200)
			r.due = append(r.due, time.Duration(w)*latencyWindow+time.Duration(i)*latencyWindow/1200)
			r.lat = append(r.lat, lat)
		}
	}
	got := r.windowQuantiles(0.99, latencyWindow)
	if len(got) != 4 || got[0] != 1 || got[2] != 81 {
		t.Fatalf("per-window p99 = %v ms, want [1 1 81 1]", got)
	}
	if m := median(got); m != 1 {
		t.Errorf("median window p99 = %v ms, want 1", m)
	}
	if m := mean(got); m != 21 {
		t.Errorf("mean window p99 = %v ms, want 21", m)
	}
	// A window that the phase did not fill is left out.
	r.elapsed = 3*latencyWindow + latencyWindow/2
	if got := r.windowQuantiles(0.99, latencyWindow); len(got) != 3 {
		t.Errorf("got %d windows of a 3.5-window phase, want 3", len(got))
	}
}
