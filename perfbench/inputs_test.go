package main

import (
	"bytes"
	"testing"
	"time"

	"prestroid/internal/serve"
)

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	w, err := lookupWorkload("grab_cold")
	if err != nil {
		t.Fatal(err)
	}
	a := buildInputs(w, 7, 250*time.Millisecond, 500*time.Millisecond, true)
	b := buildInputs(w, 7, 250*time.Millisecond, 500*time.Millisecond, true)
	c := buildInputs(w, 8, 250*time.Millisecond, 500*time.Millisecond, true)
	pa, pb, pc := a.byPhase(), b.byPhase(), c.byPhase()
	differs := false
	for name, bodies := range pa {
		if len(bodies) == 0 || len(bodies) != len(pb[name]) {
			t.Fatalf("phase %s: %d vs %d bodies", name, len(bodies), len(pb[name]))
		}
		for i := range bodies {
			if !bytes.Equal(bodies[i], pb[name][i]) {
				t.Fatalf("phase %s body %d differs between two builds with seed 7", name, i)
			}
			if !bytes.Equal(bodies[i], pc[name][i]) {
				differs = true
			}
		}
	}
	if !differs {
		t.Fatal("seeds 7 and 8 gave the same inputs")
	}
}

func TestColdTrafficNeverRepeatsACanonicalKey(t *testing.T) {
	w, err := lookupWorkload("grab_cold")
	if err != nil {
		t.Fatal(err)
	}
	in := buildInputs(w, 3, 250*time.Millisecond, 500*time.Millisecond, true)
	seen := map[string]string{}
	for name, bodies := range in.byPhase() {
		for i, body := range bodies {
			sql := decodeSQL(t, body)
			key := serve.CanonicalSQL(sql)
			if prev, ok := seen[key]; ok {
				t.Fatalf("%s #%d repeats the canonical key of %s", name, i, prev)
			}
			seen[key] = name
		}
	}
	if len(seen) != in.total() {
		t.Fatalf("%d distinct keys for %d requests", len(seen), in.total())
	}
}

func TestTrainingSetIgnoresTheRunSeed(t *testing.T) {
	a, b := trainingTraces(64), trainingTraces(64)
	if len(a) != 64 || len(b) != 64 {
		t.Fatalf("got %d and %d traces, want 64", len(a), len(b))
	}
	for i := range a {
		if a[i].SQL != b[i].SQL || a[i].CPUMinutes() != b[i].CPUMinutes() {
			t.Fatalf("trace %d differs between two draws", i)
		}
	}
}
