package main

import (
	"encoding/json"
	"sync"

	"prestroid/internal/api"
	"prestroid/internal/serve"
	"prestroid/internal/tensor"
	"prestroid/internal/workload"
)

// Every random stream the benchmark draws is derived from a seed and a
// stream tag, so one seed always gives the same inputs and no stream can
// reuse seed 1 — the Grab seed prestroidd's fixture model trained on.
const (
	streamTraffic uint64 = iota + 1
	streamTrain
	streamSplit
)

// deriveSeed mixes a seed and a stream tag with splitmix64.
func deriveSeed(seed, stream uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + stream*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z <= 1 {
		z += 2
	}
	return z
}

// coldSQL draws n Grab queries whose canonical keys are all distinct, so
// no request can be answered by the prediction cache. The generator's 1%
// monster long tail (Fig 8) stays in. Two generators run in parallel and
// their streams are interleaved, which keeps the order a function of seed.
func coldSQL(seed uint64, n int) []string {
	const streams = 2
	days := workload.DefaultGrabConfig().Days + 1
	per := n/streams + n/100 + 16 // headroom for the rare duplicate
	gens := make([]*workload.GrabGenerator, streams)
	dayRNGs := make([]*tensor.RNG, streams)
	drawn := make([][]string, streams)
	var wg sync.WaitGroup
	for s := range gens {
		cfg := workload.DefaultGrabConfig()
		cfg.Seed = deriveSeed(seed, streamTraffic+uint64(s)*100)
		gens[s], dayRNGs[s] = workload.NewGrabGenerator(cfg), tensor.NewRNG(cfg.Seed+1)
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				drawn[s] = append(drawn[s], gens[s].GenerateOne(dayRNGs[s].Intn(days)).SQL)
			}
		}(s)
	}
	wg.Wait()
	seen := make(map[string]struct{}, n)
	out := make([]string, 0, n)
	add := func(sql string) {
		key := serve.CanonicalSQL(sql)
		if _, dup := seen[key]; !dup && len(out) < n {
			seen[key] = struct{}{}
			out = append(out, sql)
		}
	}
	for i := 0; i < per; i++ {
		for s := range drawn {
			add(drawn[s][i])
		}
	}
	for len(out) < n {
		add(gens[0].GenerateOne(dayRNGs[0].Intn(days)).SQL)
	}
	return out
}

// bodies renders each query as a /v1/predict request body.
func bodies(sqls []string) [][]byte {
	out := make([][]byte, len(sqls))
	for i, s := range sqls {
		b, err := json.Marshal(api.PredictRequest{SQL: s})
		if err != nil {
			panic(err) // a string always marshals
		}
		out[i] = b
	}
	return out
}

// trainingSeed fixes the training set. Unlike the traffic it does not
// follow the run seed: test_mse is an accuracy guard, so every run trains on
// the same data and a changed value means changed code.
const trainingSeed uint64 = 2021

// trainingTraces returns n labelled Grab traces inside the paper's 1–60
// minute window.
func trainingTraces(n int) []*workload.Trace {
	cfg := workload.DefaultGrabConfig()
	cfg.Seed = deriveSeed(trainingSeed, streamTrain)
	cfg.Queries = n
	return workload.NewGrabGenerator(cfg).Generate()
}
