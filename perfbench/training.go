package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"prestroid/internal/dataset"
	"prestroid/internal/models"
	"prestroid/internal/persist"
	"prestroid/internal/tensor"
	"prestroid/internal/train"
	"prestroid/internal/workload"
)

// trainBatch is the paper's mini-batch size.
const trainBatch = 64

// trainResult is one training run from scratch.
type trainResult struct {
	setup      time.Duration   // BuildPipeline + Prepare of all splits
	epochs     []time.Duration // per epoch, the wall time of its TrainBatch calls
	testMSE    float64         // minutes², at the best validation epoch
	batchBytes int             // BatchBytes(trainBatch)
}

// trainOnce trains prestroidd's serving architecture on traces for a fixed
// number of epochs with early stopping off, and saves the result as a full
// bundle at bundlePath. Every TrainBatch that train.Run makes is timed; with
// t set, each also gets a span.
func trainOnce(traces []*workload.Trace, epochs int, t *tracer, bundlePath string) (trainResult, error) {
	split := dataset.SplitRandom(traces, deriveSeed(trainingSeed, streamSplit))
	norm := workload.FitNormalizer(split.Train)
	pcfg := models.DefaultPipelineConfig(16)
	pcfg.MinCount = 2 // as prestroidd trains
	start := time.Now()
	pipe := models.BuildPipeline(split.Train, pcfg)
	built := time.Now()
	m := models.NewPrestroid(servingArch(), pipe)
	m.Prepare(split.Train)
	m.Prepare(split.Val)
	m.Prepare(split.Test)
	res := trainResult{setup: time.Since(start), batchBytes: m.BatchBytes(trainBatch)}

	cfg := train.DefaultConfig()
	cfg.BatchSize = trainBatch
	cfg.MaxEpochs = epochs
	cfg.Patience = epochs + 1
	if t != nil {
		t.add(0, -1, "models.pipeline_build", start, built)
		t.add(0, -1, "models.prepare", built, start.Add(res.setup))
	}
	run := &timedModel{Prestroid: m, t: t}
	cfg.OnEpoch = func(int, float64, float64) {
		res.epochs = append(res.epochs, run.epoch)
		run.epoch = 0
	}
	res.testMSE = train.Run(run, split, norm, cfg).TestMSE
	if math.IsNaN(res.testMSE) || math.IsInf(res.testMSE, 0) {
		return res, fmt.Errorf("training produced a non-finite test MSE %v", res.testMSE)
	}
	f, err := os.Create(bundlePath)
	if err != nil {
		return res, err
	}
	if err := persist.SaveFullBundle(f, pipe, norm, m); err != nil {
		f.Close()
		return res, fmt.Errorf("save trained bundle: %w", err)
	}
	return res, f.Close()
}

// timedModel is the model train.Run sees: the real one, with the wall time
// of each TrainBatch added to the running epoch and, in a traced run,
// recorded as a span of its own request id.
type timedModel struct {
	*models.Prestroid
	t     *tracer
	batch int32
	epoch time.Duration
}

func (m *timedModel) TrainBatch(batch []*workload.Trace, labels *tensor.Tensor) float64 {
	m.batch++
	start := time.Now()
	loss := m.Prestroid.TrainBatch(batch, labels)
	end := time.Now()
	m.epoch += end.Sub(start)
	if m.t != nil {
		m.t.add(m.batch, -1, "models.train_batch", start, end)
	}
	return loss
}
