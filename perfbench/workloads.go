package main

import "fmt"

// workloadDef fixes everything a workload does apart from its seed and run
// length. Rates and in-flight counts are constants, sized on the recorded
// host (see README.md); they are never derived at run time, so two commits
// always face the same offered load.
//
// Every run is one cycle of the paper's Fig-1 loop: train the serving
// architecture on labelled Grab traces, stand the daemon up from the fixture
// bundle, serve never-repeating Grab traffic closed loop and then open loop,
// and roll between the fixture and the freshly trained bundle. The workloads
// differ in what dominates that cycle.
type workloadDef struct {
	name string

	closedInFlight int     // requests in flight in the closed-loop phase
	openRate       float64 // requests per second in the open-loop phases
	openInFlight   int     // cap on in-flight requests in the open-loop phases

	trainQueries int // labelled traces, split 8/1/1
	trainEpochs  int // fixed epoch count; early stopping is off
	trainReps    int // training runs from scratch; more than one checks test MSE is reproducible

	// setupIsTraining makes setup_s the training set-up (BuildPipeline and
	// Prepare of all splits) instead of the serving set-up.
	setupIsTraining bool
}

// openRate is 800/s: about half the 1.8k qps the seed commit served closed
// loop at 16 in flight on the recorded host. At 1 600/s, half of what this
// benchmark's closed loop reads, the p50 rose with hypervisor steal about
// twice as steeply (README.md, "Open-loop rate").
var workloads = []workloadDef{
	{
		name:           "grab_cold",
		closedInFlight: 16, openRate: 800, openInFlight: 64,
		trainQueries: 384, trainEpochs: 6, trainReps: 1,
	},
	{
		name:           "train_grab",
		closedInFlight: 16, openRate: 800, openInFlight: 64,
		trainQueries: 640, trainEpochs: 4, trainReps: 2, setupIsTraining: true,
	},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}
