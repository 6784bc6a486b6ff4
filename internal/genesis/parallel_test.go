package genesis

import (
	"strings"
	"testing"

	"repro/internal/dnn"
)

// TestGenesisParallelDeterministic is the equivalence oracle for the
// parallel sweep: for every evaluation network, a run fanned out across
// four workers, per config and per example, must produce a report
// bit-identical — accuracies, rates, MACs, param bytes, measured
// energies, IMpJ, and the chosen config — to a run with Workers 1, which
// evaluates one config at a time and each config's examples on one
// goroutine. Run under -race, this also exercises the fan-out paths for
// data races.
func TestGenesisParallelDeterministic(t *testing.T) {
	for _, net := range []string{"mnist", "har", "okg"} {
		t.Run(net, func(t *testing.T) {
			so := smallOptions(net)
			so.Workers = 1
			serial, err := Run(so)
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}
			po := smallOptions(net)
			po.Workers = 4 // force real fan-out even on a 1-CPU machine
			parallel, err := Run(po)
			if err != nil {
				t.Fatalf("parallel run: %v", err)
			}
			if len(serial.Results) != len(parallel.Results) {
				t.Fatalf("result counts differ: serial %d, parallel %d",
					len(serial.Results), len(parallel.Results))
			}
			if serial.Chosen != parallel.Chosen {
				t.Errorf("chosen differs: serial %d, parallel %d", serial.Chosen, parallel.Chosen)
			}
			for i := range serial.Results {
				s, p := &serial.Results[i], &parallel.Results[i]
				if s.Config != p.Config {
					t.Fatalf("result %d: config %v vs %v", i, s.Config, p.Config)
				}
				// Float comparisons are exact on purpose: the claim is
				// bit-identity, not approximate agreement.
				if s.Accuracy != p.Accuracy || s.TP != p.TP || s.TN != p.TN {
					t.Errorf("%s: accuracy/tp/tn differ: (%v %v %v) vs (%v %v %v)",
						s.Config.Name(), s.Accuracy, s.TP, s.TN, p.Accuracy, p.TP, p.TN)
				}
				if s.MACs != p.MACs || s.ParamBytes != p.ParamBytes || s.Feasible != p.Feasible {
					t.Errorf("%s: macs/bytes/feasible differ: (%d %d %v) vs (%d %d %v)",
						s.Config.Name(), s.MACs, s.ParamBytes, s.Feasible, p.MACs, p.ParamBytes, p.Feasible)
				}
				if s.EInferJ != p.EInferJ || s.IMpJ != p.IMpJ {
					t.Errorf("%s: energy/impj differ: (%v %v) vs (%v %v)",
						s.Config.Name(), s.EInferJ, s.IMpJ, p.EInferJ, p.IMpJ)
				}
				if s.Err != p.Err {
					t.Errorf("%s: err differs: %q vs %q", s.Config.Name(), s.Err, p.Err)
				}
			}
		})
	}
}

// TestEvaluateErrPropagates checks that an evaluation failure surfaces as
// Result.Err instead of a fake zero-value row: an empty training set leaves
// quantization without calibration samples.
func TestEvaluateErrPropagates(t *testing.T) {
	ds, err := dnn.DatasetFor("har", 1, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	ds.Train = nil // no calibration samples -> Quantize must fail
	n, err := dnn.NetworkFor("har", 1)
	if err != nil {
		t.Fatal(err)
	}
	res := evaluateNetwork(n, ds, smallOptions("har"), 1)
	if res.Err == "" {
		t.Fatal("expected Err on quantization failure, got none")
	}
	if !strings.HasPrefix(res.Err, "quantize:") {
		t.Errorf("Err = %q, want quantize: prefix", res.Err)
	}
	if res.Feasible {
		t.Error("errored result must not be feasible")
	}
	if res.Model != nil {
		t.Error("errored result must not carry a model")
	}
}

// TestByTechniqueSkipsErrored checks errored sweep entries never reach the
// per-technique frontiers (their zero MACs would fabricate Pareto points).
func TestByTechniqueSkipsErrored(t *testing.T) {
	results := []Result{
		{Config: Config{Technique: TechNone}},
		{Config: Config{Technique: TechPrune}, Err: "apply: boom"},
		{Config: Config{Technique: TechPrune}},
	}
	got := ByTechnique(results, TechPrune)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("ByTechnique = %v, want [0 2]", got)
	}
}
