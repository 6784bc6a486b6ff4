package imodel

import (
	"math"
	"testing"
	"testing/quick"
)

func wildlifeWith(einfer, tp, tn float64) Params {
	p := WildlifeDefaults()
	p.EInfer, p.TP, p.TN = einfer, tp, tn
	return p
}

func TestValidate(t *testing.T) {
	if err := WildlifeDefaults().Validate(); err != nil {
		t.Errorf("defaults should validate: %v", err)
	}
	bad := WildlifeDefaults()
	bad.TP = 1.5
	if bad.Validate() == nil {
		t.Error("tp > 1 should fail")
	}
	bad = WildlifeDefaults()
	bad.EComm = -1
	if bad.Validate() == nil {
		t.Error("negative energy should fail")
	}
}

func TestIdealBeatsBaseline(t *testing.T) {
	p := WildlifeDefaults()
	if Ideal(p) <= Baseline(p) {
		t.Errorf("Ideal (%v) should beat Baseline (%v)", Ideal(p), Baseline(p))
	}
	// With p = 0.05 and communication-dominated energy, the gap is ~1/p = 20x.
	ratio := Ideal(p) / Baseline(p)
	if ratio < 15 || ratio > 21 {
		t.Errorf("Ideal/Baseline = %v, want ~20 (paper Fig. 1)", ratio)
	}
}

func TestPerfectInferenceApproachesIdeal(t *testing.T) {
	// With tp = tn = 1 and EInfer = 0, Eq. 3 reduces to Eq. 2.
	p := wildlifeWith(0, 1, 1)
	if math.Abs(Inference(p)-Ideal(p)) > 1e-12 {
		t.Errorf("perfect inference %v != ideal %v", Inference(p), Ideal(p))
	}
}

func TestZeroAccuracyInferenceSendsNothing(t *testing.T) {
	p := wildlifeWith(EInferSONICTAILS, 0, 1)
	if Inference(p) != 0 {
		t.Errorf("tp = 0 should give IMpJ 0, got %v", Inference(p))
	}
}

func TestPaperFig1Shape(t *testing.T) {
	// At high accuracy, both local-inference systems deliver about
	// 1/p = 20x the baseline (Fig. 1's annotation), and the naive and
	// SONIC&TAILS curves are close (communication dominates).
	naive := Inference(wildlifeWith(EInferNaive, 0.99, 0.99))
	st := Inference(wildlifeWith(EInferSONICTAILS, 0.99, 0.99))
	base := Baseline(WildlifeDefaults())
	if naive/base < 10 || st/base < 10 {
		t.Errorf("local inference should dominate baseline: naive %v, st %v, base %v",
			naive/base, st/base, base)
	}
	if st/naive > 1.2 {
		t.Errorf("with full-image comms SONIC&TAILS should be within ~14%% of naive, ratio %v", st/naive)
	}
	if st <= naive {
		t.Errorf("SONIC&TAILS (%v) should still edge out naive (%v)", st, naive)
	}
}

func TestPaperFig2Shape(t *testing.T) {
	// Sending only results divides Ecomm by ~98: now inference energy
	// matters, and SONIC&TAILS beats naive by ~4.6x (paper Fig. 2).
	p := WildlifeDefaults()
	p.EComm /= ResultOnlyCommFactor
	naive := p
	naive.EInfer, naive.TP, naive.TN = EInferNaive, 0.99, 0.99
	st := p
	st.EInfer, st.TP, st.TN = EInferSONICTAILS, 0.99, 0.99
	ratio := Inference(st) / Inference(naive)
	if ratio < 3 || ratio > 7 {
		t.Errorf("result-only SONIC&TAILS/naive = %v, want ~4.6 (paper)", ratio)
	}
	// The paper reports ~480x over always-send for SONIC&TAILS.
	base := Baseline(WildlifeDefaults())
	overBase := Inference(st) / base
	if overBase < 200 || overBase > 900 {
		t.Errorf("SONIC&TAILS over always-send = %v, want ~480", overBase)
	}
	// And a ~2.2x gap to ideal (result-only).
	ideal := p
	gap := Ideal(ideal) / Inference(st)
	if gap < 1.5 || gap > 3.5 {
		t.Errorf("ideal/SONIC&TAILS gap = %v, want ~2.2", gap)
	}
}

// Property: IMpJ is monotonically non-decreasing in accuracy.
func TestMonotoneInAccuracyProperty(t *testing.T) {
	f := func(seed uint16) bool {
		a1 := float64(seed%100) / 100
		a2 := a1 + float64(seed%7)/10
		if a2 > 1 {
			a2 = 1
		}
		lo := Inference(wildlifeWith(EInferSONICTAILS, a1, a1))
		hi := Inference(wildlifeWith(EInferSONICTAILS, a2, a2))
		return hi >= lo-1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: inference IMpJ never exceeds ideal.
func TestInferenceBoundedByIdealProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		tp := float64(a) / 255
		tn := float64(b) / 255
		p := wildlifeWith(EInferSONICTAILS, tp, tn)
		return Inference(p) <= Ideal(p)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
