// Package imodel implements the paper's analytical application-performance
// model (§3, Table 1, Eqs. 1–3). The figure of merit is IMpJ — "interesting
// messages per Joule" — the number of interesting sensor readings an
// energy-harvesting device communicates per Joule harvested.
//
// Energy is divided between sensing, inference, and communication; local
// inference filters readings so that only (hopefully) interesting ones are
// communicated. GENESIS uses this model as the objective when choosing a
// compressed network configuration, and the Fig. 1/Fig. 2 benchmarks sweep
// it over accuracy.
package imodel

import "fmt"

// Params are the model inputs described in the paper's Table 1. Energies
// are in Joules; p, tp, tn are probabilities.
type Params struct {
	P      float64 // base rate of "interesting" events
	TP     float64 // true-positive rate of inference
	TN     float64 // true-negative rate of inference
	ESense float64 // energy cost of one sensor reading (J)
	EComm  float64 // energy cost of communicating one reading (J)
	EInfer float64 // energy cost of one inference (J)
}

// Validate reports whether the parameters are in range.
func (p Params) Validate() error {
	for _, pr := range []struct {
		name string
		v    float64
		prob bool
	}{
		{"p", p.P, true}, {"tp", p.TP, true}, {"tn", p.TN, true},
		{"Esense", p.ESense, false}, {"Ecomm", p.EComm, false}, {"Einfer", p.EInfer, false},
	} {
		if pr.v < 0 {
			return fmt.Errorf("imodel: %s must be non-negative, got %v", pr.name, pr.v)
		}
		if pr.prob && pr.v > 1 {
			return fmt.Errorf("imodel: %s must be a probability, got %v", pr.name, pr.v)
		}
	}
	return nil
}

// Baseline is Eq. 1: a system with no local inference communicates every
// sensor reading, interesting or not.
func Baseline(p Params) float64 {
	return p.P / (p.ESense + p.EComm)
}

// Ideal is Eq. 2: an (unbuildable) oracle communicates exactly the
// interesting readings and spends no inference energy.
func Ideal(p Params) float64 {
	return p.P / (p.ESense + p.P*p.EComm)
}

// Inference is Eq. 3: a realistic system pays EInfer per reading and
// communicates true positives plus false positives
// (rate (1-p)(1-tn) of uninteresting readings leak through).
func Inference(p Params) float64 {
	sent := p.P*p.TP + (1-p.P)*(1-p.TN)
	return p.P * p.TP / ((p.ESense + p.EInfer) + sent*p.EComm)
}

// WildlifeDefaults returns the paper's wildlife-monitoring case-study
// parameters (§3.2): p=0.05, Esense=10 mJ, Ecomm=23 J over OpenChirp.
// tp/tn are left at 1 for the caller to sweep.
func WildlifeDefaults() Params {
	return Params{P: 0.05, TP: 1, TN: 1, ESense: 0.010, EComm: 23.0}
}

// EInferNaive and EInferSONICTAILS are the measured per-inference energies
// the paper plugs into the case study: 198 mJ for the naive task-tiled
// implementation (Tile-8) and 26 mJ for SONIC & TAILS.
const (
	EInferNaive      = 0.198
	EInferSONICTAILS = 0.026
)

// ResultOnlyCommFactor is the communication-energy reduction when sending
// only the inference result instead of the full sensor reading (§3.2:
// "Ecomm decreases by 98×" in the wildlife example).
const ResultOnlyCommFactor = 98.0
