package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/energy"
	"repro/internal/fixed"
	"repro/internal/intermittest"
	"repro/internal/mcu"
)

// goldenCorpusPath holds the frozen observations of the interpreted layer
// walk, the second executor every runtime carried until the compiled-tape
// walk replaced it: one record per (model, runtime, run).
const goldenCorpusPath = "testdata/golden_corpus.json"

// corpusRecord is one frozen run. Digest covers the whole observation
// (canonicalObservation); Logits, DNC and Reboots repeat its headline
// fields in plain form so a mismatch can say what diverged.
type corpusRecord struct {
	Model   string      `json:"model"`
	Runtime string      `json:"runtime"`
	Run     string      `json:"run"`
	Gaps    []int       `json:"gaps,omitempty"`
	Digest  string      `json:"digest"`
	Logits  []fixed.Q15 `json:"logits"`
	DNC     bool        `json:"dnc,omitempty"`
	Reboots int         `json:"reboots"`
}

// Run kinds besides the fuzzed schedules, whose Run is "schedNN".
const (
	runCont       = "cont"        // continuous power, WAR shadow armed
	runContScalar = "cont-scalar" // the same on the energy.PerOp reference path
	runContFused  = "cont-fused"  // continuous power, no shadow: fusion engages
)

// corpusModel is one network the corpus covers, with its input sample.
type corpusModel struct {
	qm  *dnn.QuantModel
	qin []fixed.Q15
}

// corpusModels are the tiny model that exercises every kernel class and
// the CSR net whose sparse layer has every row shape the sparse walk must
// survive.
func corpusModels() []corpusModel {
	tiny, xt := intermittest.TinyModel(1)
	csr, xc := intermittest.AdversarialCSRModel(1)
	return []corpusModel{{tiny, tiny.QuantizeInput(xt)}, {csr, csr.QuantizeInput(xc)}}
}

// corpusObserve executes one recorded run on a fresh device.
func corpusObserve(t *testing.T, qm *dnn.QuantModel, qin []fixed.Q15, rt core.Runtime,
	run string, gaps []int) diffObservation {
	t.Helper()
	var power energy.System = energy.Continuous{}
	if gaps != nil {
		power = energy.NewFailSchedule(gaps)
	}
	if run == runContScalar {
		power = energy.PerOp{S: power}
	}
	dev := mcu.New(power)
	if run != runContFused {
		dev.EnableWARCheck()
	}
	img, err := core.Deploy(dev, qm)
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	logits, ierr := rt.Infer(img, qin)
	return observe(dev, logits, ierr)
}

// canonicalSection is one per-section stats entry, by value.
type canonicalSection struct {
	Layer string
	Phase mcu.Phase
	mcu.SectionStats
}

// canonicalObservation is diffObservation in a stable byte form: the
// section map becomes a sorted slice and the one float is written as its
// IEEE bits.
type canonicalObservation struct {
	Logits          []fixed.Q15
	DNC             bool
	Err             string
	LiveCycles      int64
	DeadSecondsBits uint64
	Reboots         int
	EnergyPJ        int64
	OpCount         [mcu.NumOps]int64
	OpEnergyPJ      [mcu.NumOps]int64
	MaxRegionOps    int64
	Sections        []canonicalSection
	WARCount        int
	WARs            []mcu.WARViolation
}

// digest returns the hex sha256 of the observation's canonical encoding.
func (o diffObservation) digest() string {
	st := o.Stats
	c := canonicalObservation{
		Logits: o.Logits, DNC: o.DNC, Err: o.Err,
		LiveCycles: st.LiveCycles, DeadSecondsBits: math.Float64bits(st.DeadSeconds),
		Reboots: st.Reboots, EnergyPJ: st.EnergyPJ,
		OpCount: st.OpCount, OpEnergyPJ: st.OpEnergyPJ, MaxRegionOps: st.MaxRegionOps,
		WARCount: o.WARCount, WARs: o.WAR,
	}
	for sec, ss := range st.Sections {
		c.Sections = append(c.Sections, canonicalSection{Layer: sec.Layer, Phase: sec.Phase, SectionStats: *ss})
	}
	sort.Slice(c.Sections, func(i, j int) bool {
		a, b := c.Sections[i], c.Sections[j]
		if a.Layer != b.Layer {
			return a.Layer < b.Layer
		}
		return a.Phase < b.Phase
	})
	buf, err := json.Marshal(&c)
	if err != nil {
		panic("harness: observation does not marshal: " + err.Error())
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// loadCorpus reads the corpus, grouped by (model, runtime) in file order.
func loadCorpus(t *testing.T) map[[2]string][]corpusRecord {
	t.Helper()
	buf, err := os.ReadFile(goldenCorpusPath)
	if err != nil {
		t.Fatalf("golden corpus: %v", err)
	}
	var recs []corpusRecord
	if err := json.Unmarshal(buf, &recs); err != nil {
		t.Fatalf("golden corpus: %v", err)
	}
	out := make(map[[2]string][]corpusRecord)
	for _, r := range recs {
		k := [2]string{r.Model, r.Runtime}
		out[k] = append(out[k], r)
	}
	return out
}

// corpusRuns is the number of frozen runs per (model, runtime): three
// continuous-power runs and thirty fuzzed brown-out schedules.
const corpusRuns = 33

// checkCorpus replays every frozen run of (model, runtime) through rt and
// requires the identical observation digest.
func checkCorpus(t *testing.T, recs []corpusRecord, m corpusModel, rt core.Runtime) {
	t.Helper()
	if len(recs) != corpusRuns {
		t.Fatalf("corpus holds %d runs for %s/%s, want %d", len(recs), m.qm.Name, rt.Name(), corpusRuns)
	}
	for _, rec := range recs {
		got := corpusObserve(t, m.qm, m.qin, rt, rec.Run, rec.Gaps)
		digest := got.digest()
		if digest == rec.Digest {
			continue
		}
		label := fmt.Sprintf("%s%v", rec.Run, rec.Gaps)
		switch {
		case !reflect.DeepEqual(got.Logits, rec.Logits):
			t.Errorf("%s: logits diverge: got %v, corpus %v", label, got.Logits, rec.Logits)
		case got.DNC != rec.DNC:
			t.Errorf("%s: completion diverges: got dnc=%v, corpus dnc=%v", label, got.DNC, rec.DNC)
		case got.Stats.Reboots != rec.Reboots:
			t.Errorf("%s: reboots diverge: got %d, corpus %d", label, got.Stats.Reboots, rec.Reboots)
		default:
			t.Errorf("%s: observation digest diverges (stats, sections or WAR records): got %s, corpus %s",
				label, digest, rec.Digest)
		}
	}
}

// TestTapeInterpreterDifferential holds the compiled-tape walk to the
// frozen corpus of the interpreted walk (testdata/golden_corpus.json): for
// every runtime and both corpus models, three continuous-power runs (WAR
// shadow armed; the same forced scalar; no shadow, so fused kernels
// engage) and thirty fuzzed brown-out schedules must reproduce the
// recorded observation — logits, completion, full Stats including
// per-section maps, reboot placement, and WAR records — bit for bit. The
// corpus file is never regenerated: it is the interpreted walk's evidence.
// For the same reason it holds no FRAM image; the fused oracles compare
// final FRAM images fused against energy.PerOp instead (nvRuntime).
//
// CI greps for each runtime × model PASS line and rejects skips.
func TestTapeInterpreterDifferential(t *testing.T) {
	corpus := loadCorpus(t)
	for _, rt := range oracleRuntimes() {
		rt := rt
		t.Run(rt.Name(), func(t *testing.T) {
			for _, m := range corpusModels() {
				m := m
				t.Run(m.qm.Name, func(t *testing.T) {
					checkCorpus(t, corpus[[2]string{m.qm.Name, rt.Name()}], m, rt)
				})
			}
		})
	}
}
