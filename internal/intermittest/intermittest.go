// Package intermittest is a fault-injection campaign engine for the
// intermittent device model: it sweeps brown-out placement across operation
// boundaries (exhaustively below a threshold, stratified-sampled with a
// seed above it) and differentially checks every run's final logits and
// predicted class against a continuous-power golden run of the same
// runtime. With WAR checking enabled it additionally arms the device's
// memory-consistency shadow tracker, catching write-after-read hazards even
// at boundaries where the logits happen to survive.
//
// The paper's central correctness claim (§4, §6) is that SONIC/TAILS
// tolerate a power failure at *any* instruction boundary; this package is
// the systematic form of that claim, and the deliberately unsafe runtimes
// (the naive baseline, and Broken in this package) are its negative
// controls.
package intermittest

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/energy"
	"repro/internal/fixed"
	"repro/internal/mcu"
)

// Options configures a campaign.
type Options struct {
	// ExhaustiveLimit is the largest golden op count for which every single
	// boundary is swept; above it the sweep stratifies MaxBoundaries random
	// samples (one per equal-width stratum, so coverage stays uniform).
	ExhaustiveLimit int
	// MaxBoundaries bounds the sampled sweep size.
	MaxBoundaries int
	// Seed drives the sampling RNG; exhaustive sweeps ignore it.
	Seed uint64
	// CheckWAR arms the device's write-after-read shadow tracker on every
	// run, including the golden one.
	CheckWAR bool
	// Workers is the sweep parallelism (defaults to GOMAXPROCS). Each
	// worker's check holds its own fork slot (a pooled device rewound to
	// the post-deploy image) for the whole run, so concurrent checks share
	// no mutable device state.
	Workers int
	// SnapStride is the op stride of the golden run's snapshot train
	// (<= 0 selects mcu.DefaultSnapStride). Denser trains shorten per-fork
	// replay at the cost of recording more pages.
	SnapStride int
	// forceScratch pins the from-scratch reference path: no journal is
	// recorded and every Check simulates the whole run. Only the fork
	// oracle and the sparse campaign's fused-golden sweep set it, to prove
	// both paths bit-identical.
	forceScratch bool
}

func (o Options) withDefaults() Options {
	if o.ExhaustiveLimit <= 0 {
		// Snapshot-and-fork serves each boundary in O(suffix), so the
		// default exhaustive budget is 4x what full re-simulation afforded.
		o.ExhaustiveLimit = 200000
	}
	if o.MaxBoundaries <= 0 {
		o.MaxBoundaries = 512
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Mismatch records one differential check failure: the first diverging
// logit of a faulted run.
type Mismatch struct {
	Boundary  int // failing schedule position (ops before brown-out)
	Logit     int // first differing logit index
	Got, Want fixed.Q15
	GotPred   int
	WantPred  int
}

func (m Mismatch) String() string {
	return fmt.Sprintf("boundary %d: logit[%d]=%d want %d (pred %d want %d)",
		m.Boundary, m.Logit, m.Got, m.Want, m.GotPred, m.WantPred)
}

// RuntimeReport is one runtime's campaign outcome.
type RuntimeReport struct {
	Runtime    string
	TotalOps   int64 // golden continuous-power op count
	Exhaustive bool  // every boundary in [1, TotalOps] swept
	Swept      int   // boundaries actually run
	GoldenPred int   // predicted class under continuous power
	GoldenWAR  int   // WAR violations in the golden run itself

	Mismatches []Mismatch
	DNC        []int    // boundaries that failed to complete
	Errors     []string // unexpected deploy/infer errors
	WARBounds  []int    // boundaries with ≥1 WAR violation
	WARSample  []mcu.WARViolation
}

// Clean reports whether the runtime survived the whole sweep: every faulted
// run completed, matched the golden logits, and (when checked) raised no
// WAR violation anywhere, golden run included.
func (r *RuntimeReport) Clean() bool {
	return len(r.Mismatches) == 0 && len(r.DNC) == 0 && len(r.Errors) == 0 &&
		len(r.WARBounds) == 0 && r.GoldenWAR == 0
}

// Summary renders the runtime's outcome as one line.
func (r *RuntimeReport) Summary() string {
	mode := "sampled"
	if r.Exhaustive {
		mode = "exhaustive"
	}
	verdict := "CLEAN"
	detail := ""
	if !r.Clean() {
		verdict = "UNSAFE"
		if len(r.Mismatches) > 0 {
			detail += fmt.Sprintf(" first-mismatch@%d", r.Mismatches[0].Boundary)
		}
		if n := len(r.WARBounds); n > 0 {
			detail += fmt.Sprintf(" war@%d-boundaries", n)
		}
		if r.GoldenWAR > 0 {
			detail += fmt.Sprintf(" golden-war=%d", r.GoldenWAR)
		}
	}
	return fmt.Sprintf("%-12s ops=%-6d swept=%-5d (%s) mismatch=%-4d dnc=%-3d err=%-3d %s%s",
		r.Runtime, r.TotalOps, r.Swept, mode, len(r.Mismatches), len(r.DNC),
		len(r.Errors), verdict, detail)
}

// Report is a whole campaign's outcome.
type Report struct {
	Seed     uint64
	Runtimes []*RuntimeReport
}

// String renders one summary line per runtime.
func (r *Report) String() string {
	var b strings.Builder
	for _, rr := range r.Runtimes {
		b.WriteString(rr.Summary())
		b.WriteByte('\n')
	}
	return b.String()
}

// Checker holds one runtime's golden result and checks failure schedules
// against it. It is safe for concurrent Check calls.
//
// The golden run doubles as the recording run for snapshot-and-fork
// checking: unless forceScratch is set, the golden device journals a
// snapshot train plus op-exact effect logs, and every subsequent Check
// whose first failure lands inside the recorded range restores the
// nearest snapshot and simulates only the suffix — bit-identical to a
// from-scratch run, as the fork oracle proves.
// The quantized input is computed once here and shared read-only by every
// worker; forked checks skip LoadInput entirely.
//
// Checks run on fork slots rather than fresh devices: a slot is a
// core.Slot deployed (and WAR-armed) once from the model's post-deploy
// template and rewound in place before every check, indistinguishable
// from a fresh deploy (TestPooledCheckMatchesFresh). The runtime is
// prepared once per slot (core.Runtime.Prepare) and kept there — the tile
// task runtime and graph, TAILS's LEA scratch, the SONIC drive loop — and
// resets that state itself at the start of each check
// (TestForkSlotKeepsRuntimeResident). Idle slots wait on a free list,
// which holds at most as many as Check ever ran concurrently.
type Checker struct {
	qm       *dnn.QuantModel
	qin      []fixed.Q15
	rt       core.Runtime
	name     string // rt.Name(), which may format, once
	checkWAR bool

	want      []fixed.Q15
	wantPred  int
	totalOps  int64
	maxRegion int64
	goldenWAR []mcu.WARViolation

	journal *mcu.Journal

	tmpl  *core.Template
	mu    sync.Mutex
	slots []*core.Slot // idle fork slots
}

// NewCheckerOpt runs the runtime once under continuous power and captures
// the golden logits, total op count, and (unless forceScratch is set) the
// fork journal. The golden run is per-runtime because accelerated runtimes
// (TAILS) compute bit-different but equally valid logits vs the software
// kernels. opt sets the campaign options (WAR checking, snapshot stride,
// sampling limits).
func NewCheckerOpt(qm *dnn.QuantModel, x []float64, rt core.Runtime, opt Options) (*Checker, error) {
	c := &Checker{qm: qm, qin: qm.QuantizeInput(x), rt: rt, name: rt.Name(), checkWAR: opt.CheckWAR}
	dev := mcu.New(energy.Continuous{})
	if opt.CheckWAR {
		dev.EnableWARCheck()
	}
	img, err := core.Deploy(dev, qm)
	if err != nil {
		return nil, fmt.Errorf("intermittest: golden deploy: %w", err)
	}
	var j *mcu.Journal
	if !opt.forceScratch {
		j = dev.StartJournal(opt.SnapStride)
	}
	want, err := rt.Infer(img, c.qin)
	if j != nil {
		dev.StopJournal()
	}
	if err != nil {
		return nil, fmt.Errorf("intermittest: golden %s run: %w", rt.Name(), err)
	}
	c.want = want
	c.wantPred = core.Argmax(want)
	for _, n := range dev.Stats().OpCount {
		c.totalOps += n
	}
	if j != nil && j.MaxOp() == c.totalOps {
		c.journal = j
	}
	c.maxRegion = dev.Stats().MaxRegionOps
	c.goldenWAR = dev.WARViolations()
	if c.tmpl, err = core.NewTemplate(qm); err != nil {
		return nil, fmt.Errorf("intermittest: fork template: %w", err)
	}
	return c, nil
}

// Forks reports whether Check serves single-prefix schedules from the
// golden journal (false when forceScratch pinned the from-scratch path,
// or the journal was too short to cover the golden run).
func (c *Checker) Forks() bool { return c.journal != nil }

// LiveGapFloor returns the smallest per-cycle op budget that guarantees
// this runtime commits at least one atomic region per charge cycle: twice
// the golden run's largest commit-to-commit region (the factor covers the
// post-reboot resume prefix) plus a fixed margin. Failure schedules whose
// gaps all meet the floor make "does not complete" a genuine liveness bug
// rather than an under-provisioned energy buffer — a tile-128 task simply
// needs more energy than a tiny capacitor holds (§2.1), and fuzzing must
// not report that physics as a defect.
func (c *Checker) LiveGapFloor() int {
	return int(2*c.maxRegion) + MinLiveGap
}

// AbsoluteGaps converts relative fuzzed budgets (from DecodeSchedule) into
// a schedule that satisfies the runtime's liveness floor.
func (c *Checker) AbsoluteGaps(rel []int) []int {
	floor := c.LiveGapFloor()
	gaps := make([]int, len(rel))
	for i, r := range rel {
		gaps[i] = floor + r
	}
	return gaps
}

// TotalOps returns the golden run's operation count — the number of
// distinct brown-out boundaries.
func (c *Checker) TotalOps() int64 { return c.totalOps }

// Golden returns the golden logits.
func (c *Checker) Golden() []fixed.Q15 { return c.want }

// GoldenWAR returns WAR violations seen in the golden run (a runtime that
// hazards even under continuous power, like the naive baseline, flags here).
func (c *Checker) GoldenWAR() []mcu.WARViolation { return c.goldenWAR }

// ScheduleResult is the outcome of one faulted run.
type ScheduleResult struct {
	Runtime  string
	Gaps     []int
	DNC      bool
	Err      error
	Mismatch *Mismatch
	WARCount int
	WAR      []mcu.WARViolation

	// Stats is the faulted device's final accounting, owned by the result
	// (mcu.Device.TakeStats) — identical between the forked and
	// from-scratch paths (the fork oracle's strongest check). It is nil
	// for sweep results served by equivalence-class dedup, which copies
	// verdicts rather than simulating.
	Stats *mcu.Stats
}

// Failing reports whether the schedule exposed a bug: a logit divergence, a
// WAR violation, an unexpected error, or a failure to complete. (Every
// FailSchedule ends in continuous power, so completion is always possible
// for a correct runtime.)
func (r *ScheduleResult) Failing() bool {
	return r.DNC || r.Err != nil || r.Mismatch != nil || r.WARCount > 0
}

func (r *ScheduleResult) String() string {
	switch {
	case r.Err != nil:
		return fmt.Sprintf("%s gaps=%v: error: %v", r.Runtime, r.Gaps, r.Err)
	case r.DNC:
		return fmt.Sprintf("%s gaps=%v: does not complete", r.Runtime, r.Gaps)
	case r.Mismatch != nil:
		return fmt.Sprintf("%s gaps=%v: %s (war=%d)", r.Runtime, r.Gaps, r.Mismatch, r.WARCount)
	case r.WARCount > 0:
		v := r.WAR[0]
		return fmt.Sprintf("%s gaps=%v: %d WAR violations, first %s[%d] in %s",
			r.Runtime, r.Gaps, r.WARCount, v.Region, v.Index, v.Layer)
	default:
		return fmt.Sprintf("%s gaps=%v: ok", r.Runtime, r.Gaps)
	}
}

// Check runs the runtime under the given brown-out schedule (ops before the
// k-th failure) on a fork slot rewound to the post-deploy image, with the
// runtime's resident state reset, and differentially checks the result.
//
// When the golden journal is available and the schedule's first failure
// lands inside the recorded run, the check forks: the device is restored
// to the recorded prefix at that boundary (first reboot included) and only
// the suffix — plus any later failures in the schedule — is simulated.
// Otherwise (no journal, forceScratch, or a first gap beyond the run) the
// whole schedule is simulated from scratch. Both paths are bit-identical.
func (c *Checker) Check(gaps []int) *ScheduleResult {
	power := energy.NewFailSchedule(gaps)
	sl, err := c.takeSlot(power)
	if err != nil {
		return &ScheduleResult{Runtime: c.name, Gaps: gaps, Err: err}
	}
	res := c.run(sl.Dev, sl.Img, sl.Run, gaps)
	c.mu.Lock()
	c.slots = append(c.slots, sl)
	c.mu.Unlock()
	return res
}

// takeSlot returns a fork slot provisioned with power: an idle one from
// the free list, or a newly deployed one when none is idle. A new slot
// keeps the runtime prepared on it, on a device bound to the kind of
// power its checks run under. A slot that fails to provision is dropped,
// and the error reported.
func (c *Checker) takeSlot(power energy.System) (*core.Slot, error) {
	c.mu.Lock()
	var sl *core.Slot
	if n := len(c.slots); n > 0 {
		sl = c.slots[n-1]
		c.slots = c.slots[:n-1]
	}
	c.mu.Unlock()
	if sl == nil {
		dev := mcu.New(power)
		if c.checkWAR {
			dev.EnableWARCheck()
		}
		var err error
		if sl, err = c.tmpl.NewSlot(dev, c.rt); err != nil {
			return nil, fmt.Errorf("intermittest: fork slot deploy: %w", err)
		}
	}
	if _, err := sl.Provision(power); err != nil {
		return nil, err
	}
	return sl, nil
}

// run is Check's body on dev, a device holding img in its post-deploy
// state with the schedule's power system bound and the runtime prepared
// on it as p. The result owns everything it carries, so dev may serve the
// next check at once.
func (c *Checker) run(dev *mcu.Device, img *core.Image, p core.Prepared, gaps []int) *ScheduleResult {
	res := &ScheduleResult{Runtime: c.name, Gaps: gaps}
	var got []fixed.Q15
	var err error
	var restore func() error
	if c.journal != nil && len(gaps) > 0 && gaps[0] >= 1 && int64(gaps[0]) <= c.totalOps {
		restore = func() error { return c.journal.RestorePrefix(dev, int64(gaps[0])) }
	}
	if restore != nil {
		got, err = p.ResumeInfer(restore)
	} else if err = img.LoadInput(c.qin); err == nil {
		got, err = p.ResumeInfer(nil)
	}
	// The result takes the device's Stats, which the slot's next check
	// would otherwise overwrite; the WAR records need no such care, since
	// Reprovision drops the device's slice rather than reusing it.
	o, err := core.Finish(dev, got, err)
	res.Stats, res.WARCount, res.WAR, res.DNC, res.Err = o.Stats, o.WARCount, o.WAR, o.DNC, err
	if err != nil || o.DNC {
		return res
	}
	boundary := 0
	if len(gaps) > 0 {
		boundary = gaps[0]
	}
	for i := range got {
		if got[i] != c.want[i] {
			res.Mismatch = &Mismatch{
				Boundary: boundary, Logit: i,
				Got: got[i], Want: c.want[i],
				GotPred: core.Argmax(got), WantPred: c.wantPred,
			}
			break
		}
	}
	return res
}

// Minimize greedily shrinks a failing schedule while it keeps failing:
// dropping whole failures, then rounding the surviving gaps down to the
// smallest value that still fails (binary search per gap), repeated to a
// fixpoint. The returned schedule is 1-minimal: removing any element, or
// decrementing any gap, yields a schedule that passes. Every probe goes
// through Check, so the binary searches reuse the golden snapshot train —
// each candidate costs only its suffix.
func (c *Checker) Minimize(gaps []int) []int {
	if !c.Check(gaps).Failing() {
		return gaps
	}
	cur := append([]int(nil), gaps...)
	for {
		prev := append([]int(nil), cur...)
		for changed := true; changed; {
			changed = false
			for i := 0; i < len(cur); i++ {
				cand := append(append([]int(nil), cur[:i]...), cur[i+1:]...)
				if c.Check(cand).Failing() {
					cur = cand
					changed = true
					i--
				}
			}
		}
		for i := range cur {
			lo, hi := 1, cur[i] // invariant: schedule with cur[i]=hi fails
			for lo < hi {
				mid := (lo + hi) / 2
				cand := append([]int(nil), cur...)
				cand[i] = mid
				if c.Check(cand).Failing() {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			cur[i] = hi
		}
		// Shrinking one gap can re-enable shrinking another; loop until a
		// whole cycle changes nothing, so the result is 1-minimal.
		if len(prev) == len(cur) {
			same := true
			for i := range cur {
				if cur[i] != prev[i] {
					same = false
					break
				}
			}
			if same {
				return cur
			}
		}
	}
}

// SweepRuntime runs the single-failure brown-out placement campaign for one
// runtime: golden run, boundary selection, then one faulted run per
// equivalence class of boundaries across Workers goroutines.
//
// With the golden journal available, boundaries are grouped into
// equivalence classes before any simulation: two boundaries whose prefixes
// end at the same last nonvolatile write (and the same WAR-event count)
// restore identical machine images, so their forked suffixes are
// op-for-op the same run. One representative per class is simulated; the
// other members' verdicts are copied, with WAR record positions rebased to
// their own boundary. Coverage is unchanged — every boundary still gets a
// verdict, it just isn't recomputed when it's provably identical.
func SweepRuntime(qm *dnn.QuantModel, x []float64, rt core.Runtime, opt Options) (*RuntimeReport, error) {
	opt = opt.withDefaults()
	c, err := NewCheckerOpt(qm, x, rt, opt)
	if err != nil {
		return nil, err
	}
	rep := &RuntimeReport{
		Runtime:    rt.Name(),
		TotalOps:   c.totalOps,
		GoldenPred: c.wantPred,
		GoldenWAR:  len(c.goldenWAR),
	}
	bounds, exhaustive := boundaries(c.totalOps, opt)
	rep.Exhaustive = exhaustive
	rep.Swept = len(bounds)

	repOf := c.classReps(bounds)

	// One gaps arena for the whole sweep: per-check []int{b} slices are
	// carved from it instead of allocated in the worker loop.
	gapsArena := make([]int, len(bounds))
	for i, b := range bounds {
		gapsArena[i] = b
	}

	results := make([]*ScheduleResult, len(bounds))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = c.Check(gapsArena[i : i+1 : i+1])
			}
		}()
	}
	for i := range bounds {
		if repOf[i] == i {
			next <- i
		}
	}
	close(next)
	wg.Wait()

	// Fill the non-representative members from their class results.
	for i := range bounds {
		if repOf[i] != i {
			results[i] = c.cloneResult(results[repOf[i]], bounds[repOf[i]], gapsArena[i:i+1:i+1])
		}
	}

	for i, r := range results {
		b := bounds[i]
		switch {
		case r.Err != nil:
			rep.Errors = append(rep.Errors, fmt.Sprintf("boundary %d: %v", b, r.Err))
		case r.DNC:
			rep.DNC = append(rep.DNC, b)
		case r.Mismatch != nil:
			rep.Mismatches = append(rep.Mismatches, *r.Mismatch)
		}
		if r.WARCount > 0 {
			rep.WARBounds = append(rep.WARBounds, b)
			if len(rep.WARSample) == 0 {
				rep.WARSample = r.WAR
			}
		}
	}
	return rep, nil
}

// classReps groups the sorted boundaries into equivalence classes and
// returns, per boundary, the index into bounds of its class's
// representative (itself when there is no journal, or when it leads its
// class). Two boundaries whose prefixes end at the same last nonvolatile
// write and the same WAR count restore identical machine images.
func (c *Checker) classReps(bounds []int) []int {
	repOf := make([]int, len(bounds))
	for i := range repOf {
		repOf[i] = i
	}
	if c.journal == nil {
		return repOf
	}
	type classKey struct {
		lastWrite int64
		warCount  int
	}
	seen := make(map[classKey]int, len(bounds))
	for i, b := range bounds {
		k := classKey{lastWrite: c.journal.LastFRAMWriteAtOrBefore(int64(b) - 1)}
		if c.checkWAR {
			k.warCount = c.journal.WARCount(int64(b))
		}
		if first, ok := seen[k]; ok {
			repOf[i] = first
		} else {
			seen[k] = i
		}
	}
	return repOf
}

// cloneResult derives boundary b's verdict from its class representative's
// without simulating. Both forks restore the identical machine image (same
// last nonvolatile write, same WAR prefix) and run the identical suffix, so
// everything except op positions carries over: the Mismatch gets b as its
// boundary, the WAR count and records get the prefix recomputed for b with
// the representative's suffix events shifted by the boundary offset —
// exactly what a real fork at b would record. Stats stay nil: per-section
// op attribution depends on the prefix and is not needed for verdicts.
func (c *Checker) cloneResult(rep *ScheduleResult, repB int, gaps []int) *ScheduleResult {
	b := gaps[0]
	res := &ScheduleResult{Runtime: rep.Runtime, Gaps: gaps, DNC: rep.DNC, Err: rep.Err}
	if rep.Mismatch != nil {
		m := *rep.Mismatch
		m.Boundary = b
		res.Mismatch = &m
	}
	if c.checkWAR {
		prefB, keptB := c.journal.WARPrefix(int64(b))
		res.WARCount = prefB + (rep.WARCount - c.journal.WARCount(int64(repB)))
		war := keptB
		shift := int64(b - repB)
		for _, v := range rep.WAR {
			if v.Op < int64(repB) {
				continue // representative's own prefix records, superseded by keptB
			}
			if len(war) >= mcu.WARMaxKeep {
				break
			}
			v.Op += shift
			war = append(war, v)
		}
		res.WAR = war
	}
	return res
}

// Campaign sweeps every runtime and collects the per-runtime reports.
func Campaign(qm *dnn.QuantModel, x []float64, rts []core.Runtime, opt Options) (*Report, error) {
	rep := &Report{Seed: opt.Seed}
	for _, rt := range rts {
		rr, err := SweepRuntime(qm, x, rt, opt)
		if err != nil {
			return nil, err
		}
		rep.Runtimes = append(rep.Runtimes, rr)
	}
	return rep, nil
}

// boundaries selects the swept brown-out placements: every op boundary when
// the run is small enough, otherwise one seeded random sample from each of
// MaxBoundaries equal-width strata so coverage stays uniform end to end.
func boundaries(total int64, opt Options) ([]int, bool) {
	if total <= int64(opt.ExhaustiveLimit) {
		b := make([]int, total)
		for i := range b {
			b[i] = i + 1
		}
		return b, true
	}
	rng := rand.New(rand.NewPCG(opt.Seed, mix(opt.Seed)))
	n := opt.MaxBoundaries
	b := make([]int, 0, n)
	for k := 0; k < n; k++ {
		lo := total*int64(k)/int64(n) + 1
		hi := total * int64(k+1) / int64(n)
		if hi < lo {
			continue
		}
		b = append(b, int(lo+rng.Int64N(hi-lo+1)))
	}
	sort.Ints(b)
	return b, false
}
