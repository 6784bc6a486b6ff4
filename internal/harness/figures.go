package harness

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/baseline"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/energy"
	"repro/internal/genesis"
	"repro/internal/imodel"
	"repro/internal/mcu"
	"repro/internal/sonic"
	"repro/internal/svm"
	"repro/internal/tails"
)

// Fig1 regenerates Fig. 1: IMpJ versus inference accuracy in the wildlife
// monitoring case study, communicating the full sensor reading.
func Fig1(points int) *Table {
	return impjSweep(points, false,
		"Fig 1: IMpJ vs accuracy, sending full image (wildlife monitoring)")
}

// Fig2 regenerates Fig. 2: the same sweep when only the inference result is
// communicated (Ecomm reduced 98x).
func Fig2(points int) *Table {
	return impjSweep(points, true,
		"Fig 2: IMpJ vs accuracy, sending only the inference result")
}

func impjSweep(points int, resultOnly bool, title string) *Table {
	t := &Table{Title: title,
		Header: []string{"accuracy", "always-send", "ideal", "naive-inference", "sonic-tails"}}
	base := imodel.WildlifeDefaults()
	commBase := base
	if resultOnly {
		base.EComm /= imodel.ResultOnlyCommFactor
	}
	for i := 0; i <= points; i++ {
		a := float64(i) / float64(points)
		naive := base
		naive.TP, naive.TN, naive.EInfer = a, a, imodel.EInferNaive
		st := base
		st.TP, st.TN, st.EInfer = a, a, imodel.EInferSONICTAILS
		// "Always send" pays full communication regardless of the scheme.
		t.AddRow(a, imodel.Baseline(commBase)*1e3, imodel.Ideal(base)*1e3,
			imodel.Inference(naive)*1e3, imodel.Inference(st)*1e3)
	}
	t.Note = "IMpJ in interesting messages per kilojoule (x1000), as in the paper's axes."
	return t
}

// Table1 renders the parameter glossary of the application model.
func Table1() *Table {
	t := &Table{Title: "Table 1: application model parameters",
		Header: []string{"parameter", "description", "wildlife value"}}
	w := imodel.WildlifeDefaults()
	t.AddRow("p", "base rate of interesting events", w.P)
	t.AddRow("tp", "true positive rate of inference", "swept")
	t.AddRow("tn", "true negative rate of inference", "swept")
	t.AddRow("Esense", "energy per sensor reading (J)", w.ESense)
	t.AddRow("Ecomm", "energy per communicated reading (J)", w.EComm)
	t.AddRow("Einfer", "energy per inference (J)", "measured per config")
	return t
}

// Table2 renders the per-network summary of the GENESIS-chosen
// configurations: layer inventory, compression, and accuracy.
func Table2(prepared []*Prepared) *Table {
	t := &Table{Title: "Table 2: networks and chosen compression",
		Header: []string{"network", "layer", "geometry", "weight-bytes", "technique", "accuracy", "compression"}}
	for _, p := range prepared {
		if p.Report == nil {
			continue
		}
		if n := erroredConfigs(p.Report.Results); n > 0 {
			if t.Note != "" {
				t.Note += "\n"
			}
			t.Note += fmt.Sprintf("%s: %d configuration(s) failed to evaluate (see Fig 4 for details)", p.Net, n)
		}
		chosen := p.Report.ChosenResult()
		uncompressed := p.Report.Results[0]
		ratio := float64(uncompressed.ParamBytes) / float64(chosen.ParamBytes)
		first := true
		for i := range p.Model.Layers {
			ql := &p.Model.Layers[i]
			var geom string
			switch ql.Kind {
			case dnn.QConv:
				geom = fmt.Sprintf("%dx%dx%dx%d", ql.F, ql.C, ql.KH, ql.KW)
				if ql.NZ != nil {
					geom += fmt.Sprintf(" (%d nz)", len(ql.NZ))
				}
			case dnn.QDense, dnn.QSparseDense:
				geom = fmt.Sprintf("%dx%d", ql.Out, ql.In)
				if ql.Kind == dnn.QSparseDense {
					geom += fmt.Sprintf(" (%d nz)", len(ql.W))
				}
			default:
				continue
			}
			acc, comp := "", ""
			if first {
				acc = fmt.Sprintf("%.1f%%", chosen.Accuracy*100)
				comp = fmt.Sprintf("%.1fx (%s)", ratio, chosen.Config.Name())
				first = false
			}
			t.AddRow(p.Net, ql.Kind.String(), geom, ql.WeightWords()*2, chosen.Config.Name(), acc, comp)
		}
	}
	return t
}

// erroredConfigs counts sweep results that failed to evaluate.
func erroredConfigs(results []genesis.Result) int {
	n := 0
	for i := range results {
		if results[i].Err != "" {
			n++
		}
	}
	return n
}

// Fig4 renders the accuracy-versus-MACs exploration for one network,
// marking feasibility and Pareto-front membership per technique family.
func Fig4(p *Prepared) *Table {
	t := &Table{Title: fmt.Sprintf("Fig 4 (%s): accuracy vs MAC ops", p.Net),
		Header: []string{"config", "technique", "MACs", "accuracy", "feasible", "pareto"}}
	res := p.Report.Results
	inFront := func(front []int, i int) bool {
		for _, f := range front {
			if f == i {
				return true
			}
		}
		return false
	}
	fronts := map[string][]int{
		"prune":    genesis.ParetoFront(res, genesis.ByTechnique(res, genesis.TechPrune)),
		"separate": genesis.ParetoFront(res, genesis.ByTechnique(res, genesis.TechSeparate)),
		"both":     genesis.ParetoFront(res, genesis.ByTechnique(res, genesis.TechPrune, genesis.TechSeparate, genesis.TechBoth)),
	}
	for i := range res {
		r := &res[i]
		if r.Err != "" {
			// Failed configs would otherwise render as fake 0-MAC,
			// 0-accuracy rows; show the failure instead.
			t.AddRow(r.Config.Name(), string(r.Config.Technique), "-", "-",
				"error", r.Err)
			continue
		}
		mark := ""
		for name, front := range fronts {
			if inFront(front, i) {
				if mark != "" {
					mark += "+"
				}
				mark += name
			}
		}
		t.AddRow(r.Config.Name(), string(r.Config.Technique), r.MACs,
			r.Accuracy, fmt.Sprint(r.Feasible), mark)
	}
	return t
}

// Fig5 renders the IMpJ-versus-inference-energy view of the same sweep and
// marks GENESIS's chosen configuration.
func Fig5(p *Prepared) *Table {
	t := &Table{Title: fmt.Sprintf("Fig 5 (%s): IMpJ vs energy per inference", p.Net),
		Header: []string{"config", "Einfer-mJ", "tp", "tn", "IMpJ", "feasible", "chosen"}}
	for i := range p.Report.Results {
		r := &p.Report.Results[i]
		if r.Err != "" {
			t.AddRow(r.Config.Name(), "-", "-", "-", "-", "error", r.Err)
			continue
		}
		chosen := ""
		if i == p.Report.Chosen {
			chosen = "<== chosen"
		}
		t.AddRow(r.Config.Name(), r.EInferJ*1e3, r.TP, r.TN, r.IMpJ,
			fmt.Sprint(r.Feasible), chosen)
	}
	return t
}

// Eval holds every measured (net, runtime, power) cell.
type Eval struct {
	Prepared []*Prepared
	Results  []RunResult

	index map[cellKey]int // lazily built by Find
}

type cellKey struct{ net, rt, power string }

// RunAll measures every runtime on every power system for every prepared
// network, wasted-work aggregates included (from each device's Stats; no
// tracer is attached). Cells are independent simulated devices, so they
// run in parallel; results keep a deterministic order.
func RunAll(prepared []*Prepared) (*Eval, error) {
	type cell struct {
		p  *Prepared
		rt core.Runtime
		pw PowerSpec
	}
	var cells []cell
	for _, p := range prepared {
		for _, rt := range Runtimes() {
			for _, pw := range Powers() {
				cells = append(cells, cell{p, rt, pw})
			}
		}
	}
	ev := &Eval{Prepared: prepared}
	ev.Results = make([]RunResult, len(cells))
	errs := make([]error, len(cells))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, c := range cells {
		wg.Add(1)
		go func(i int, c cell) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			input := c.p.Model.QuantizeInput(c.p.Input)
			ev.Results[i], _, errs[i] = measure(c.p.Net, c.p.Model, c.rt, c.pw.Make(), c.pw.Name, input, nil)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ev, nil
}

// Find returns the cell for (net, runtime, power), or nil. The lookup
// index is built on first use; figures call Find once per rendered row,
// so the linear scan it replaces was quadratic in the result count.
func (ev *Eval) Find(net, rt, power string) *RunResult {
	if ev.index == nil {
		ev.index = make(map[cellKey]int, len(ev.Results))
		for i := range ev.Results {
			r := &ev.Results[i]
			ev.index[cellKey{r.Net, r.Runtime, r.Power}] = i
		}
	}
	i, ok := ev.index[cellKey{net, rt, power}]
	if !ok {
		return nil
	}
	return &ev.Results[i]
}

// Fig9 renders inference time for every implementation: continuous power
// (9a), the 100 µF system (9b), and the full power-system sweep (9c).
func Fig9(ev *Eval) *Table {
	t := &Table{Title: "Fig 9: inference time (s) by implementation and power system",
		Header: []string{"network", "runtime", "power", "status", "live-s", "steady-s", "reboots", "energy-mJ", "wasted-uJ/cycle"}}
	t.Note = "steady-s amortizes recharge time (energy / harvest power); DNC = does not complete;\n" +
		"wasted-uJ/cycle is the mean re-executed energy per charge cycle."
	for _, r := range ev.Results {
		status := "ok"
		if !r.Completed {
			status = "DNC"
		}
		wasted := 0.0
		if r.Reboots > 0 {
			wasted = r.WastedEnergyNJ / float64(r.Reboots) / 1e3
		}
		t.AddRow(r.Net, r.Runtime, r.Power, status, r.LiveSec, r.SteadySec, r.Reboots, r.EnergyMJ, wasted)
	}
	return t
}

// Fig10 renders the kernel/control/transition split per layer on continuous
// power for the implementations the paper shows (Base, Tile-32, SONIC,
// TAILS).
func Fig10(ev *Eval) *Table {
	t := &Table{Title: "Fig 10: kernel vs control energy per layer (continuous power)",
		Header: []string{"network", "runtime", "layer", "kernel-uJ", "control-uJ", "transition-uJ"}}
	for _, net := range Networks() {
		for _, rt := range []string{"base", "tile-32", "sonic", "tails"} {
			r := ev.Find(net, rt, "cont")
			if r == nil {
				continue
			}
			agg, layers := LayerSections(*r)
			for _, layer := range layers {
				if layer == "boot" {
					continue
				}
				m := agg[layer]
				t.AddRow(net, rt, layer,
					m[mcu.PhaseKernel]/1e3, m[mcu.PhaseControl]/1e3, m[mcu.PhaseTransition]/1e3)
			}
		}
	}
	return t
}

// Fig11 renders energy per inference on the 1 mF power system.
func Fig11(ev *Eval) *Table {
	t := &Table{Title: "Fig 11: inference energy (mJ) with 1 mF capacitor",
		Header: []string{"network", "runtime", "status", "energy-mJ"}}
	for _, net := range Networks() {
		for _, rt := range Runtimes() {
			r := ev.Find(net, rt.Name(), "1mF")
			if r == nil {
				continue
			}
			status := "ok"
			if !r.Completed {
				status = "DNC"
			}
			t.AddRow(net, rt.Name(), status, r.EnergyMJ)
		}
	}
	return t
}

// Fig12 renders SONIC's energy broken down by operation class and layer.
func Fig12(ev *Eval) *Table {
	t := &Table{Title: "Fig 12: SONIC energy by operation class and layer (uJ)",
		Header: []string{"network", "layer", "op", "energy-uJ", "share"}}
	for _, net := range Networks() {
		r := ev.Find(net, "sonic", "cont")
		if r == nil {
			continue
		}
		total := 0.0
		for sec, st := range r.Sections {
			if sec.Layer == "boot" {
				continue
			}
			total += st.EnergyNJ()
		}
		agg := map[string]map[mcu.OpKind]float64{}
		for sec, st := range r.Sections {
			if sec.Layer == "boot" {
				continue
			}
			m := agg[sec.Layer]
			if m == nil {
				m = map[mcu.OpKind]float64{}
				agg[sec.Layer] = m
			}
			for op := mcu.OpKind(0); op < mcu.NumOps; op++ {
				m[op] += st.OpEnergyNJ(op)
			}
		}
		for _, layer := range []string{"conv1", "conv2", "conv3", "fc", "other"} {
			m, ok := agg[layer]
			if !ok {
				continue
			}
			for op := mcu.OpKind(0); op < mcu.NumOps; op++ {
				if m[op] <= 0 {
					continue
				}
				t.AddRow(net, layer, op.String(), m[op]/1e3, fmt.Sprintf("%.1f%%", 100*m[op]/total))
			}
		}
	}
	return t
}

// Fig6 regenerates the illustrative tiling-vs-loop-continuation microbench:
// a task-shared accumulation loop of n iterations executed under a fixed
// per-charge operation budget. It reports completion and total iteration
// executions (re-executed work shows up as executions > n).
func Fig6(n, budget int) *Table {
	t := &Table{Title: "Fig 6: dot-product loop under tiling vs loop continuation",
		Header: []string{"scheme", "status", "iterations-executed", "wasted", "reboots"}}
	t.Note = fmt.Sprintf("loop of %d iterations; power fails every %d operations", n, budget)

	runTile := func(tileSize int) {
		dev := mcu.New(energy.NewFailAfterOps(budget, budget))
		executed := 0
		cursor := dev.FRAM.MustAlloc("i", 1, 2)
		acc := dev.FRAM.MustAlloc("acc", 1, 4)
		log := dev.FRAM.MustAlloc("log", 2, 4)
		err := dev.Run(func() {
			for {
				base := int(dev.Load(cursor, 0))
				if base >= n {
					return
				}
				end := base + tileSize
				if end > n {
					end = n
				}
				// Tile body: a[i] += b[i]*c with redo-logged accumulator.
				v := dev.Load(acc, 0)
				for i := base; i < end; i++ {
					executed++
					dev.Op(mcu.OpBranch)
					dev.Op(mcu.OpLoadFRAM) // b[i]
					dev.Op(mcu.OpFixedMul)
					dev.Op(mcu.OpPrivatize)
					v += int64(i)
					dev.Store(log, 0, v) // buffered write
				}
				// Commit phase.
				dev.Store(acc, 0, dev.Load(log, 0))
				dev.Store(cursor, 0, int64(end))
				dev.Op(mcu.OpDispatch)
				dev.Progress()
			}
		})
		status := "ok"
		if err != nil {
			status = "DNC"
		}
		t.AddRow(fmt.Sprintf("tile-%d", tileSize), status, executed, executed-int(cursor.Get(0)), dev.Stats().Reboots)
	}
	runSONIC := func() {
		dev := mcu.New(energy.NewFailAfterOps(budget, budget))
		executed := 0
		cursor := dev.FRAM.MustAlloc("i", 1, 2)
		acc := dev.FRAM.MustAlloc("acc", 2, 4) // double-buffered partial
		err := dev.Run(func() {
			for {
				i := int(dev.Load(cursor, 0))
				if i >= n {
					return
				}
				executed++
				dev.Op(mcu.OpBranch)
				dev.Op(mcu.OpLoadFRAM) // b[i]
				dev.Op(mcu.OpFixedMul)
				prev := dev.Load(acc, (i+1)&1)
				dev.Store(acc, i&1, prev+int64(i))
				dev.Store(cursor, 0, int64(i+1))
				dev.Progress()
			}
		})
		status := "ok"
		if err != nil {
			status = "DNC"
		}
		t.AddRow("sonic", status, executed, executed-int(cursor.Get(0)), dev.Stats().Reboots)
	}
	runTile(5)
	runTile(12)
	runSONIC()
	return t
}

// Claims computes the §9.1 headline ratios from the measured cells:
// geometric-mean slowdowns/speedups across networks on continuous power,
// and the LEA/DMA ablation on the first network.
func Claims(ev *Eval) *Table {
	t := &Table{Title: "Headline claims (geometric means across networks, continuous power)",
		Header: []string{"claim", "paper", "measured"}}
	gmeanRatio := func(num, den string) float64 {
		prod, n := 1.0, 0
		for _, net := range Networks() {
			a := ev.Find(net, num, "cont")
			b := ev.Find(net, den, "cont")
			if a == nil || b == nil || !a.Completed || !b.Completed {
				continue
			}
			prod *= a.EnergyMJ / b.EnergyMJ
			n++
		}
		if n == 0 {
			return math.NaN()
		}
		return math.Pow(prod, 1/float64(n))
	}
	t.AddRow("tile-8 vs base (slowdown)", "13.4x", fmt.Sprintf("%.1fx", gmeanRatio("tile-8", "base")))
	t.AddRow("sonic vs base (slowdown)", "1.45x", fmt.Sprintf("%.2fx", gmeanRatio("sonic", "base")))
	t.AddRow("tails vs base", "0.83x (1.2x faster)", fmt.Sprintf("%.2fx", gmeanRatio("tails", "base")))
	t.AddRow("sonic improvement vs tile-8", "6.9x", fmt.Sprintf("%.1fx", gmeanRatio("tile-8", "sonic")))
	t.AddRow("tails improvement vs tile-8", "12.2x", fmt.Sprintf("%.1fx", gmeanRatio("tile-8", "tails")))
	t.AddRow("sonic vs tile-128", "5.2x", fmt.Sprintf("%.1fx", gmeanRatio("tile-128", "sonic")))
	return t
}

// Extensions measures the two beyond-the-evaluation reproductions: the §2
// checkpointing-baseline comparison and the §10 just-in-time
// index-checkpoint architecture estimate.
func Extensions(p *Prepared) (*Table, error) {
	powers := Powers()
	cont, uf100 := powers[0], powers[3]
	rows := []extRow{
		{sonic.SONIC{}, cont, false},
		{checkpoint.Checkpoint{Interval: 4}, cont, false},
		{checkpoint.Checkpoint{Interval: 64}, cont, false},
		{sonic.SONIC{}, uf100, false},
		{checkpoint.Checkpoint{Interval: 64}, uf100, false},
		{sonic.SONIC{}, cont, true},
		{sonic.SONIC{SparseViaBuffering: true}, cont, false},
	}
	return extensionsTable(p, cont, rows)
}

// extRow is one (runtime, power, jit-architecture) cell of the Extensions
// table.
type extRow struct {
	rt  core.Runtime
	pw  PowerSpec
	jit bool
}

// extensionsTable renders the Extensions rows against a sonic-on-golden
// reference. A row whose runtime cannot complete on its power system — the
// checkpoint-64 @ 100 µF configuration dumps more state per checkpoint than
// the capacitor funds — renders as "DNC" and the table keeps going, like
// Fig 9/11 do; only unexpected errors abort.
func extensionsTable(p *Prepared, golden PowerSpec, rows []extRow) (*Table, error) {
	t := &Table{Title: fmt.Sprintf("Extensions (%s): checkpointing baseline and §10 architecture", p.Net),
		Header: []string{"system", "power", "energy-mJ", "vs sonic"}}
	input := p.Model.QuantizeInput(p.Input)
	measure := func(rt core.Runtime, pw PowerSpec, jit bool) (e float64, completed bool, err error) {
		dev := mcu.New(pw.Make())
		dev.JITIndexCheckpoint = jit
		img, err := core.Deploy(dev, p.Model)
		if err != nil {
			return 0, false, err
		}
		logits, ierr := rt.Infer(img, input)
		o, err := core.Finish(dev, logits, ierr)
		if err != nil || o.DNC {
			return 0, false, err
		}
		return o.Stats.EnergyMJ(), true, nil
	}
	sonicCont, sonicOK, err := measure(sonic.SONIC{}, golden, false)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		name := r.rt.Name()
		if r.jit {
			name += "+jit-arch"
		}
		e, ok, err := measure(r.rt, r.pw, r.jit)
		if err != nil {
			return nil, err
		}
		if !ok {
			t.AddRow(name, r.pw.Name, "DNC", "-")
			continue
		}
		ratio := "-"
		if sonicOK && sonicCont > 0 {
			ratio = fmt.Sprintf("%.2fx", e/sonicCont)
		}
		t.AddRow(name, r.pw.Name, e, ratio)
	}
	return t, nil
}

// Ablation measures the LEA and DMA contributions (§9.1) for one prepared
// network.
func Ablation(p *Prepared) (*Table, error) {
	return AblationModel(p.Net, p.Model, p.Input)
}

// AblationModel is Ablation over an explicit model and input.
func AblationModel(name string, qm *dnn.QuantModel, x []float64) (*Table, error) {
	t := &Table{Title: fmt.Sprintf("TAILS ablation (%s): software-emulated LEA and DMA", name),
		Header: []string{"variant", "energy-mJ", "vs tails"}}
	input := qm.QuantizeInput(x)
	cont := Powers()[0]
	variants := []core.Runtime{
		tails.TAILS{},
		tails.TAILS{SoftwareLEA: true},
		tails.TAILS{SoftwareDMA: true},
		tails.TAILS{SoftwareLEA: true, SoftwareDMA: true},
		sonic.SONIC{},
		baseline.Base{},
	}
	var ref float64
	for i, rt := range variants {
		res, err := Measure(name, qm, rt, cont, input)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			ref = res.EnergyMJ
		}
		t.AddRow(rt.Name(), res.EnergyMJ, fmt.Sprintf("%.2fx", res.EnergyMJ/ref))
	}
	return t, nil
}

// Fig9Layers renders the per-layer live-time composition of Fig. 9a:
// where each implementation's live seconds go, on continuous power.
func Fig9Layers(ev *Eval) *Table {
	t := &Table{Title: "Fig 9a detail: live time by layer (s, continuous power)",
		Header: []string{"network", "runtime", "layer", "live-s", "share"}}
	for _, net := range Networks() {
		for _, rt := range Runtimes() {
			r := ev.Find(net, rt.Name(), "cont")
			if r == nil || !r.Completed {
				continue
			}
			agg := map[string]int64{}
			var total int64
			for sec, st := range r.Sections {
				if sec.Layer == "boot" {
					continue
				}
				agg[sec.Layer] += st.Cycles
				total += st.Cycles
			}
			for _, layer := range []string{"conv1", "conv2", "conv3", "fc", "other"} {
				cyc, ok := agg[layer]
				if !ok {
					continue
				}
				t.AddRow(net, rt.Name(), layer, float64(cyc)/r.ClockHz,
					fmt.Sprintf("%.0f%%", 100*float64(cyc)/float64(total)))
			}
		}
	}
	return t
}

// SVMComparison reproduces §5.1: a feasible linear SVM scored against the
// GENESIS-chosen DNN with the same IMpJ model ("no SVM model that fit on
// the device was competitive with the DNN models").
func SVMComparison(p *Prepared, seed uint64) (*Table, error) {
	t := &Table{Title: fmt.Sprintf("SVM vs DNN (%s), per §5.1", p.Net),
		Header: []string{"model", "accuracy", "weight-bytes", "Einfer-mJ", "IMpJ"}}
	ds, err := dnn.DatasetFor(p.Net, seed, 600, 150)
	if err != nil {
		return nil, err
	}
	svmNet, svmAcc, err := svm.Train(ds, svm.DefaultConfig())
	if err != nil {
		return nil, err
	}
	qm, err := dnn.Quantize(svmNet, [][]float64{ds.Train[0].X, ds.Train[1].X})
	if err != nil {
		return nil, err
	}
	svmIMpJ, svmE, err := scoreModel(qm, svmAcc, ds.Test[0].X)
	if err != nil {
		return nil, fmt.Errorf("harness: score svm: %w", err)
	}
	dnnAcc := 0.0
	if p.Report != nil {
		dnnAcc = p.Report.ChosenResult().Accuracy
	}
	dnnIMpJ, dnnE, err := scoreModel(p.Model, dnnAcc, ds.Test[0].X)
	if err != nil {
		return nil, fmt.Errorf("harness: score dnn: %w", err)
	}
	t.AddRow("linear-svm", svmAcc, qm.WeightWords()*2, svmE*1e3, svmIMpJ)
	t.AddRow("dnn (chosen)", dnnAcc, p.Model.WeightWords()*2, dnnE*1e3, dnnIMpJ)
	t.Note = fmt.Sprintf("DNN/SVM IMpJ = %.2fx (paper: SVM underperforms by 2x on MNIST, 8x on HAR)",
		dnnIMpJ/svmIMpJ)
	return t, nil
}

// scoreModel deploys m on a fresh continuously-powered device, runs one
// TAILS inference on input x, and folds the measured inference energy into
// the §5.1 application model. Deploy and inference failures propagate:
// silently scoring an undeployable model as 0 IMpJ / 0 J made the §5.1
// comparison print a nonsense 0-energy row instead of failing loudly.
func scoreModel(m *dnn.QuantModel, acc float64, x []float64) (impj, einferJ float64, err error) {
	dev := mcu.New(energy.Continuous{})
	img, err := core.Deploy(dev, m)
	if err != nil {
		return 0, 0, err
	}
	defer img.Release()
	if _, err := (tails.TAILS{}).Infer(img, m.QuantizeInput(x)); err != nil {
		return 0, 0, err
	}
	eInfer := dev.Stats().EnergyNJ() * 1e-9
	app := imodel.WildlifeDefaults()
	app.EComm /= imodel.ResultOnlyCommFactor
	app.TP, app.TN, app.EInfer = acc, acc, eInfer
	return imodel.Inference(app), eInfer, nil
}
