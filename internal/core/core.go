// Package core defines the deployable model image — a quantized network
// placed into the device's FRAM — and the runtime interface that the
// inference implementations (the naive baseline, the task-tiled Alpaca
// baselines, SONIC, and TAILS) share.
//
// Deployment is the analog of flashing the device: weights, sparse index
// structures, activation buffers, and partial-accumulation buffers are all
// allocated in non-volatile memory at deploy time, before intermittent
// execution begins. The FRAM capacity check at deploy time is the
// feasibility constraint GENESIS optimizes under.
package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/dnn"
	"repro/internal/fixed"
	"repro/internal/mcu"
	"repro/internal/mem"
)

// LayerImage is one layer's in-FRAM representation.
type LayerImage struct {
	Q *dnn.QuantLayer

	W      *mem.Region // dense weights or CSR values (Q15, 2B elems)
	B      *mem.Region // biases (Q15, 2B elems)
	NZ     *mem.Region // nonzero flat indices for pruned conv (2B elems)
	Cols   *mem.Region // CSR column indices (2B elems)
	RowPtr *mem.Region // CSR row pointers (2B elems)

	// FinPar (pruned convs only) holds, per filter, the double-buffer
	// parity of the filter's last nonzero element, or -1 for filters whose
	// weights were pruned entirely (their outputs are bias-only). SONIC's
	// finalize pass reads it to locate each filter's final partials. It is
	// computed at deploy time, like a compiler-emitted table.
	FinPar *mem.Region
}

// Image is a deployed model: weights in FRAM plus the shared working
// buffers every runtime uses.
type Image struct {
	Model *dnn.QuantModel
	Dev   *mcu.Device

	Layers []LayerImage

	// ActA/ActB are ping-pong Q15 activation buffers sized to the largest
	// activation volume; layer L reads from one and its finalize pass
	// writes into the other.
	ActA, ActB *mem.Region

	// AccA/AccB are double-buffered wide partial accumulators (modelled as
	// 32-bit) used by loop-ordered buffering within conv and dense layers.
	AccA, AccB *mem.Region

	// Ctl is the runtime control block: NV loop indices, layer cursor,
	// buffer parity. Runtimes carve it up as they like; it is cleared by
	// LoadInput at the start of every inference.
	Ctl *mem.Region

	// Cal holds state that must persist across inferences — TAILS's
	// one-time tile calibration (§7.1). LoadInput does not touch it.
	Cal *mem.Region

	MaxActWords int
}

// CtlWords is the size of the shared NV control block.
const CtlWords = 32

// regionNames holds one layer's FRAM region labels. They depend only on
// the model, so fleet campaigns deploying the same network onto thousands
// of devices format them once instead of once per device.
type regionNames struct {
	W, B, NZ, Cols, RowPtr, FinPar string
}

// deployNames memoizes per-model region labels, keyed by model pointer
// like the op-tape program cache.
var deployNames sync.Map // *dnn.QuantModel -> []regionNames

func namesFor(qm *dnn.QuantModel) []regionNames {
	if v, ok := deployNames.Load(qm); ok {
		return v.([]regionNames)
	}
	names := make([]regionNames, len(qm.Layers))
	for i := range qm.Layers {
		pfx := fmt.Sprintf("L%d.%s", i, qm.Layers[i].Kind)
		names[i] = regionNames{
			W: pfx + ".W", B: pfx + ".B", NZ: pfx + ".NZ",
			Cols: pfx + ".Cols", RowPtr: pfx + ".RowPtr", FinPar: pfx + ".FinPar",
		}
	}
	v, _ := deployNames.LoadOrStore(qm, names)
	return v.([]regionNames)
}

// flash bulk-initializes a freshly allocated region from a typed host
// table: one widening loop straight into the raw backing words, instead
// of one Region.Put interface call per word. An observed bank (a journal
// attached before deploy) falls back to the Put path so the observer
// still sees every write.
func flash[T ~int16 | ~int32](r *mem.Region, vs []T) {
	if r == nil || len(vs) == 0 {
		return
	}
	if r.Observed() {
		for j, v := range vs {
			r.Put(j, int64(v))
		}
		return
	}
	w := r.Words()
	for j, v := range vs {
		w[j] = int64(v)
	}
}

// Deploy places a quantized model into the device's FRAM, allocating weight
// regions and working buffers. It fails if the model does not fit — the
// feasibility condition of GENESIS (§5.2).
func Deploy(dev *mcu.Device, qm *dnn.QuantModel) (*Image, error) {
	img := &Image{Model: qm, Dev: dev}
	maxAct := qm.In.Len()
	maxOut := 0
	for i := range qm.Layers {
		ql := &qm.Layers[i]
		if n := ql.OutShape.Len(); n > maxAct {
			maxAct = n
		}
		switch ql.Kind {
		case dnn.QConv, dnn.QDense, dnn.QSparseDense:
			if n := ql.OutShape.Len(); n > maxOut {
				maxOut = n
			}
		}
	}
	img.MaxActWords = maxAct

	alloc := func(name string, n, elemBytes int) (*mem.Region, error) {
		if n == 0 {
			return nil, nil
		}
		return dev.FRAM.Alloc(name, n, elemBytes)
	}

	var err error
	names := namesFor(qm)
	for i := range qm.Layers {
		ql := &qm.Layers[i]
		li := LayerImage{Q: ql}
		nm := &names[i]
		if li.W, err = alloc(nm.W, len(ql.W), 2); err != nil {
			return nil, err
		}
		if li.B, err = alloc(nm.B, len(ql.B), 2); err != nil {
			return nil, err
		}
		if li.NZ, err = alloc(nm.NZ, len(ql.NZ), 2); err != nil {
			return nil, err
		}
		if li.Cols, err = alloc(nm.Cols, len(ql.Cols), 2); err != nil {
			return nil, err
		}
		if li.RowPtr, err = alloc(nm.RowPtr, len(ql.RowPtr), 2); err != nil {
			return nil, err
		}
		// Host-side initialization: flashing the image is deploy-time work
		// and consumes no harvested energy.
		flash(li.W, ql.W)
		flash(li.B, ql.B)
		flash(li.NZ, ql.NZ)
		flash(li.Cols, ql.Cols)
		flash(li.RowPtr, ql.RowPtr)
		if ql.Kind == dnn.QConv && ql.NZ != nil {
			if li.FinPar, err = alloc(nm.FinPar, ql.F, 2); err != nil {
				return nil, err
			}
			epf := ql.C * ql.KH * ql.KW
			for f := 0; f < ql.F; f++ {
				li.FinPar.Put(f, -1)
			}
			for p, widx := range ql.NZ {
				li.FinPar.Put(int(widx)/epf, int64(p&1))
			}
		}
		img.Layers = append(img.Layers, li)
	}

	if img.ActA, err = dev.FRAM.Alloc("act.A", maxAct, 2); err != nil {
		return nil, err
	}
	if img.ActB, err = dev.FRAM.Alloc("act.B", maxAct, 2); err != nil {
		return nil, err
	}
	if maxOut > 0 {
		if img.AccA, err = dev.FRAM.Alloc("acc.A", maxOut, 4); err != nil {
			return nil, err
		}
		if img.AccB, err = dev.FRAM.Alloc("acc.B", maxOut, 4); err != nil {
			return nil, err
		}
	}
	if img.Ctl, err = dev.FRAM.Alloc("ctl", CtlWords, 2); err != nil {
		return nil, err
	}
	if img.Cal, err = dev.FRAM.Alloc("cal", 4, 2); err != nil {
		return nil, err
	}
	// The control block and calibration area carry the runtimes' own
	// crash-consistency protocols (commit cursors, undo-log slots, staged
	// partials), so the WAR checker must treat them as exempt.
	dev.MarkProtocol(img.Ctl, img.Cal)
	return img, nil
}

// Release frees every FRAM region the image holds.
func (img *Image) Release() {
	fram := img.Dev.FRAM
	for _, li := range img.Layers {
		for _, r := range []*mem.Region{li.W, li.B, li.NZ, li.Cols, li.RowPtr, li.FinPar} {
			if r != nil {
				fram.Release(r)
			}
		}
	}
	for _, r := range []*mem.Region{img.ActA, img.ActB, img.AccA, img.AccB, img.Ctl, img.Cal} {
		if r != nil {
			fram.Release(r)
		}
	}
	img.Layers = nil
}

// LoadInput writes a quantized input sample into activation buffer A and
// clears the control block. This models the sensor depositing a reading
// before inference starts; it is not charged against harvested energy and
// must be called once per inference, outside the intermittent retry loop.
func (img *Image) LoadInput(x []fixed.Q15) error {
	if len(x) != img.Model.In.Len() {
		return fmt.Errorf("core: input length %d, model wants %d", len(x), img.Model.In.Len())
	}
	flash(img.ActA, x)
	img.Ctl.SetRange(0, zeroCtl[:])
	return nil
}

// zeroCtl is a zeroed control block, the one LoadInput writes.
var zeroCtl [CtlWords]int64

// ReadOutput extracts the final logits from the buffer the last layer wrote
// (host-side, after inference completes).
func (img *Image) ReadOutput(fromB bool) []fixed.Q15 {
	n := img.Model.Layers[len(img.Model.Layers)-1].OutShape.Len()
	src := img.ActA
	if fromB {
		src = img.ActB
	}
	out := make([]fixed.Q15, n)
	for i := range out {
		out[i] = fixed.Q15(src.Get(i))
	}
	return out
}

// Runtime is an inference implementation: it drives the deployed image
// through one inference on the device, tolerating (or not) intermittent
// power. Implementations must leave the logits readable via ReadOutput and
// report which buffer holds them.
type Runtime interface {
	// Name identifies the implementation ("base", "tile-32", "sonic", ...).
	Name() string
	// Infer runs one inference to completion under the device's power
	// system. It returns the logits, or mcu.ErrDoesNotComplete if the
	// implementation cannot finish on this power system. Every runtime's
	// Infer is InferOnce.
	Infer(img *Image, input []fixed.Q15) ([]fixed.Q15, error)
	// Prepare performs the runtime's host-side setup on a deployed image
	// once — its FRAM and SRAM allocations, shared-region tables and
	// executor construction — and returns it ready to serve any number of
	// runs on img's device, as pooled fork slots (Slot) keep it.
	Prepare(img *Image) (Prepared, error)
}

// Prepared is a runtime's setup resident on one deployed image.
type Prepared interface {
	// ResumeInfer runs one inference from the input and control block the
	// image holds (LoadInput's, or a restored prefix's). It first resets
	// the resident state to what a fresh Prepare leaves (zeroed logs and
	// scratch), so no run sees an earlier one's, then calls atReboot —
	// which a snapshot-and-fork campaign uses to restore a recorded prefix
	// of a golden run onto the device, leaving it exactly as a
	// from-scratch run would be at its first post-brown-out reboot — and
	// finally runs the intermittent retry loop, recovering from the FRAM
	// state as if power had just come back.
	//
	// atReboot (nil for none) runs after all setup-time host writes, which
	// the restore overwrites, and before the first attempt. A non-nil
	// error aborts the inference and is returned unchanged.
	ResumeInfer(atReboot func() error) ([]fixed.Q15, error)
	// Release frees the resident regions; the Prepared must not run again.
	Release()
}

// InferOnce is Runtime.Infer for every runtime: LoadInput, Prepare, one
// ResumeInfer and Release, so a runtime kept resident across runs and one
// prepared for a single run take the same path.
func InferOnce(rt Runtime, img *Image, input []fixed.Q15) ([]fixed.Q15, error) {
	if err := img.LoadInput(input); err != nil {
		return nil, err
	}
	p, err := rt.Prepare(img)
	if err != nil {
		return nil, err
	}
	defer p.Release()
	return p.ResumeInfer(nil)
}

// Outcome is a finished run as Finish reads it off its device.
type Outcome struct {
	Logits []fixed.Q15
	// Stats is the outcome's own (mcu.Device.TakeStats), out of reach
	// of a pooled device's next run.
	Stats *mcu.Stats
	// WARCount and WAR are the write-after-read verdict.
	WARCount int
	WAR      []mcu.WARViolation
	// DNC reports a run that stopped with mcu.ErrDoesNotComplete.
	DNC bool
}

// Finish turns a run on dev — the logits and error its runtime returned —
// into an Outcome. Does-not-complete is an outcome, not an error; any
// other error is returned beside the outcome. Every path that runs a
// device and reads its result goes through Finish.
func Finish(dev *mcu.Device, logits []fixed.Q15, err error) (Outcome, error) {
	o := Outcome{Logits: logits, Stats: dev.TakeStats(), WARCount: dev.WARCount(), WAR: dev.WARViolations()}
	if errors.Is(err, mcu.ErrDoesNotComplete) {
		o.DNC, err = true, nil
	}
	return o, err
}

// LayerName returns the section label used to attribute device operations
// to layers in the Fig. 9/10/12 breakdowns: convolutional layers are
// numbered "conv1", "conv2", ...; fully-connected layers (dense or sparse)
// are "fc"; everything else is "other".
func LayerName(qm *dnn.QuantModel, li int) string {
	if v, ok := layerNames.Load(qm); ok {
		return v.([]string)[li]
	}
	names := make([]string, len(qm.Layers))
	conv := 0
	for i := range qm.Layers {
		switch qm.Layers[i].Kind {
		case dnn.QConv:
			conv++
			names[i] = fmt.Sprintf("conv%d", conv)
		case dnn.QDense, dnn.QSparseDense:
			names[i] = "fc"
		default:
			names[i] = "other"
		}
	}
	v, _ := layerNames.LoadOrStore(qm, names)
	return v.([]string)[li]
}

// layerNames memoizes the per-model section labels; like deployNames the
// labels are pure functions of the model, and runtimes ask for them on
// every inference.
var layerNames sync.Map // *dnn.QuantModel -> []string

// Argmax returns the index of the largest logit.
func Argmax(logits []fixed.Q15) int {
	best, bi := fixed.MinusOne, 0
	for i, v := range logits {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}
