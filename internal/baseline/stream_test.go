package baseline_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"repro/internal/dnn"
	"repro/internal/energy"
	"repro/internal/intermittest"
	"repro/internal/mcu"
)

// opStream digests the per-op charge stream its power system sees: the
// picojoule cost of every op, in order, across reboots. Behind
// energy.PerOp every call is one op, so two runs with the same digest
// charged the same op kinds (up to kinds of equal cost) in the same order.
type opStream struct {
	s   energy.System
	h   hash.Hash64
	buf []byte
	ops int64
}

func (o *opStream) ConsumeN(pj int64, n int) int {
	o.buf = binary.LittleEndian.AppendUint64(o.buf[:0], uint64(pj))
	o.buf = binary.LittleEndian.AppendUint64(o.buf, uint64(n))
	o.h.Write(o.buf)
	o.ops += int64(n)
	return o.s.ConsumeN(pj, n)
}

func (o *opStream) Recharge() float64 { return o.s.Recharge() }

// TestTilePerOpStreamPinned pins the order in which a tile run charges its
// ops on the per-op path, which is the order a brown-out lands in: on the
// tiny and adversarial CSR models, tile-8/32/128 under continuous power
// and a 100 µF capacitor, the energy.PerOp run's op-stream digest and op
// count must equal the recorded ones. A chunk whose per-op form changes
// (one that takes its bulk form per op where it runs its scalar body, or
// the reverse) moves the digest even where no recorded brown-out falls
// inside it, which the bit-exact fused oracles cannot see: both of their
// sides run the same per-op path.
func TestTilePerOpStreamPinned(t *testing.T) {
	want := map[string][2]uint64{
		"tiny/tile-8/cont":       {0x3f9e0b5f7f803775, 3050},
		"tiny/tile-8/rf-100uF":   {0xf2ede1fe014989b9, 3142},
		"tiny/tile-32/cont":      {0x95b730c1f2e2bc7d, 2656},
		"tiny/tile-32/rf-100uF":  {0xec89994c5d49228a, 2819},
		"tiny/tile-128/cont":     {0xa3b358e4bf52b99d, 2610},
		"tiny/tile-128/rf-100uF": {0x690fb277b8aa3c29, 2940},
		"csr/tile-8/cont":        {0x2f6143245bf62170, 1744},
		"csr/tile-8/rf-100uF":    {0xa8dd7a2d2c8ad0d8, 1756},
		"csr/tile-32/cont":       {0x4a580720ba1e3770, 1480},
		"csr/tile-32/rf-100uF":   {0x2ef807debf438a3c, 1486},
		"csr/tile-128/cont":      {0xefead7556ef3f2b0, 1436},
		"csr/tile-128/rf-100uF":  {0xea377485ea3c54cc, 1442},
	}
	models := []struct {
		name string
		mk   func(uint64) (*dnn.QuantModel, []float64)
	}{
		{"tiny", intermittest.TinyModel},
		{"csr", intermittest.AdversarialCSRModel},
	}
	powers := []struct {
		name string
		mk   func() energy.System
	}{
		{"cont", func() energy.System { return energy.Continuous{} }},
		{"rf-100uF", func() energy.System {
			return energy.NewIntermittent(energy.Cap100uF, energy.ConstantHarvester{Watts: 1e-3})
		}},
	}
	for _, m := range models {
		qm, x := m.mk(1)
		qin := qm.QuantizeInput(x)
		for _, k := range []int{8, 32, 128} {
			for _, pw := range powers {
				row := fmt.Sprintf("%s/tile-%d/%s", m.name, k, pw.name)
				s := &opStream{s: pw.mk(), h: fnv.New64a()}
				r := mustRunTile(t, mcu.New(energy.PerOp{S: s}), qm, qin, k)
				if r.fused != 0 {
					t.Errorf("%s: PerOp run fused %d ops", row, r.fused)
				}
				t.Logf("%s: %d ops, digest %#x, %d reboots", row, s.ops, s.h.Sum64(), r.stats.Reboots)
				if got := [2]uint64{s.h.Sum64(), uint64(s.ops)}; got != want[row] {
					t.Errorf("%s: per-op stream %#x over %d ops, want %#x over %d", row, got[0], got[1], want[row][0], want[row][1])
				}
			}
		}
	}
}
