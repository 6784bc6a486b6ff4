package mcu

import (
	"testing"

	"repro/internal/energy"
)

// BenchmarkDeviceOp measures the operation hot path — the cost every
// simulated instruction pays. The unobserved sub-benchmark is the
// flattened fast path (one slow-path bit check, a charge, and two
// increments); the observer variants take the out-of-line slow path, so
// the spread between them is the price observers pay and the fast path
// does not.
func BenchmarkDeviceOp(b *testing.B) {
	b.Run("unobserved", func(b *testing.B) {
		dev := New(energy.Continuous{})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dev.Op(OpFixedMul)
		}
	})
	b.Run("journal", func(b *testing.B) {
		dev := New(energy.Continuous{})
		dev.StartJournal(0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dev.Op(OpFixedMul)
		}
	})
	// An analysis-only tracer (the charge-cycle kinds every RunAll cell
	// subscribes to) on a device that has attributed ops to 24 sections —
	// eight layers × three phases, as a multi-layer net leaves behind —
	// with a durable commit every four ops, as loop-continuation runtimes
	// commit per iteration. Each commit event is timestamped, so this
	// prices the per-event timestamp against the section count.
	b.Run("analysis-traced", func(b *testing.B) {
		dev := New(energy.Continuous{})
		dev.SetTracer(&maskedTracer{mask: ChargeCycleKinds})
		for l := 0; l < 8; l++ {
			for _, ph := range []Phase{PhaseKernel, PhaseControl, PhaseTransition} {
				dev.SetSection(string(rune('a'+l)), ph)
				dev.Op(OpFixedMul)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dev.Op(OpFixedMul)
			if i&3 == 3 {
				dev.Progress()
			}
		}
	})
}

// maskedTracer is countingTracer subscribed to a subset of event kinds.
type maskedTracer struct {
	countingTracer
	mask uint32
}

func (t *maskedTracer) TraceMask() uint32 { return t.mask }

// BenchmarkDeviceLoadStore measures the untraced memory-access path.
func BenchmarkDeviceLoadStore(b *testing.B) {
	dev := New(energy.Continuous{})
	r := dev.FRAM.MustAlloc("bench", 64, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dev.Store(r, i&63, int64(i))
		_ = dev.Load(r, i&63)
	}
}

// countingTracer is the cheapest possible consumer, isolating the
// device-side emit cost.
type countingTracer struct{ n int }

func (t *countingTracer) TraceEvent(TraceEvent) { t.n++ }

// BenchmarkDeviceOpTraced measures the operation path with tracing
// enabled: the per-op cost is a counter increment, with one op-batch
// event every opBatchMax operations.
func BenchmarkDeviceOpTraced(b *testing.B) {
	dev := New(energy.Continuous{})
	dev.SetTracer(&countingTracer{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dev.Op(OpFixedMul)
	}
}
