package intermittest

import "testing"

// checkSink keeps the benchmarked checks' results live.
var checkSink *ScheduleResult

// BenchmarkCheckerCheck times one WAR-armed single-failure check on the
// tiny model per runtime, cycling the boundary across the whole golden
// run so every restore window and suffix length is sampled. With
// -benchmem its allocs/op is the per-boundary bookkeeping a campaign
// pays on top of simulation.
func BenchmarkCheckerCheck(b *testing.B) {
	qm, x := TinyModel(1)
	for _, fr := range forkRuntimes() {
		if fr.csr {
			continue
		}
		b.Run(fr.label, func(b *testing.B) {
			c, err := NewCheckerOpt(qm, x, fr.rt, Options{CheckWAR: true})
			if err != nil {
				b.Fatal(err)
			}
			total := int(c.TotalOps())
			gaps := []int{0}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gaps[0] = 1 + (i*7919)%total
				checkSink = c.Check(gaps)
			}
		})
	}
}
