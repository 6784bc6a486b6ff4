package intermittest

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/sonic"
	"repro/internal/tails"
)

// FuzzIntermittence feeds fuzzer-chosen brown-out schedules to the
// crash-consistent runtimes, with the WAR shadow tracker armed. Every gap
// is raised to the runtime's measured liveness floor, so a failure to
// complete is a genuine liveness bug, and any logit divergence or WAR
// violation is a consistency bug. The seed corpus runs as part of the
// ordinary deterministic test suite;
// `go test -fuzz=FuzzIntermittence ./internal/intermittest` explores
// beyond it.
func FuzzIntermittence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x40})             // one early failure
	f.Add([]byte{0x01, 0x77})             // one mid-run failure
	f.Add([]byte{0x00, 0x00, 0x00, 0x00}) // repeated minimum-gap failures
	f.Add([]byte{0x02, 0x00, 0x00, 0x10, 0x01, 0x80, 0x00, 0x40})

	qm, x := TinyModel(1)
	rts := []core.Runtime{
		baseline.Tile{TileSize: 8},
		sonic.SONIC{},
		tails.TAILS{},
		checkpoint.Checkpoint{Interval: 8},
	}
	checkers := make([]*Checker, len(rts))
	for i, rt := range rts {
		c, err := NewCheckerOpt(qm, x, rt, Options{CheckWAR: true})
		if err != nil {
			f.Fatal(err)
		}
		checkers[i] = c
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		rel := DecodeSchedule(data)
		for _, c := range checkers {
			gaps := c.AbsoluteGaps(rel)
			if res := c.Check(gaps); res.Failing() {
				t.Fatalf("intermittence bug: %s\nreproduce: go run ./cmd/fuzz -runtime %s -war -schedule %s",
					res, res.Runtime, FormatSchedule(gaps))
			}
		}
	})
}
