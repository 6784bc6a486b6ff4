package trace

import (
	"encoding/csv"
	"io"
	"strconv"

	"repro/internal/mcu"
)

// WriteCSV renders every buffered event as one CSV row, suitable for
// spreadsheet analysis or plotting the energy sawtooth directly. Unlike
// the Chrome exporter it keeps all event kinds, including per-iteration
// loop-index and privatize events. wall_us includes recharge dead time;
// level_nj is empty when the power system does not expose a buffer level;
// a commit row's arg is the number of commits it represents.
func WriteCSV(w io.Writer, events []Event, clockHz float64) error {
	if clockHz <= 0 {
		clockHz = 16e6
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"kind", "cycles", "wall_us", "energy_nj", "level_nj", "dead_s", "label", "arg",
	}); err != nil {
		return err
	}
	for _, e := range events {
		wall := (float64(e.Cycles)/clockHz + e.DeadSec) * 1e6
		level := ""
		if e.LevelNJ >= 0 {
			level = strconv.FormatFloat(e.LevelNJ, 'f', 3, 64)
		}
		arg := e.Arg
		if e.Kind == mcu.TraceCommit {
			arg = int64(commitsOf(e))
		}
		if err := cw.Write([]string{
			e.Kind.String(),
			strconv.FormatInt(e.Cycles, 10),
			strconv.FormatFloat(wall, 'f', 3, 64),
			strconv.FormatFloat(e.EnergyNJ, 'f', 3, 64),
			level,
			strconv.FormatFloat(e.DeadSec, 'f', 6, 64),
			e.Label,
			strconv.FormatInt(arg, 10),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
