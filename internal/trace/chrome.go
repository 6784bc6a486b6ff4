package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/energy"
	"repro/internal/mcu"
)

// ChromeOptions configures the Chrome trace-event exporter.
type ChromeOptions struct {
	// ClockHz converts live cycles to wall-clock microseconds (the
	// MSP430's 16 MHz if zero).
	ClockHz float64
	// Capacitor, when set, enables the voltage counter track: the
	// buffer's energy level is converted back to capacitor volts.
	Capacitor *energy.Capacitor
}

// chromeEvent is one entry of the trace-event JSON format, understood by
// Perfetto and chrome://tracing.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Track ids: 0 is the power system, 1 the runtime control plane, and
// layers get one track each from firstLayerTid up, in order of first
// appearance.
const (
	powerTid      = 0
	runtimeTid    = 1
	firstLayerTid = 10
)

// WriteChrome renders events as Chrome trace-event JSON: one duration
// track per layer (execution slices, rebuilt from op batches so
// re-executed work is visible), instant events for reboots, brown-outs,
// commits, task dispatches, calibration, and LEA/DMA invocations, plus a
// voltage/energy counter track sampling the capacitor between events.
// Wall-clock time includes recharge dead time, so charge cycles appear
// separated by the off gaps the paper's Fig. 6 shows.
func WriteChrome(w io.Writer, events []Event, o ChromeOptions) error {
	clock := o.ClockHz
	if clock <= 0 {
		clock = 16e6
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(e chromeEvent) error {
		data, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
		_, err = bw.Write(data)
		return err
	}
	meta := func(tid int, name string) error {
		return emit(chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": name}})
	}
	if err := meta(powerTid, "power"); err != nil {
		return err
	}
	if err := meta(runtimeTid, "runtime"); err != nil {
		return err
	}

	ts := func(e Event) float64 {
		return (float64(e.Cycles)/clock + e.DeadSec) * 1e6
	}
	layerTid := map[string]int{}
	tidOf := func(layer string) (int, error) {
		if tid, ok := layerTid[layer]; ok {
			return tid, nil
		}
		tid := firstLayerTid + len(layerTid)
		layerTid[layer] = tid
		return tid, meta(tid, "layer "+layer)
	}
	counter := func(e Event) error {
		if e.LevelNJ < 0 {
			return nil
		}
		if err := emit(chromeEvent{Name: "energy buffer", Ph: "C", Pid: 1, Ts: ts(e),
			Args: map[string]any{"nJ": e.LevelNJ}}); err != nil {
			return err
		}
		if o.Capacitor != nil && o.Capacitor.C > 0 {
			v := math.Sqrt(o.Capacitor.VOff*o.Capacitor.VOff + 2*e.LevelNJ*1e-9/o.Capacitor.C)
			if err := emit(chromeEvent{Name: "voltage", Ph: "C", Pid: 1, Ts: ts(e),
				Args: map[string]any{"V": v}}); err != nil {
				return err
			}
		}
		return nil
	}
	instant := func(tid int, name string, e Event, args map[string]any) error {
		return emit(chromeEvent{Name: name, Ph: "i", Pid: 1, Tid: tid, Ts: ts(e), S: "t", Args: args})
	}

	prevTs := math.NaN()
	for _, e := range events {
		t := ts(e)
		switch e.Kind {
		case mcu.TraceOpBatch:
			// A batch covers the interval since the previous event (every
			// other emission flushes the pending batch first).
			tid, err := tidOf(e.Label)
			if err != nil {
				return err
			}
			start := t
			if !math.IsNaN(prevTs) && prevTs < t {
				start = prevTs
			}
			if err := emit(chromeEvent{Name: e.Label, Ph: "X", Pid: 1, Tid: tid,
				Ts: start, Dur: t - start, Args: map[string]any{"ops": e.Arg}}); err != nil {
				return err
			}
			if err := counter(e); err != nil {
				return err
			}
		case mcu.TraceBrownOut:
			if err := instant(powerTid, "brown-out", e, map[string]any{"layer": e.Label}); err != nil {
				return err
			}
			if err := counter(e); err != nil {
				return err
			}
		case mcu.TraceReboot:
			if err := instant(powerTid, fmt.Sprintf("reboot #%d", e.Arg), e, nil); err != nil {
				return err
			}
		case mcu.TraceRechargeDone:
			if err := counter(e); err != nil {
				return err
			}
		case mcu.TraceCommit:
			if err := instant(runtimeTid, "commit", e, map[string]any{"commits": commitsOf(e)}); err != nil {
				return err
			}
		case mcu.TraceRunBegin:
			if err := instant(runtimeTid, "run "+e.Label, e, nil); err != nil {
				return err
			}
		case mcu.TraceTaskBegin:
			if err := instant(runtimeTid, "task "+e.Label, e, nil); err != nil {
				return err
			}
		case mcu.TraceTaskCommitStage:
			if err := instant(runtimeTid, "commit-stage", e, map[string]any{"next": e.Label}); err != nil {
				return err
			}
		case mcu.TraceTaskCommitReplay:
			if err := instant(runtimeTid, "commit-replay", e, map[string]any{"entries": e.Arg}); err != nil {
				return err
			}
		case mcu.TraceCalibrate:
			if err := instant(powerTid, "calibrate "+e.Label, e, map[string]any{"tile": e.Arg}); err != nil {
				return err
			}
		case mcu.TraceDMA:
			if err := instant(runtimeTid, "dma "+e.Label, e, map[string]any{"words": e.Arg}); err != nil {
				return err
			}
		case mcu.TraceLEA:
			if err := instant(runtimeTid, "lea "+e.Label, e, map[string]any{"n": e.Arg}); err != nil {
				return err
			}
		case mcu.TraceCheckpoint:
			if err := instant(runtimeTid, "checkpoint", e, map[string]any{"regWords": e.Arg}); err != nil {
				return err
			}
			// Loop-index, privatize, and layer begin/end events are omitted
			// from the Chrome view (they are per-iteration noise there); the
			// CSV exporter keeps everything.
		}
		prevTs = t
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
