package energy

import (
	"fmt"
	"math"
)

// SystemSpec is a declarative, serializable description of a power system:
// a capacitor size plus a named harvester class and its parameters. It is
// the unit fleet campaigns and the job-serving API pass around — a spec
// plus one seed fully determines a power system, including every sample a
// stochastic harvester will ever draw, so any device in a fleet can be
// re-simulated in isolation from its (spec, seed) pair.
type SystemSpec struct {
	// Kind selects the harvester class: "cont" (mains-like, never fails),
	// "const" (fixed-power RF), "stoch" (lognormal RF), "solar" (diurnal
	// half-sine), or "trace" (replayed samples).
	Kind string `json:"kind"`
	// CapFarads sizes the buffering capacitor (ignored for "cont").
	CapFarads float64 `json:"cap_farads,omitempty"`
	// Watts is the harvester's mean ("const", "stoch") or peak ("solar")
	// power. Zero defaults to DefaultRFWatts.
	Watts float64 `json:"watts,omitempty"`
	// Sigma is the lognormal sigma for "stoch" (zero defaults to 0.4).
	Sigma float64 `json:"sigma,omitempty"`
	// Trace holds the per-cycle power samples for "trace".
	Trace []float64 `json:"trace,omitempty"`
}

// normTail bounds |NormFloat64()|. Its ziggurat tail draw is
// rn + ln(1/u)/rn with rn ≈ 3.4426 and u a 53-bit uniform, so a draw is at
// most 3.4426 + 53·ln2/3.4426 ≈ 14.11 (u = 0 takes two zero uniforms in a
// row, probability 2^-106).
const normTail = 14.2

// Validate reports whether the spec describes a constructible system,
// without constructing it. Two bounds keep every accepted system's
// arithmetic in range:
//
//   - The capacitor's usable energy must fit the int64 picojoules an
//     Intermittent accounts in (UsablePJ), which on CapBank's voltage
//     window holds up to about 6.3e7 F.
//   - No harvester may return a non-positive power, which DeadTime
//     rejects. A stochastic harvester's smallest draw is
//     watts·exp(−|sigma|·normTail − sigma²/2), which underflows to 0 from
//     sigma ≈ 26.8 at the default watts and sooner for smaller watts. A
//     solar harvester's 1% floor underflows for subnormal watts.
func (s SystemSpec) Validate() error {
	switch s.Kind {
	case "cont":
		return nil
	case "const", "stoch", "solar", "trace":
	case "":
		return fmt.Errorf("energy: spec has no harvester kind")
	default:
		return fmt.Errorf("energy: unknown harvester kind %q", s.Kind)
	}
	if s.CapFarads <= 0 {
		return fmt.Errorf("energy: %q spec needs a positive capacitor, got %v", s.Kind, s.CapFarads)
	}
	if pj := CapBank(s.CapFarads).UsableNJ() * 1000; !(pj < math.MaxInt64) {
		return fmt.Errorf("energy: %q spec's %v F capacitor holds more picojoules than an int64 counts", s.Kind, s.CapFarads)
	}
	if s.Kind == "trace" {
		_, err := NewTraceHarvester(s.Trace)
		return err
	}
	if s.Watts < 0 {
		return fmt.Errorf("energy: %q spec has negative harvest power %v", s.Kind, s.Watts)
	}
	w := s.watts()
	switch s.Kind {
	case "stoch":
		sigma := s.sigma()
		if !(w*math.Exp(-math.Abs(sigma)*normTail-sigma*sigma/2) > 0) {
			return fmt.Errorf("energy: %q spec's sigma %v can draw a harvest power that underflows to 0 at %v W", s.Kind, sigma, w)
		}
	case "solar":
		if !(w*0.01 > 0) {
			return fmt.Errorf("energy: %q spec's %v W peak has a 1%% floor that underflows to 0", s.Kind, w)
		}
	}
	return nil
}

// watts is the harvester's power with the zero default applied.
func (s SystemSpec) watts() float64 {
	if s.Watts == 0 {
		return DefaultRFWatts
	}
	return s.Watts
}

// sigma is the stochastic harvester's sigma with the zero default applied.
func (s SystemSpec) sigma() float64 {
	if s.Sigma == 0 {
		return 0.4
	}
	return s.Sigma
}

// New constructs the power system the spec describes, fully charged. The
// seed pins every random draw of stochastic harvesters; deterministic
// kinds ignore it, so equal (spec, seed) pairs always yield systems with
// identical behavior.
func (s SystemSpec) New(seed uint64) (System, error) {
	h, err := s.NewHarvester(seed)
	if err != nil {
		return nil, err
	}
	if h == nil {
		return Continuous{}, nil
	}
	return NewIntermittent(CapBank(s.CapFarads), h), nil
}

// NewHarvester constructs the harvester of the system New builds from the
// same seed, drawing the same power sequence; it is nil for "cont".
func (s SystemSpec) NewHarvester(seed uint64) (Harvester, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	switch s.Kind {
	case "cont":
		return nil, nil
	case "const":
		return ConstantHarvester{Watts: s.watts()}, nil
	case "stoch":
		return NewStochasticHarvester(s.watts(), s.sigma(), seed), nil
	case "solar":
		return NewSolarHarvester(s.watts(), seed), nil
	default: // "trace", already validated
		return NewTraceHarvester(s.Trace)
	}
}

// ExecKey is all of a power system that a run on it can observe besides
// time: continuous power, or an Intermittent's usable energy. Systems
// with equal keys fund every op stream identically whatever their
// harvesters; only the dead time differs, and a deficit tape replays it.
type ExecKey struct {
	Continuous bool
	UsablePJ   int64 // zero for continuous power
}

// ExecKey returns the execution key of the system New builds, for any
// seed. The spec must be valid.
func (s SystemSpec) ExecKey() ExecKey {
	if s.Kind == "cont" {
		return ExecKey{Continuous: true}
	}
	return ExecKey{UsablePJ: CapBank(s.CapFarads).UsablePJ()}
}
