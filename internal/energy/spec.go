package energy

import "fmt"

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

// Validate reports whether the spec describes a constructible system,
// without constructing it.
func (s SystemSpec) Validate() error {
	switch s.Kind {
	case "cont":
		return nil
	case "const", "stoch", "solar":
		if s.CapFarads <= 0 {
			return fmt.Errorf("energy: %q spec needs a positive capacitor, got %v", s.Kind, s.CapFarads)
		}
		if s.Watts < 0 {
			return fmt.Errorf("energy: %q spec has negative harvest power %v", s.Kind, s.Watts)
		}
		return nil
	case "trace":
		if s.CapFarads <= 0 {
			return fmt.Errorf("energy: %q spec needs a positive capacitor, got %v", s.Kind, s.CapFarads)
		}
		_, err := NewTraceHarvester(s.Trace)
		return err
	case "":
		return fmt.Errorf("energy: spec has no harvester kind")
	default:
		return fmt.Errorf("energy: unknown harvester kind %q", s.Kind)
	}
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
	w := s.Watts
	if w == 0 {
		w = DefaultRFWatts
	}
	switch s.Kind {
	case "cont":
		return nil, nil
	case "const":
		return ConstantHarvester{Watts: w}, nil
	case "stoch":
		sigma := s.Sigma
		if sigma == 0 {
			sigma = 0.4
		}
		return NewStochasticHarvester(w, sigma, seed), nil
	case "solar":
		return NewSolarHarvester(w, seed), nil
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
