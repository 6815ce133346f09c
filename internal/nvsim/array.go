package nvsim

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/cell"
	"repro/internal/units"
)

// OptTarget selects what the organization search optimizes — the same axes
// NVSim exposes and the paper sweeps in Figure 3 ("under various
// optimization targets, array-level metrics reveal each eNVM has unique,
// compelling attributes").
type OptTarget int

const (
	OptReadLatency OptTarget = iota
	OptWriteLatency
	OptReadEnergy
	OptWriteEnergy
	OptReadEDP  // read energy-delay product
	OptWriteEDP // write energy-delay product
	OptArea
	OptLeakage
	numOptTargets
)

var optNames = [...]string{
	"ReadLatency", "WriteLatency", "ReadEnergy", "WriteEnergy",
	"ReadEDP", "WriteEDP", "Area", "Leakage",
}

// String returns the target's display name.
func (o OptTarget) String() string {
	if o < 0 || int(o) >= len(optNames) {
		return fmt.Sprintf("OptTarget(%d)", int(o))
	}
	return optNames[o]
}

// OptTargets lists all optimization targets in declaration order.
func OptTargets() []OptTarget {
	ts := make([]OptTarget, 0, int(numOptTargets))
	for t := OptTarget(0); t < numOptTargets; t++ {
		ts = append(ts, t)
	}
	return ts
}

// ParseOptTarget resolves a display name to a target.
func ParseOptTarget(s string) (OptTarget, error) {
	for i, n := range optNames {
		if n == s {
			return OptTarget(i), nil
		}
	}
	return 0, fmt.Errorf("nvsim: unknown optimization target %q", s)
}

// Config describes one array characterization request.
type Config struct {
	Cell          cell.Definition
	CapacityBytes int64
	WordBits      int // bits delivered per access; 0 defaults to 512 (64B line)
	Target        OptTarget

	// Optional constraints, applied before target selection; zero = none.
	MaxAreaMM2       float64
	MaxReadLatencyNS float64
	MaxLeakageMW     float64
	ForceBanks       int // restrict the search to this bank count
}

// DefaultWordBits is the access width used when Config.WordBits is zero:
// one 64-byte line, the line size of the paper's LLC study and the NVDLA
// buffer interface.
const DefaultWordBits = 512

// Result is a characterized memory array: the output NVMExplorer consumes
// from its extended NVSim, per optimization target.
type Result struct {
	Cell          cell.Definition
	CapacityBytes int64
	WordBits      int
	Target        OptTarget
	Org           Organization

	ReadLatencyNS  float64
	WriteLatencyNS float64
	ReadEnergyPJ   float64 // per WordBits access
	WriteEnergyPJ  float64 // per WordBits access
	LeakagePowerMW float64
	AreaMM2        float64
	AreaEfficiency float64
}

// DensityMbPerMM2 is the array-level storage density.
func (r *Result) DensityMbPerMM2() float64 {
	return units.MbPerMM2(r.CapacityBytes, r.AreaMM2)
}

// ReadEnergyPerBitPJ is the array read energy amortized per delivered bit,
// the y-axis of Figures 3 and 5.
func (r *Result) ReadEnergyPerBitPJ() float64 {
	if r.WordBits == 0 {
		return 0
	}
	return r.ReadEnergyPJ / float64(r.WordBits)
}

// WriteEnergyPerBitPJ is the per-bit write energy.
func (r *Result) WriteEnergyPerBitPJ() float64 {
	if r.WordBits == 0 {
		return 0
	}
	return r.WriteEnergyPJ / float64(r.WordBits)
}

// ReadBandwidthGBs is the peak read bandwidth assuming banks pipeline
// independent accesses (the long-pole model compares traffic against it).
func (r *Result) ReadBandwidthGBs() float64 {
	if r.ReadLatencyNS <= 0 {
		return 0
	}
	bytesPerAccess := float64(r.WordBits) / 8
	return bytesPerAccess / r.ReadLatencyNS * float64(r.Org.Banks)
}

// WriteBandwidthGBs is the peak write bandwidth across banks.
func (r *Result) WriteBandwidthGBs() float64 {
	if r.WriteLatencyNS <= 0 {
		return 0
	}
	bytesPerAccess := float64(r.WordBits) / 8
	return bytesPerAccess / r.WriteLatencyNS * float64(r.Org.Banks)
}

// String summarizes a characterized array on one line.
func (r *Result) String() string {
	return fmt.Sprintf("%s %s [%s]: rd %s wr %s rdE %s wrE %s leak %s area %.3fmm² (eff %.0f%%)",
		r.Cell.Name, units.Bytes(r.CapacityBytes), r.Org,
		units.NSToString(r.ReadLatencyNS), units.NSToString(r.WriteLatencyNS),
		units.PJToString(r.ReadEnergyPJ), units.PJToString(r.WriteEnergyPJ),
		units.MWToString(r.LeakagePowerMW), r.AreaMM2, 100*r.AreaEfficiency)
}

// metric extracts the target-selection figure of merit from a result.
func (r *Result) metric(t OptTarget) float64 {
	switch t {
	case OptReadLatency:
		return r.ReadLatencyNS
	case OptWriteLatency:
		return r.WriteLatencyNS
	case OptReadEnergy:
		return r.ReadEnergyPJ
	case OptWriteEnergy:
		return r.WriteEnergyPJ
	case OptReadEDP:
		return r.ReadEnergyPJ * r.ReadLatencyNS
	case OptWriteEDP:
		return r.WriteEnergyPJ * r.WriteLatencyNS
	case OptArea:
		return r.AreaMM2
	case OptLeakage:
		return r.LeakagePowerMW
	default:
		return math.Inf(1)
	}
}

// normalize applies Config defaults and validates.
func (cfg *Config) normalize() error {
	if err := cfg.Cell.Validate(); err != nil {
		return fmt.Errorf("nvsim: %w", err)
	}
	if cfg.CapacityBytes <= 0 {
		return fmt.Errorf("nvsim: capacity must be positive, got %d", cfg.CapacityBytes)
	}
	if cfg.WordBits == 0 {
		cfg.WordBits = DefaultWordBits
	}
	if cfg.WordBits < 8 || cfg.WordBits > 4096 {
		return fmt.Errorf("nvsim: word width %d bits out of range [8,4096]", cfg.WordBits)
	}
	if cfg.Target < 0 || cfg.Target >= numOptTargets {
		return fmt.Errorf("nvsim: invalid optimization target %d", int(cfg.Target))
	}
	return nil
}

// admissible applies the optional constraints.
func (cfg *Config) admissible(r Result) bool {
	if cfg.MaxAreaMM2 > 0 && r.AreaMM2 > cfg.MaxAreaMM2 {
		return false
	}
	if cfg.MaxReadLatencyNS > 0 && r.ReadLatencyNS > cfg.MaxReadLatencyNS {
		return false
	}
	if cfg.MaxLeakageMW > 0 && r.LeakagePowerMW > cfg.MaxLeakageMW {
		return false
	}
	if cfg.ForceBanks > 0 && r.Org.Banks != cfg.ForceBanks {
		return false
	}
	return true
}

// CharacterizeAll evaluates every admissible internal organization for the
// configuration and returns them sorted by the configured target (best
// first, ties in enumeration order). Figure 12's area-efficiency
// exploration consumes the full set. It bypasses the memo cache, which
// keeps only per-target winners, and walks the organization space afresh:
// once to count it, once to stable-sort the admissible organizations by
// their figure of merit, and a final re-score (the model is a pure function
// of the organization) straight into an exact-size result slice.
func CharacterizeAll(cfg Config) ([]Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	orgs := organizations(cfg.CapacityBytes*8, cfg.Cell.BitsPerCell, cfg.WordBits)
	n := 0
	for range orgs {
		n++
	}
	if n == 0 {
		return nil, errNoOrganization(&cfg)
	}
	type ranked struct {
		v   float64
		org Organization
	}
	order := make([]ranked, 0, n)
	var m model
	m.initCell(cfg.Cell, nodeAt(cfg.Cell.NodeNM), cfg.WordBits, &defaultCal)
	for org := range orgs {
		if r := m.score(&cfg, org); cfg.admissible(r) {
			order = append(order, ranked{r.metric(cfg.Target), org})
		}
	}
	if len(order) == 0 {
		return nil, errConstraintsExclude(&cfg)
	}
	slices.SortStableFunc(order, func(a, b ranked) int {
		switch {
		case a.v < b.v:
			return -1
		case b.v < a.v:
			return 1
		}
		return 0
	})
	results := make([]Result, len(order))
	for i := range order {
		results[i] = m.score(&cfg, order[i].org)
		results[i].Target = cfg.Target
	}
	return results, nil
}

// Characterize returns the best array organization for the configuration
// under its optimization target — the single-result entry point matching
// the NVSim contract. It is a thin wrapper over CharacterizeTargets.
func Characterize(cfg Config) (Result, error) {
	rs, errs := CharacterizeTargets(cfg, []OptTarget{cfg.Target})
	if errs[0] != nil {
		return Result{}, errs[0]
	}
	return rs[0], nil
}

// MustCharacterize panics on error; for experiment tables and tests where
// the configuration is known-good.
func MustCharacterize(cfg Config) Result {
	r, err := Characterize(cfg)
	if err != nil {
		panic(err)
	}
	return r
}
