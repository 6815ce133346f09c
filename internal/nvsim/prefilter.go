package nvsim

import "fmt"

// Cheap constraint pre-filtering. The full characterization pipeline scores
// every enumerated organization through the circuit model before applying
// the admissibility constraints — but one constraint, the area budget, has
// a lower bound computable from the cell alone: every organization places
// exactly nextPow2(ceil(capacityBits/bitsPerCell)) cells, so no floorplan
// can occupy less than that many cell footprints. When even the bare cell
// matrix exceeds MaxAreaMM2, every candidate is inadmissible and the engine
// pass is provably wasted. PrefilterTargets detects that case up front so
// callers (the study planner's exhaustive and adaptive paths) can skip the
// engine entirely while reporting byte-identical per-target errors.

// cellMatrixAreaMM2 is the area of the bare cell matrix shared by every
// organization the enumerator can produce: the capacity's rounded-up cell
// count times one cell footprint at the definition's node. The model adds
// strictly positive periphery (decoders, sense amps, control) and routing
// multipliers ≥ 1 on top, so this is a strict lower bound on every
// candidate's modeled AreaMM2.
func cellMatrixAreaMM2(cfg *Config) float64 {
	bpc := int64(cfg.Cell.BitsPerCell)
	cells := nextPow2((cfg.CapacityBytes*8 + bpc - 1) / bpc)
	fUM := cfg.Cell.NodeNM * 1e-3
	return float64(cells) * cfg.Cell.AreaF2 * fUM * fUM * 1e-6
}

// PrefilterTargets decides, from constraint bounds alone, whether this
// configuration cannot produce a single admissible organization. When it
// can prove that, it returns the exact (results, errs) CharacterizeTargets
// would have produced — the same error in every valid target slot — with
// pruned=true, and the caller may skip the engine. pruned=false means the
// bound is inconclusive and the configuration must be characterized
// normally; configurations the pre-filter cannot even normalize also return
// false, so the engine reports their errors through its usual path. Each
// pruned configuration counts in the engine's Stats().Prefiltered.
func (e *Engine) PrefilterTargets(cfg Config, targets []OptTarget) (results []Result, errs []error, pruned bool) {
	cfg.Target = 0
	if err := cfg.normalize(); err != nil {
		return nil, nil, false
	}
	if cfg.MaxAreaMM2 <= 0 || cellMatrixAreaMM2(&cfg) <= cfg.MaxAreaMM2 {
		return nil, nil, false
	}
	if e != nil {
		e.prefiltered.Add(1)
	}
	// The bare cell matrix alone exceeds the budget: every organization is
	// inadmissible. Distinguish the engine's two failure messages — an empty
	// enumeration reports "no feasible organization", a non-empty one whose
	// candidates are all excluded reports "constraints exclude".
	err := errNoOrganization(&cfg)
	organizations(cfg.CapacityBytes*8, cfg.Cell.BitsPerCell, cfg.WordBits)(func(Organization) bool {
		err = errConstraintsExclude(&cfg)
		return false // one organization is enough
	})
	results = make([]Result, len(targets))
	errs = make([]error, len(targets))
	for i, t := range targets {
		if t < 0 || t >= numOptTargets {
			errs[i] = fmt.Errorf("nvsim: invalid optimization target %d", int(t))
			continue
		}
		errs[i] = err
	}
	return results, errs, true
}

// PrefilterTargets is Engine.PrefilterTargets without counting.
func PrefilterTargets(cfg Config, targets []OptTarget) (results []Result, errs []error, pruned bool) {
	return (*Engine)(nil).PrefilterTargets(cfg, targets)
}
