package nvsim

import (
	"fmt"

	"repro/internal/units"
)

// This file is the shared characterization engine. The circuit model is
// completely independent of the optimization target — the target only
// decides which already-scored organization wins — so the engine walks the
// organization space exactly once per (cell, capacity, word width,
// constraints) and keeps every target's winner in the same pass.
// Characterize in array.go is a thin wrapper; Study.Run batches all of a
// study's targets through CharacterizeTargets; and an Engine's memo cache
// (memo.go) keeps the per-target winners across repeated studies.

// errNoOrganization and errConstraintsExclude are the engine's two
// configuration-level failures; PrefilterTargets reproduces them byte for
// byte.
func errNoOrganization(cfg *Config) error {
	return fmt.Errorf("nvsim: no feasible organization for %s at %s",
		cfg.Cell.Name, units.Bytes(cfg.CapacityBytes))
}

func errConstraintsExclude(cfg *Config) error {
	return fmt.Errorf("nvsim: constraints exclude every organization for %s at %s",
		cfg.Cell.Name, units.Bytes(cfg.CapacityBytes))
}

// score runs the circuit model for one organization of a configuration
// whose cell m was initialized with. Result.Target is left at its zero
// value.
func (m *model) score(cfg *Config, org Organization) Result {
	m.setOrg(org)
	return Result{
		Cell:           cfg.Cell,
		CapacityBytes:  cfg.CapacityBytes,
		WordBits:       cfg.WordBits,
		Org:            org,
		ReadLatencyNS:  m.readLatencyNS(),
		WriteLatencyNS: m.writeLatencyNS(),
		ReadEnergyPJ:   m.readEnergyPJ(),
		WriteEnergyPJ:  m.writeEnergyPJ(),
		LeakagePowerMW: m.leakagePowerMW(),
		AreaMM2:        m.totalMM2,
		AreaEfficiency: m.areaEfficiency(),
	}
}

// bestPerTarget scores every organization of an already-normalized
// configuration once and keeps, for every target, the first admissible
// organization minimizing its figure of merit: strict <, so ties keep the
// earliest in enumeration order, which is what a stable sort followed by
// taking element zero would select. This is the single expensive step of
// characterization; best is what the memo cache stores.
func bestPerTarget(cfg *Config, best *[numOptTargets]Result) error {
	var m model
	m.initCell(cfg.Cell, nodeAt(cfg.Cell.NodeNM), cfg.WordBits, &defaultCal)
	var bestV [numOptTargets]float64
	walked, admitted := false, false
	for org := range organizations(cfg.CapacityBytes*8, cfg.Cell.BitsPerCell, cfg.WordBits) {
		walked = true
		r := m.score(cfg, org)
		if !cfg.admissible(r) {
			continue
		}
		for t := range numOptTargets {
			if v := r.metric(t); !admitted || v < bestV[t] {
				bestV[t], best[t] = v, r
				best[t].Target = t
			}
		}
		admitted = true
	}
	switch {
	case !walked:
		return errNoOrganization(cfg)
	case !admitted:
		return errConstraintsExclude(cfg)
	}
	return nil
}

// CharacterizeTargets characterizes one configuration under many
// optimization targets at once: the organization space is walked and
// scored a single time (cfg.Target is ignored) and every target's winner
// is kept along the way. results and errs are parallel to targets;
// errs[i] is non-nil when that slot failed (a configuration-level error is
// replicated into every slot, an invalid target fails only its own).
func (e *Engine) CharacterizeTargets(cfg Config, targets []OptTarget) (results []Result, errs []error) {
	results = make([]Result, len(targets))
	errs = make([]error, len(targets))
	cfg.Target = 0 // selection is per-target; normalize only vets the rest
	if err := cfg.normalize(); err != nil {
		for i := range errs {
			errs[i] = err
		}
		return results, errs
	}
	best, err := e.winners(cfg)
	for i, t := range targets {
		switch {
		case t < 0 || t >= numOptTargets:
			errs[i] = fmt.Errorf("nvsim: invalid optimization target %d", int(t))
		case err != nil:
			errs[i] = err
		default:
			results[i] = best[t]
		}
	}
	return results, errs
}

// CharacterizeTargets is Engine.CharacterizeTargets without a memo.
func CharacterizeTargets(cfg Config, targets []OptTarget) (results []Result, errs []error) {
	return (*Engine)(nil).CharacterizeTargets(cfg, targets)
}

// ValidWinners reports whether winners could be CharacterizeTargets(cfg,
// targets)'s all-successful answer: one result per target, in order, each
// for cfg's cell, capacity and normalized word width, admitted by cfg's
// constraints. It checks winners computed elsewhere (a fabric shard).
func ValidWinners(cfg Config, targets []OptTarget, winners []Result) bool {
	cfg.Target = 0
	if cfg.normalize() != nil || len(winners) != len(targets) {
		return false
	}
	for i, t := range targets {
		r := &winners[i]
		if r.Target != t || t < 0 || t >= numOptTargets || r.Cell != cfg.Cell ||
			r.CapacityBytes != cfg.CapacityBytes || r.WordBits != cfg.WordBits || !cfg.admissible(*r) {
			return false
		}
	}
	return true
}
