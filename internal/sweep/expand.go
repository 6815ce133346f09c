package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/store"
)

// Overrides are the request-level options layered over a parsed
// configuration: the CLI's -pareto/-mode/-budget/-seed flags and the study
// service's matching query parameters. Each has a Set flag that tells an
// explicit zero from an absent option; store.JobRecord journals them field
// for field.
type Overrides struct {
	ParetoSet bool
	Pareto    []string
	ModeSet   bool
	Mode      string
	BudgetSet bool
	Budget    int
	SeedSet   bool
	Seed      int64
}

// ParseOverrides reads the options by name ("pareto", "mode", "budget",
// "seed") through get; an empty value is an absent option. Only syntax is
// checked here: Expand rejects an unknown mode or a budget without a pareto
// selection, so every surface rejects identically.
func ParseOverrides(get func(name string) string) (Overrides, error) {
	var o Overrides
	if v := get("pareto"); v != "" { // a comma-separated metric list
		o.ParetoSet = true
		for _, m := range strings.Split(v, ",") {
			if m = strings.TrimSpace(m); m != "" {
				o.Pareto = append(o.Pareto, m)
			}
		}
	}
	if v := get("mode"); v != "" {
		o.ModeSet, o.Mode = true, v
	}
	if v := get("budget"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return o, fmt.Errorf("invalid budget %q: %v", v, err)
		}
		o.BudgetSet, o.Budget = true, n
	}
	if v := get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return o, fmt.Errorf("invalid seed %q: %v", v, err)
		}
		o.SeedSet, o.Seed = true, n
	}
	return o, nil
}

// apply writes the set overrides onto a parsed configuration.
func (o Overrides) apply(cfg *Config) {
	if o.ParetoSet {
		cfg.Pareto = &ParetoConfig{Metrics: o.Pareto}
	}
	if o.ModeSet {
		cfg.Mode = o.Mode
	}
	if o.BudgetSet {
		cfg.Budget = o.Budget
	}
	if o.SeedSet {
		cfg.Seed = o.Seed
	}
}

// Expansion is one study description made runnable.
type Expansion struct {
	Study       *core.Study
	Fingerprint string // core.Study.Fingerprint
	Points      int    // the design space's grid size
	// Config is the effective configuration (overrides applied) as JSON:
	// what a manifest records and a fabric worker rebuilds from. It
	// re-expands with no overrides to the same fingerprint.
	Config []byte
}

// SpaceError reports a valid configuration whose design space cannot be
// enumerated (no capacities, say); the study service answers it 422.
type SpaceError struct{ Err error }

func (e *SpaceError) Error() string { return e.Err.Error() }
func (e *SpaceError) Unwrap() error { return e.Err }

// Expand is the one path from a study description to a runnable study:
// parse raw, apply the overrides, attach cache as the per-point result
// cache (nil for none), expand, and enumerate. The CLI, the study service
// (sync, async, journal resume, fabric shards) and the query index all
// expand through it.
func Expand(raw []byte, ov Overrides, cache *store.Store) (*Expansion, error) {
	cfg, err := Parse(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	ov.apply(cfg)
	eff, err := json.Marshal(cfg)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	if cache != nil {
		cfg.Cache = cache
	}
	study, err := cfg.Study()
	if err != nil {
		return nil, err
	}
	specs, err := study.Space()
	if err != nil {
		return nil, &SpaceError{err}
	}
	fp, err := study.Fingerprint()
	if err != nil {
		return nil, &SpaceError{err}
	}
	return &Expansion{Study: study, Fingerprint: fp, Points: len(specs), Config: eff}, nil
}

// Manifest is the store record that makes a completed run of x queryable.
// A run with failed points is not fully stored, so it has none (ok false).
func (x *Expansion) Manifest(res *core.Results) (rec store.StudyRecord, ok bool) {
	if len(res.FailedPoints) > 0 {
		return rec, false
	}
	return store.StudyRecord{
		Fingerprint: x.Fingerprint, Name: x.Study.Name, Config: x.Config,
		Points: x.Points, Exploration: res.Exploration,
	}, true
}
