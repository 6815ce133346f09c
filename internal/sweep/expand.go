package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/store"
)

// override writes the request-level options onto a parsed configuration:
// the CLI's -pareto/-mode/-budget/-seed flags and the study service's
// matching query parameters, read by name through get. An empty value is an
// absent option. Only syntax is checked here: Config.Study rejects an
// unknown mode or a budget without a pareto selection, so every surface
// rejects identically.
func (cfg *Config) override(get func(name string) string) error {
	if v := get("pareto"); v != "" { // a comma-separated metric list
		var metrics []string
		for _, m := range strings.Split(v, ",") {
			if m = strings.TrimSpace(m); m != "" {
				metrics = append(metrics, m)
			}
		}
		cfg.Pareto = &ParetoConfig{Metrics: metrics}
	}
	if v := get("mode"); v != "" {
		cfg.Mode = v
	}
	if v := get("budget"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("invalid budget %q: %v", v, err)
		}
		cfg.Budget = n
	}
	if v := get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fmt.Errorf("invalid seed %q: %v", v, err)
		}
		cfg.Seed = n
	}
	return nil
}

// Expansion is one study description made runnable.
type Expansion struct {
	Study       *core.Study
	Fingerprint string // core.Study.Fingerprint
	Points      int    // the design space's grid size
	// Config is the effective configuration (options applied) as JSON:
	// what a manifest records, a job journals and a fabric worker rebuilds
	// from. Rebuild expands it back to the same fingerprint.
	Config []byte
}

// SpaceError reports a valid configuration whose design space cannot be
// enumerated (no capacities, say); the study service answers it 422.
type SpaceError struct{ Err error }

func (e *SpaceError) Error() string { return e.Err.Error() }
func (e *SpaceError) Unwrap() error { return e.Err }

// Expand is the one path from a study description to a runnable study:
// parse raw, apply the options ("pareto", "mode", "budget", "seed") read
// through get (nil for none), attach cache as the per-point result cache
// (nil for none), expand, and enumerate. The CLI, the study service (sync,
// async, journal resume, fabric shards) and the query index all expand
// through it.
func Expand(raw []byte, get func(name string) string, cache *store.Store) (*Expansion, error) {
	cfg, err := Parse(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	if get != nil {
		if err := cfg.override(get); err != nil {
			return nil, err
		}
	}
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

// ErrRebuilt reports a stored config that expands to another study than
// the fingerprint it was stored under.
var ErrRebuilt = errors.New("config rebuilds to another study")

// Rebuild expands a stored effective config (a manifest's, a journaled
// job's, a shard request's) with no options applied and checks that it is
// still the study stored under fingerprint; an error wrapping ErrRebuilt
// says it is not.
func Rebuild(config []byte, fingerprint string, cache *store.Store) (*Expansion, error) {
	x, err := Expand(config, nil, cache)
	if err != nil {
		return nil, err
	}
	if x.Fingerprint != fingerprint {
		return nil, fmt.Errorf("%w: %s, want %s", ErrRebuilt, x.Fingerprint, fingerprint)
	}
	return x, nil
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
