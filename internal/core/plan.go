package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/nvsim"
)

// The execution plan. A study grid often contains many PointSpecs that
// share one characterization: write-buffer and fault axes change only how a
// point is *evaluated*, never the (cell, capacity, word width) the engine
// characterizes. RunStream therefore splits a run into two phases. The plan
// phase dedupes the grid's unique characterization configs, probes the
// point cache, and characterizes each needed config exactly once per run —
// in parallel across the study's workers — into a local plan table: the
// engine's memo/singleflight mutex is touched once per unique config instead
// of once per point, and each target's winner is copied out once per
// (config, target) instead of once per (point, target). The evaluation phase then walks the grid in
// declaration order, replaying cached points and driving eval.EvaluateBatch
// over the plan table into preallocated result buffers, emitting each point
// as it completes. Output is byte-identical to evaluating each point on its
// own, at any worker count.

// testHookCharacterize, when non-nil, runs just before each config's
// characterization, inside the plan phase's panic guard. Fault-isolation
// tests install a panicking hook to simulate an engine crash on a chosen
// config (set before the run starts, so the write happens-before every
// worker read).
var testHookCharacterize func(cfg nvsim.Config)

// planConfig is one unique characterization in the plan table.
type planConfig struct {
	// needed is set when at least one cache-missing point requires this
	// config; unneeded configs (fully cache-hit) are never characterized,
	// preserving the warm store's zero-characterization guarantee.
	needed bool
	// arrays and errs are parallel to the study's targets, as returned by
	// nvsim.CharacterizeTargets.
	arrays []nvsim.Result
	errs   []error
	// skipped holds the rendered skip lines of the failed targets, in
	// target order; every point sharing the config reports the same lines.
	skipped []string
	// ok counts successful targets, sizing the evaluation-phase buffers.
	ok int
	// failed holds a recovered characterization panic. A panicking engine
	// poisons only the points sharing this config — they are reported in
	// Results.FailedPoints — while the rest of the grid completes.
	failed error
}

// execPlan is the planned form of one study run.
type execPlan struct {
	specs   []PointSpec
	cfgOf   []int        // spec index -> plan table index
	configs []planConfig // the plan table, in first-use order
	reps    []int        // plan table index -> representative spec index

	// Cache probe results, present only when the study has a point cache.
	keys   []string
	cached []CachedPoint
	hit    []bool
}

// totals sizes the evaluation phase's result buffers exactly: arrays and
// metrics per point are known once the plan table is characterized.
func (p *execPlan) totals(patterns int) (arrays, metrics int) {
	for i := range p.specs {
		if p.hit != nil && p.hit[i] {
			arrays += len(p.cached[i].Arrays)
			metrics += len(p.cached[i].Metrics)
			continue
		}
		ok := p.configs[p.cfgOf[i]].ok
		arrays += ok
		metrics += ok * patterns
	}
	return arrays, metrics
}

// cachePutter drains point-cache fills on a background goroutine so a
// disk-backed store's per-point gob encode + atomic rename overlaps with
// the evaluation pass instead of stalling the emit loop. wait blocks until
// every queued fill has landed, so store durability is unchanged: by the
// time RunStream returns, all computed points are stored.
type cachePutter struct {
	ch   chan cachePut
	done chan struct{}
}

type cachePut struct {
	key string
	pt  CachedPoint
}

// startCachePutter returns a putter for the cache; a nil cache yields an
// inert putter whose methods are no-ops.
func startCachePutter(cache PointCache) *cachePutter {
	if cache == nil {
		return &cachePutter{}
	}
	p := &cachePutter{ch: make(chan cachePut, 64), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		for cp := range p.ch {
			cache.Put(cp.key, cp.pt)
		}
	}()
	return p
}

func (p *cachePutter) put(key string, pt CachedPoint) {
	if p.ch != nil {
		p.ch <- cachePut{key: key, pt: pt}
	}
}

// wait flushes the queue and stops the putter. It is idempotent.
func (p *cachePutter) wait() {
	if p.ch != nil {
		close(p.ch)
		<-p.done
		p.ch = nil
	}
}

// parallelIndex runs f(0..n-1) across at most workers goroutines, stopping
// early (without running every index) once ctx is canceled. Each index runs
// exactly once; f must only touch index-disjoint state.
func parallelIndex(ctx context.Context, workers, n int, f func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// plan builds the execution plan for one run: dedupe unique configs, probe
// cache (nil probes nothing), and characterize every needed config once,
// across the study's Workers. Only context cancellation fails the plan —
// characterization errors become per-point skips, exactly as the
// point-at-a-time path reported them.
func (s *Study) plan(ctx context.Context, specs []PointSpec, cache PointCache) (*execPlan, error) {
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &execPlan{specs: specs, cfgOf: make([]int, len(specs))}
	idx := make(map[nvsim.Config]int, len(specs))
	for i := range specs {
		k := s.charConfig(&specs[i])
		ci, ok := idx[k]
		if !ok {
			ci = len(p.reps)
			idx[k] = ci
			p.reps = append(p.reps, i)
		}
		p.cfgOf[i] = ci
	}
	p.configs = make([]planConfig, len(p.reps))

	if cache != nil {
		p.keys = make([]string, len(specs))
		p.cached = make([]CachedPoint, len(specs))
		p.hit = make([]bool, len(specs))
		k := s.keyer()
		parallelIndex(ctx, workers, len(specs), func(i int) {
			p.keys[i] = k.key(&specs[i])
			p.cached[i], p.hit[i] = cache.Get(p.keys[i])
		})
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: study %q canceled: %w", s.Name, err)
		}
	}

	// A config is characterized only when some cache-missing point needs it.
	var needed []int
	for i := range specs {
		if p.hit != nil && p.hit[i] {
			continue
		}
		if ci := p.cfgOf[i]; !p.configs[ci].needed {
			p.configs[ci].needed = true
			needed = append(needed, ci)
		}
	}
	parallelIndex(ctx, workers, len(needed), func(n int) {
		ci := needed[n]
		spec := &specs[p.reps[ci]]
		pc := &p.configs[ci]
		// A panicking characterization must not take down the run (or the
		// worker pool): it is recovered here and poisons only this config's
		// points, which the evaluation phase reports as failed.
		func() {
			defer func() {
				if r := recover(); r != nil {
					pc.failed = fmt.Errorf("characterization panic: %v", r)
				}
			}()
			cfg := s.charConfig(spec)
			if h := testHookCharacterize; h != nil {
				h(cfg)
			}
			// An outcome a fabric worker shipped (see Adopt) needs no engine.
			if c, ok := s.shipped[cfg]; ok {
				pc.arrays, pc.errs = c.Arrays, make([]error, len(s.Targets))
				for t, msg := range c.Errs {
					pc.errs[t] = errors.New(msg)
				}
				return
			}
			// The cheap constraint bound first: a config whose bare cell
			// matrix already exceeds the area budget is provably infeasible,
			// and the engine pass is skipped entirely. The pre-filter
			// reproduces the engine's exact per-target errors, so skip lines
			// — and every other output byte — are unchanged.
			if arrays, errs, pruned := s.Engine.PrefilterTargets(cfg, s.Targets); pruned {
				pc.arrays, pc.errs = arrays, errs
				return
			}
			pc.arrays, pc.errs = s.Engine.CharacterizeTargets(cfg, s.Targets)
		}()
		if pc.failed != nil {
			return
		}
		for t, target := range s.Targets {
			if pc.errs[t] != nil {
				pc.skipped = append(pc.skipped, fmt.Sprintf("%s@%d/%s: %v",
					spec.Cell.Name, spec.CapacityBytes, target, pc.errs[t]))
				continue
			}
			pc.ok++
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: study %q canceled: %w", s.Name, err)
	}
	return p, nil
}

// charConfig is a grid point's engine configuration (cell, capacity, word
// width, study-wide constraints): points sharing one share the engine pass.
func (s *Study) charConfig(spec *PointSpec) nvsim.Config {
	return nvsim.Config{Cell: spec.Cell, CapacityBytes: spec.CapacityBytes, WordBits: spec.WordBits,
		MaxAreaMM2: s.MaxAreaMM2, MaxReadLatencyNS: s.MaxReadLatencyNS}
}

// Characterization is one config's engine outcome for each of the study's
// targets, in target order: what a fabric worker ships for each config of
// its shard. Either Arrays holds every target's winner, or Errs holds every
// target's error message — the config failed, and its points' skip lines
// are rendered from Errs as from the engine's errors.
type Characterization struct {
	Config nvsim.Config
	Arrays []nvsim.Result
	Errs   []string
}

// valid reports whether c is well formed for the targets: winners that
// nvsim.ValidWinners accepts, or a non-empty error for every target.
func (c *Characterization) valid(targets []nvsim.OptTarget) bool {
	if len(c.Errs) == 0 {
		return nvsim.ValidWinners(c.Config, targets, c.Arrays)
	}
	return len(c.Arrays) == 0 && len(c.Errs) == len(targets) && !slices.Contains(c.Errs, "")
}

// Characterize runs the plan phase's characterization step over the
// distinct configs of the named grid points (a fabric worker's shard),
// without the point cache; every index must lie in the design space. It
// returns, in first-use order, the configs Adopt would accept; the
// coordinator characterizes the rest itself.
func (s *Study) Characterize(ctx context.Context, indices []int) ([]Characterization, error) {
	s.Targets = s.targets()
	specs, err := s.Space()
	if err != nil {
		return nil, err
	}
	sub := make([]PointSpec, len(indices))
	for i, idx := range indices {
		sub[i] = specs[idx]
	}
	p, err := s.plan(ctx, sub, nil)
	if err != nil {
		return nil, err
	}
	var out []Characterization
	for ci, pc := range p.configs {
		c := Characterization{Config: s.charConfig(&sub[p.reps[ci]])}
		if pc.ok == len(s.Targets) {
			c.Arrays = pc.arrays
		}
		for _, err := range pc.errs {
			if err != nil {
				c.Errs = append(c.Errs, err.Error())
			}
		}
		// A panic, or winners beside errors, is left to the coordinator.
		if c.valid(s.Targets) {
			out = append(out, c)
		}
	}
	return out, nil
}

// Adopt keeps each well-formed shipped characterization that a named grid
// point needs in the study's table, which later runs read in place of the
// engine, and reports how many named points the kept entries cover. Adopt
// must not run concurrently with itself or with a run of the study.
func (s *Study) Adopt(specs []PointSpec, indices []int, cs []Characterization) int {
	want := make(map[nvsim.Config]int)
	for _, i := range indices {
		want[s.charConfig(&specs[i])]++
	}
	covered := 0
	for _, c := range cs {
		if n := want[c.Config]; n > 0 && c.valid(s.targets()) {
			if s.shipped == nil {
				s.shipped = make(map[nvsim.Config]Characterization)
			}
			s.shipped[c.Config] = c
			covered += n
			delete(want, c.Config)
		}
	}
	return covered
}
