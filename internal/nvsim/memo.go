package nvsim

import (
	"sync"
	"sync/atomic"
)

// Engine holds the memo cache of per-target winners and counts the work
// done through it. Experiments across a study session characterize the
// same tentpole cells at the same handful of capacities dozens of times
// (Figs 3/5/10 reuse the case-study cell set, Table II re-runs the same
// 2MB arrays for every use case row). The engine's pass depends only on
// (cell, capacity, word width, constraints) — never on the optimization
// target — and it keeps every target's winner, so one entry of eight
// winners serves every target and every repeat. Whoever repeats work owns
// one engine: a server for all its requests, a CLI command for its run.
//
// Entries are computed under a per-key sync.Once, so concurrent workers
// asking for the same key block on one computation instead of duplicating
// it. Entries are shared read-only; callers copy the winners out. A nil
// *Engine computes every call afresh, without a memo and without counting.
type Engine struct {
	mu                        sync.Mutex
	memo                      map[Config]*memoEntry
	hits, misses, prefiltered atomic.Int64
}

// NewEngine returns an engine with an empty memo.
func NewEngine() *Engine { return &Engine{memo: make(map[Config]*memoEntry)} }

// EngineStats counts memo hits (winners that existed or were being
// computed), memo misses (winners computed), and configurations
// PrefilterTargets proved infeasible.
type EngineStats struct{ MemoHits, MemoMisses, Prefiltered int64 }

// Stats reads the counters; a nil engine reports zeros.
func (e *Engine) Stats() EngineStats {
	if e == nil {
		return EngineStats{}
	}
	return EngineStats{e.hits.Load(), e.misses.Load(), e.prefiltered.Load()}
}

// MemoStats reports 0, 0: each Engine counts its own memo (Engine.Stats).
// It remains for callers written against the process-wide memo.
func MemoStats() (hits, misses int64) { return 0, 0 }

// memoKey fingerprints a normalized Config in exactly one place: the
// Config with its target cleared. Every coordinate of a study's PointSpec
// that affects characterization (cell — which carries bits-per-cell —
// capacity, word width, constraints) is a Config field; axes that only
// affect evaluation (write buffer, fault mode) deliberately are not, so
// those sweep points share one characterization. cell.Definition contains
// only scalars and strings, so the key is a comparable value.
func (cfg Config) memoKey() Config {
	cfg.Target = 0
	return cfg
}

type memoEntry struct {
	once sync.Once
	best [numOptTargets]Result // indexed by OptTarget
	err  error
}

// memoMaxEntries bounds one engine's memo as a guard for a long-lived
// process sweeping arbitrary custom cells. At eight winners (~3.0 KB) per
// key the cap holds about 3 MB; past it, new keys are computed without
// being retained (existing entries keep hitting). The whole paper registry
// uses 66 keys.
const memoMaxEntries = 1024

// winners returns the per-target winners for a normalized configuration:
// from the memo, computing them at most once per key, or afresh on a nil
// engine. The array is shared: callers must not mutate it.
func (e *Engine) winners(cfg Config) (*[numOptTargets]Result, error) {
	if e == nil {
		var best [numOptTargets]Result
		err := bestPerTarget(&cfg, &best)
		return &best, err
	}
	key := cfg.memoKey()
	e.mu.Lock()
	entry, ok := e.memo[key]
	if !ok {
		entry = &memoEntry{}
		if len(e.memo) < memoMaxEntries { // else: compute without retaining
			e.memo[key] = entry
		}
	}
	e.mu.Unlock()
	if ok {
		e.hits.Add(1)
	} else {
		e.misses.Add(1)
	}
	entry.once.Do(func() { entry.err = bestPerTarget(&cfg, &entry.best) })
	return &entry.best, entry.err
}
