package nvsim

import (
	"sync"
	"sync/atomic"
)

// The memo cache. Experiments across a study session characterize the same
// tentpole cells at the same handful of capacities dozens of times (Figs
// 3/5/10 reuse the case-study cell set, Table II re-runs the same 2MB
// arrays for every use case row). The engine's pass depends only on (cell,
// capacity, word width, constraints) — never on the optimization target —
// and it keeps every target's winner, so one entry of eight winners serves
// every target and every repeat.
//
// Entries are computed under a per-key sync.Once, so concurrent workers
// asking for the same key (parallel Study.Run fans out a grid of them)
// block on one computation instead of duplicating it. Entries are shared
// read-only; callers copy the winners out.

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

var memo = struct {
	mu sync.Mutex
	m  map[Config]*memoEntry
}{m: map[Config]*memoEntry{}}

var memoHits, memoMisses atomic.Int64

// memoMaxEntries bounds the cache as a guard for a long-lived process
// sweeping arbitrary custom cells. At eight winners (~2.3 KB) per key the
// cap holds about 9 MB; past it, new keys are computed without being
// retained (existing entries keep hitting). Studies of the paper's scale
// use a few dozen keys.
const memoMaxEntries = 4096

// memoized returns the per-target winners for a normalized configuration,
// computing them at most once per key. The entry is shared: callers must
// not mutate it.
func memoized(cfg Config) *memoEntry {
	key := cfg.memoKey()
	memo.mu.Lock()
	e, ok := memo.m[key]
	if !ok {
		e = &memoEntry{}
		if len(memo.m) < memoMaxEntries { // else: compute without retaining
			memo.m[key] = e
		}
	}
	memo.mu.Unlock()
	if ok {
		memoHits.Add(1)
	} else {
		memoMisses.Add(1)
	}
	e.once.Do(func() { e.err = bestPerTarget(&cfg, &e.best) })
	return e
}

// MemoStats reports how often characterizations were served from the cache
// versus computed. A hit means the winners for the requested configuration
// already existed (or were being computed by another goroutine).
func MemoStats() (hits, misses int64) {
	return memoHits.Load(), memoMisses.Load()
}

// ResetMemo empties the cache and zeroes the counters — for tests and for
// benchmarks that want to measure the cold path.
func ResetMemo() {
	memo.mu.Lock()
	memo.m = map[Config]*memoEntry{}
	memo.mu.Unlock()
	memoHits.Store(0)
	memoMisses.Store(0)
}
