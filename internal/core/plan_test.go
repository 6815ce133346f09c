package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cell"
	"repro/internal/eval"
	"repro/internal/nvsim"
	"repro/internal/traffic"
)

// axisStudy builds a grid whose points share characterizations: 2 cells ×
// 1 capacity × 3 write buffers × 2 fault modes = 12 points over exactly 2
// unique (cell, capacity, word-width) configs.
func axisStudy(workers int) *Study {
	s := NewStudy("plan-dedup")
	s.AddTentpole(cell.STT, cell.Optimistic)
	s.AddTentpole(cell.FeFET, cell.Optimistic)
	s.AddCapacity(1 << 20)
	s.AddTarget(nvsim.OptReadEDP, nvsim.OptArea)
	s.AddPattern(traffic.GenericSweep(1, 10, 0.01, 0.1, 2)...)
	s.WriteBuffers = []*eval.WriteBufferConfig{
		nil,
		{MaskLatency: true, BufferLatencyNS: 1},
		{TrafficReduction: 0.5},
	}
	s.Faults = []*eval.FaultConfig{nil, {Mode: eval.FaultRaw, Seed: 3, ProbeBytes: 256}}
	s.Workers = workers
	return s
}

// TestPlanDedupesUniqueConfigs is the planner's headline property: a grid
// whose points differ only in evaluation axes characterizes each unique
// config exactly once per run — one memo lookup per config, not per point.
func TestPlanDedupesUniqueConfigs(t *testing.T) {
	nvsim.ResetMemo()
	res, err := axisStudy(1).Run()
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := nvsim.MemoStats()
	if misses != 2 || hits != 0 {
		t.Errorf("cold run: memo hits=%d misses=%d, want 0/2 (one per unique config, 12 grid points)",
			hits, misses)
	}
	specs, err := axisStudy(1).Space()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 12 {
		t.Fatalf("grid = %d points, want 12", len(specs))
	}
	if want := len(specs) * 2 /* targets */ * 4; /* patterns */ len(res.Metrics) != want {
		t.Fatalf("metrics = %d, want %d", len(res.Metrics), want)
	}
}

// TestPlannerMatchesAcrossWorkers pins planner output equality between the
// sequential and parallel plan passes, fault axes included (per-point
// seeds must land on the same points regardless of worker count).
func TestPlannerMatchesAcrossWorkers(t *testing.T) {
	seq, err := axisStudy(1).Run()
	if err != nil {
		t.Fatal(err)
	}
	par, err := axisStudy(8).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Arrays, par.Arrays) ||
		!reflect.DeepEqual(seq.Metrics, par.Metrics) ||
		!reflect.DeepEqual(seq.Skipped, par.Skipped) {
		t.Fatal("Workers=8 results diverge from Workers=1")
	}
}

// countingCache wraps an in-memory PointCache with Get/Put counters.
type countingCache struct {
	mu         sync.Mutex
	m          map[string]CachedPoint
	gets, puts int
}

func (c *countingCache) Get(key string) (CachedPoint, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gets++
	cp, ok := c.m[key]
	return cp, ok
}

func (c *countingCache) Put(key string, pt CachedPoint) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts++
	c.m[key] = pt
}

// TestPlanCacheInterplay checks the plan pass against the point cache: a
// cold run probes and fills every point; a warm run probes every point,
// characterizes nothing, and stores nothing new.
func TestPlanCacheInterplay(t *testing.T) {
	cache := &countingCache{m: map[string]CachedPoint{}}
	s := axisStudy(4)
	s.Cache = cache
	cold, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cache.gets != 12 || cache.puts != 12 {
		t.Fatalf("cold run: gets=%d puts=%d, want 12/12", cache.gets, cache.puts)
	}

	nvsim.ResetMemo()
	s2 := axisStudy(4)
	s2.Cache = cache
	warm, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cache.gets != 24 || cache.puts != 12 {
		t.Fatalf("warm run: gets=%d puts=%d, want 24/12 (no new stores)", cache.gets, cache.puts)
	}
	if hits, misses := nvsim.MemoStats(); hits != 0 || misses != 0 {
		t.Fatalf("warm run characterized: memo hits=%d misses=%d, want 0/0", hits, misses)
	}
	if !reflect.DeepEqual(cold.Metrics, warm.Metrics) || !reflect.DeepEqual(cold.Arrays, warm.Arrays) {
		t.Fatal("warm replay diverges from cold computation")
	}
}

// TestPlanSharedSkips checks that a config excluded by constraints skips
// identically on every grid point sharing it, in declaration order — and
// that the budget exclusion never reaches the engine: the 146F² SRAM
// reference cell at 4 MB is over 1.2 mm² of bare cell matrix, so the cheap
// constraint pre-filter proves it infeasible under the 0.9 mm² budget and
// only the STT config is characterized.
func TestPlanSharedSkips(t *testing.T) {
	nvsim.ResetMemo()
	ResetExplorationStats()
	s := NewStudy("plan-skips")
	s.AddTentpole(cell.SRAM, cell.Reference) // 146F² SRAM: excluded by the tight area budget
	s.AddTentpole(cell.STT, cell.Optimistic)
	s.AddCapacity(4 << 20)
	s.AddPattern(traffic.Pattern{Name: "p", ReadsPerSec: 1e6})
	s.WriteBuffers = []*eval.WriteBufferConfig{nil, {TrafficReduction: 0.25}}
	s.MaxAreaMM2 = 0.9
	s.Workers = 2
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skipped) != 2 {
		t.Fatalf("skipped = %v, want the SRAM config skipped once per sharing point", res.Skipped)
	}
	if res.Skipped[0] != res.Skipped[1] {
		t.Fatalf("points sharing a config must report identical skip lines: %v", res.Skipped)
	}
	if got := ReadExplorationStats().PrefilteredConfigs; got != 1 {
		t.Errorf("prefiltered configs = %d, want 1 (the SRAM config)", got)
	}
	if _, misses := nvsim.MemoStats(); misses != 1 {
		t.Errorf("memo misses = %d, want 1: the pre-filtered SRAM config must not reach the engine", misses)
	}
}

// TestCharacterizeShipsWinnersAndFailures: a shard ships each config that
// succeeded for every target (its winners) or failed for every target (its
// errors) — here a prefiltered config — and leaves a panicking one out. A
// study that adopts the shipped entries renders the same rows and skip
// lines as a local run, characterizing only what was left out.
func TestCharacterizeShipsWinnersAndFailures(t *testing.T) {
	build := func() *Study {
		s := NewStudy("shard-clean")
		s.AddTentpole(cell.SRAM, cell.Reference) // excluded by the area budget
		s.AddTentpole(cell.STT, cell.Optimistic)
		s.AddTentpole(cell.FeFET, cell.Optimistic) // panics on the worker
		s.AddCapacity(4 << 20)
		s.AddTarget(nvsim.OptReadEDP, nvsim.OptArea)
		s.AddPattern(traffic.Pattern{Name: "p", ReadsPerSec: 1e6})
		s.WriteBuffers = []*eval.WriteBufferConfig{nil, {TrafficReduction: 0.25}}
		s.MaxAreaMM2 = 0.9
		s.Workers = 2
		return s
	}
	want, err := build().Run()
	if err != nil {
		t.Fatal(err)
	}

	worker := build()
	specs, err := worker.Space()
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, len(specs))
	for i := range all {
		all[i] = i
	}
	testHookCharacterize = panicOnTech(cell.FeFET)
	cs, err := worker.Characterize(context.Background(), all)
	testHookCharacterize = nil
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 || cs[0].Config.Cell.Tech != cell.SRAM || len(cs[0].Arrays) != 0 || len(cs[0].Errs) != 2 ||
		cs[1].Config.Cell.Tech != cell.STT || len(cs[1].Arrays) != 2 || len(cs[1].Errs) != 0 {
		t.Fatalf("shipped %+v, want the SRAM config's 2 errors, then the STT config's 2 winners", cs)
	}

	coord := build()
	// An entry for a config no named point needs is not adopted, nor is a
	// malformed one: winners beside errors, an empty error, a short list.
	foreign := cs[1]
	foreign.Config.CapacityBytes *= 2
	mixed := cs[1]
	mixed.Errs = cs[0].Errs
	blank := cs[0]
	blank.Errs = []string{cs[0].Errs[0], ""}
	short := cs[0]
	short.Errs = cs[0].Errs[:1]
	if n := coord.Adopt(specs, all, []Characterization{foreign, mixed, blank, short}); n != 0 {
		t.Fatalf("adopted a foreign or malformed entry (covers %d)", n)
	}
	if n := coord.Adopt(specs, all, cs); n != 4 {
		t.Fatalf("adopted entries cover %d point(s), want the 2 SRAM and 2 STT points", n)
	}
	nvsim.ResetMemo()
	ResetExplorationStats()
	got, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := nvsim.MemoStats(); misses != 1 {
		t.Errorf("memo misses = %d, want 1: only the FeFET config left to characterize", misses)
	}
	if n := ReadExplorationStats().PrefilteredConfigs; n != 0 {
		t.Errorf("prefiltered configs = %d, want 0: the shipped errors stand in for the prefilter", n)
	}
	if !reflect.DeepEqual(got.Arrays, want.Arrays) || !reflect.DeepEqual(got.Metrics, want.Metrics) ||
		!reflect.DeepEqual(got.Skipped, want.Skipped) {
		t.Fatal("a run over adopted entries differs from a local run")
	}
	if len(got.Skipped) == 0 {
		t.Fatal("no skip lines: the SRAM config's shipped errors were not rendered")
	}
}
