package core

import (
	"reflect"
	"testing"

	"repro/internal/cell"
	"repro/internal/nvsim"
	"repro/internal/traffic"
)

// adaptiveRef builds the adaptive reference grid these tests share: 2 cells
// × 16 geometric capacities = 32 points, selecting on array read latency and
// energy — metrics that concentrate the frontier at small capacities, so
// refinement has regions to skip.
func adaptiveRef(workers, budget int, seed int64) *Study {
	s := NewStudy("adaptive-ref")
	s.AddTentpole(cell.STT, cell.Optimistic)
	s.AddTentpole(cell.FeFET, cell.Optimistic)
	for i := 0; i < 16; i++ {
		s.AddCapacity(64 << 10 << i)
	}
	s.AddPattern(traffic.Pattern{Name: "p", ReadsPerSec: 1e6, WritesPerSec: 1e5})
	s.Pareto = []string{"read_latency_ns", "read_energy_pj"}
	s.Mode = ModeAdaptive
	s.Budget = budget
	s.Seed = seed
	s.Workers = workers
	return s
}

// TestAdaptiveDeterministic pins the adaptive contract: the same
// (configuration, seed, budget) produces identical results across repeat
// runs and at any worker count.
func TestAdaptiveDeterministic(t *testing.T) {
	a, err := adaptiveRef(1, 10, 42).Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := adaptiveRef(1, 10, 42).Run()
	if err != nil {
		t.Fatal(err)
	}
	c, err := adaptiveRef(8, 10, 42).Run()
	if err != nil {
		t.Fatal(err)
	}
	for name, other := range map[string]*Results{"second run": b, "Workers=8": c} {
		if !reflect.DeepEqual(a.Arrays, other.Arrays) ||
			!reflect.DeepEqual(a.Metrics, other.Metrics) ||
			!reflect.DeepEqual(a.Skipped, other.Skipped) ||
			!reflect.DeepEqual(a.Exploration, other.Exploration) {
			t.Errorf("%s diverged from the first run", name)
		}
	}
}

// TestAdaptiveSubsetOfExhaustive checks that an adaptive run is a faithful
// subset of the exhaustive grid — every evaluated point's rows match the
// exhaustive run's rows for the same spec — and that the exploration
// accounting partitions the grid exactly.
func TestAdaptiveSubsetOfExhaustive(t *testing.T) {
	ex := adaptiveRef(4, 0, 0)
	ex.Mode = ""
	exRes, err := ex.Run()
	if err != nil {
		t.Fatal(err)
	}
	specs, err := ex.Space()
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive row ranges per point: every spec has 1 target × 1 pattern.
	if len(exRes.Metrics) != len(specs) {
		t.Fatalf("exhaustive rows = %d, want one per point (%d)", len(exRes.Metrics), len(specs))
	}

	ad, err := adaptiveRef(4, 0, 0).Run()
	if err != nil {
		t.Fatal(err)
	}
	e := ad.Exploration
	if e == nil {
		t.Fatal("adaptive run carries no exploration block")
	}
	if e.EvaluatedPoints+e.PrunedBudget+e.PrunedInfeasible != e.ExhaustivePoints ||
		e.ExhaustivePoints != len(specs) {
		t.Fatalf("exploration accounting does not partition the grid: %+v", e)
	}
	if len(e.Indices) != e.EvaluatedPoints || len(ad.Metrics) != e.EvaluatedPoints {
		t.Fatalf("indices/rows = %d/%d, want %d", len(e.Indices), len(ad.Metrics), e.EvaluatedPoints)
	}
	for row, idx := range e.Indices {
		if row > 0 && idx <= e.Indices[row-1] {
			t.Fatal("evaluated indices not strictly ascending")
		}
		if !reflect.DeepEqual(ad.Metrics[row], exRes.Metrics[idx]) {
			t.Errorf("point %d: adaptive row diverges from exhaustive", idx)
		}
	}
	if e.EvaluatedPoints >= len(specs) {
		t.Errorf("adaptive evaluated the whole grid (%d points): nothing was explored", e.EvaluatedPoints)
	}

	// Frontier recall on the reference grid: unbudgeted refinement must
	// recover the full exhaustive frontier.
	exFront, err := exRes.ParetoFrontier(ex.Pareto)
	if err != nil {
		t.Fatal(err)
	}
	adFront, err := ad.ParetoFrontier(ad.Study.Pareto)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int]bool, len(exFront))
	for _, ri := range exFront {
		want[ri] = true // exhaustive row index == spec index here
	}
	for _, ri := range adFront {
		delete(want, e.Indices[ri])
	}
	if len(want) != 0 {
		t.Errorf("adaptive frontier missed %d exhaustive frontier points: %v", len(want), want)
	}
}

// TestAdaptiveBudgetHalving checks the budget is a hard cap spent by
// successive halving: a budget below the first coarse round's candidate
// count still completes, evaluating exactly the budget.
func TestAdaptiveBudgetHalving(t *testing.T) {
	res, err := adaptiveRef(2, 4, 7).Run()
	if err != nil {
		t.Fatal(err)
	}
	e := res.Exploration
	if e.EvaluatedPoints != 4 {
		t.Errorf("evaluated %d points under budget 4, want exactly 4 (more candidates exist)", e.EvaluatedPoints)
	}
	if e.Rounds < 2 {
		t.Errorf("rounds = %d, want >= 2: halving may not spend the whole budget in one round", e.Rounds)
	}
}

// TestAdaptiveWarmStoreReplay checks the cache interplay: a store-warm
// adaptive run does zero engine work, replays the identical evaluated
// subset (budget counts cached points too — that is what keeps warm and
// cold runs byte-identical), and reports the shift through the telemetry
// fields.
func TestAdaptiveWarmStoreReplay(t *testing.T) {
	cache := &countingCache{m: map[string]CachedPoint{}}
	s := adaptiveRef(4, 10, 42)
	s.Cache = cache
	cold, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cold.Exploration.Characterizations == 0 {
		t.Fatal("cold run reported zero characterizations")
	}

	s2 := adaptiveRef(4, 10, 42)
	s2.Cache = cache
	s2.Engine = nvsim.NewEngine()
	warm, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Engine.Stats(); st.MemoHits != 0 || st.MemoMisses != 0 {
		t.Errorf("warm run touched the engine: %+v", st)
	}
	we := warm.Exploration
	if we.Characterizations != 0 || we.CacheHits != we.EvaluatedPoints {
		t.Errorf("warm telemetry = %d characterizations / %d cache hits, want 0 / %d",
			we.Characterizations, we.CacheHits, we.EvaluatedPoints)
	}
	if !reflect.DeepEqual(cold.Metrics, warm.Metrics) ||
		!reflect.DeepEqual(cold.Arrays, warm.Arrays) ||
		!reflect.DeepEqual(cold.Exploration.Indices, warm.Exploration.Indices) {
		t.Error("warm replay diverges from cold computation")
	}
}

// TestAdaptivePrunesInfeasible checks constraint pruning: capacities whose
// bare cell matrix exceeds the area budget are pruned from the search
// before characterization and counted in the exploration block.
func TestAdaptivePrunesInfeasible(t *testing.T) {
	s := adaptiveRef(2, 0, 0)
	s.MaxAreaMM2 = 2 // excludes the larger half of the capacity axis outright
	s.Engine = nvsim.NewEngine()
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	e := res.Exploration
	if e.PrunedInfeasible == 0 {
		t.Fatal("no points pruned by the constraint bound under a 2mm² budget")
	}
	if got := s.Engine.Stats(); got.Prefiltered == 0 || got.MemoMisses == 0 {
		t.Errorf("engine counters = %+v, want prefiltered configs beside characterized ones", got)
	}
}

// TestAdaptiveValidation covers the mode's configuration errors.
func TestAdaptiveValidation(t *testing.T) {
	noPareto := adaptiveRef(1, 0, 0)
	noPareto.Pareto = nil
	if _, err := noPareto.Run(); err == nil {
		t.Error("adaptive without pareto metrics did not error")
	}
	neg := adaptiveRef(1, 0, 0)
	neg.Budget = -1
	if _, err := neg.Run(); err == nil {
		t.Error("negative budget did not error")
	}
	bad := adaptiveRef(1, 0, 0)
	bad.Mode = "genetic"
	if _, err := bad.Run(); err == nil {
		t.Error("unknown mode did not error")
	}
}
