package nvsim

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/cell"
)

// seedRank reimplements the pre-engine contract verbatim: score every
// organization, keep the admissible ones, stable-sort them by the target's
// figure of merit. seedCharacterize returns the head. The engine must
// reproduce both bit for bit.
func seedRank(t *testing.T, cfg Config) []Result {
	t.Helper()
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	orgs := slices.Collect(organizations(cfg.CapacityBytes*8, cfg.Cell.BitsPerCell, cfg.WordBits))
	if len(orgs) == 0 {
		t.Fatalf("no organizations for %s", cfg.Cell.Name)
	}
	node := nodeAt(cfg.Cell.NodeNM)
	var results []Result
	var m model
	m.initCell(cfg.Cell, node, cfg.WordBits, &defaultCal)
	for _, org := range orgs {
		m.setOrg(org)
		r := Result{
			Cell: cfg.Cell, CapacityBytes: cfg.CapacityBytes,
			WordBits: cfg.WordBits, Target: cfg.Target, Org: org,
			ReadLatencyNS: m.readLatencyNS(), WriteLatencyNS: m.writeLatencyNS(),
			ReadEnergyPJ: m.readEnergyPJ(), WriteEnergyPJ: m.writeEnergyPJ(),
			LeakagePowerMW: m.leakagePowerMW(), AreaMM2: m.totalMM2,
			AreaEfficiency: m.areaEfficiency(),
		}
		if cfg.admissible(r) {
			results = append(results, r)
		}
	}
	sort.SliceStable(results, func(i, j int) bool {
		return results[i].metric(cfg.Target) < results[j].metric(cfg.Target)
	})
	return results
}

func seedCharacterize(t *testing.T, cfg Config) Result {
	t.Helper()
	return seedRank(t, cfg)[0]
}

// matchSeed asserts the engine and the single-target wrapper select exactly
// the array seedCharacterize selects for cfg, for every optimization
// target, and returns the engine's per-target winners.
func matchSeed(t *testing.T, cfg Config) []Result {
	t.Helper()
	targets := OptTargets()
	rs, errs := CharacterizeTargets(cfg, targets)
	for i, target := range targets {
		if errs[i] != nil {
			t.Fatalf("%s@%d/%s: %v", cfg.Cell.Name, cfg.CapacityBytes, target, errs[i])
		}
		one := cfg
		one.Target = target
		want := seedCharacterize(t, one)
		if rs[i] != want {
			t.Errorf("%s@%d/%s: engine selected %+v, seed selected %+v",
				cfg.Cell.Name, cfg.CapacityBytes, target, rs[i], want)
		}
		got, err := Characterize(one)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s@%d/%s: Characterize diverges from seed", cfg.Cell.Name, cfg.CapacityBytes, target)
		}
	}
	return rs
}

// TestEngineMatchesSeedSelection asserts the one-pass engine selects
// exactly the array the sequential sort-based implementation selected, for
// every optimization target: every case-study cell at three capacities, a
// narrow 64-bit word, a 2-bit MLC cell, and each constraint set tight
// enough to exclude the unconstrained winner.
func TestEngineMatchesSeedSelection(t *testing.T) {
	ResetMemo()
	defer ResetMemo()
	for _, capBytes := range []int64{1 << 20, 4 << 20, 8 << 20} {
		for _, d := range cell.CaseStudyCells() {
			matchSeed(t, Config{Cell: d, CapacityBytes: capBytes})
		}
	}
	for _, d := range cell.CaseStudyCells() {
		matchSeed(t, Config{Cell: d, CapacityBytes: 2 << 20, WordBits: 64})
	}
	mlc := cell.MustToMLC(cell.MustTentpole(cell.RRAM, cell.Optimistic), 2)
	matchSeed(t, Config{Cell: mlc, CapacityBytes: 2 << 20})

	// Each constraint sits halfway between the unconstrained optimum of its
	// own metric and the value some other target's winner reaches, so that
	// winner is excluded while the optimum stays admissible.
	d := cell.MustTentpole(cell.STT, cell.Optimistic)
	base := Config{Cell: d, CapacityBytes: 4 << 20}
	free := matchSeed(t, base)
	mid := func(lo, hi float64) float64 {
		if !(lo < hi) {
			t.Fatalf("no room for a bound between %g and %g", lo, hi)
		}
		return (lo + hi) / 2
	}
	area, lat, leak, banks := base, base, base, base
	area.MaxAreaMM2 = mid(free[OptArea].AreaMM2, free[OptReadLatency].AreaMM2)
	lat.MaxReadLatencyNS = mid(free[OptReadLatency].ReadLatencyNS, free[OptArea].ReadLatencyNS)
	leak.MaxLeakageMW = mid(free[OptLeakage].LeakagePowerMW, free[OptReadLatency].LeakagePowerMW)
	if banks.ForceBanks = free[OptReadEDP].Org.Banks / 2; banks.ForceBanks == 0 {
		banks.ForceBanks = 2
	}
	for _, c := range []struct {
		cfg      Config
		excluded OptTarget
	}{{area, OptReadLatency}, {lat, OptArea}, {leak, OptReadLatency}, {banks, OptReadEDP}} {
		if got := matchSeed(t, c.cfg); got[c.excluded] == free[c.excluded] {
			t.Errorf("constraints %+v kept the unconstrained %s winner", c.cfg, c.excluded)
		}
	}
}

// TestCharacterizeTargetsColdAllocs ratchets the cold path's garbage: one
// engine pass answering every target keeps eight winners and builds no
// candidate or organization slice.
func TestCharacterizeTargetsColdAllocs(t *testing.T) {
	defer ResetMemo()
	cfg := Config{Cell: cell.MustTentpole(cell.STT, cell.Optimistic), CapacityBytes: 2 << 20}
	targets := OptTargets()
	cold := func() {
		ResetMemo()
		if _, errs := CharacterizeTargets(cfg, targets); errs[0] != nil {
			t.Fatal(errs[0])
		}
	}
	allocs := testing.AllocsPerRun(20, cold)
	const n = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		cold()
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / n / 1024
	if allocs > 8 || kb > 8 {
		t.Errorf("cold CharacterizeTargets: %.0f allocs, %.1f KB per call; want <= 8 allocs, <= 8 KB", allocs, kb)
	}
}

// TestCharacterizeAllMatchesSeedRanking asserts the memo-free full-set
// entry point returns the seed's whole stable-sorted candidate list, ties
// included, under an unconstrained and a constrained configuration.
func TestCharacterizeAllMatchesSeedRanking(t *testing.T) {
	for _, cfg := range []Config{
		{Cell: cell.MustTentpole(cell.PCM, cell.Optimistic), CapacityBytes: 4 << 20},
		{Cell: cell.MustTentpole(cell.STT, cell.Pessimistic), CapacityBytes: 2 << 20, WordBits: 64, ForceBanks: 4},
	} {
		for _, target := range OptTargets() {
			cfg.Target = target
			got, err := CharacterizeAll(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want := seedRank(t, cfg); !slices.Equal(got, want) {
				t.Errorf("%s/%s: CharacterizeAll ranking diverges from the seed's", cfg.Cell.Name, target)
			}
		}
	}
}

// TestCharacterizeMatchesCharacterizeAllHead pins the wrapper contract:
// Characterize returns exactly CharacterizeAll's best-ranked element.
func TestCharacterizeMatchesCharacterizeAllHead(t *testing.T) {
	d := cell.MustTentpole(cell.FeFET, cell.Optimistic)
	for _, target := range OptTargets() {
		cfg := Config{Cell: d, CapacityBytes: 2 << 20, Target: target}
		all, err := CharacterizeAll(cfg)
		if err != nil {
			t.Fatal(err)
		}
		one, err := Characterize(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if one != all[0] {
			t.Errorf("%s: Characterize %+v != CharacterizeAll[0] %+v", target, one, all[0])
		}
	}
}

// TestCharacterizeTargetsConstraints ensures constraints participate in the
// memo key and in selection: a ForceBanks-restricted request must not be
// served from (or pollute) the unconstrained candidate set.
func TestCharacterizeTargetsConstraints(t *testing.T) {
	ResetMemo()
	d := cell.MustTentpole(cell.STT, cell.Optimistic)
	free, err := Characterize(Config{Cell: d, CapacityBytes: 2 << 20, Target: OptReadLatency})
	if err != nil {
		t.Fatal(err)
	}
	forced := 1
	if free.Org.Banks == 1 {
		forced = 2
	}
	constrained, err := Characterize(Config{Cell: d, CapacityBytes: 2 << 20,
		Target: OptReadLatency, ForceBanks: forced})
	if err != nil {
		t.Fatal(err)
	}
	if constrained.Org.Banks != forced {
		t.Errorf("ForceBanks=%d ignored: got %d banks", forced, constrained.Org.Banks)
	}
	again, err := Characterize(Config{Cell: d, CapacityBytes: 2 << 20, Target: OptReadLatency})
	if err != nil {
		t.Fatal(err)
	}
	if again != free {
		t.Error("unconstrained result changed after a constrained request")
	}
}

// TestCharacterizeTargetsPerSlotErrors checks error granularity: an invalid
// target fails only its own slot, while a configuration-level failure fills
// every slot.
func TestCharacterizeTargetsPerSlotErrors(t *testing.T) {
	d := cell.MustTentpole(cell.STT, cell.Optimistic)
	rs, errs := CharacterizeTargets(Config{Cell: d, CapacityBytes: 2 << 20},
		[]OptTarget{OptReadEDP, OptTarget(99)})
	if errs[0] != nil {
		t.Fatalf("valid slot errored: %v", errs[0])
	}
	if errs[1] == nil {
		t.Fatal("invalid target slot did not error")
	}
	if rs[0].Target != OptReadEDP {
		t.Errorf("slot 0 target = %v, want ReadEDP", rs[0].Target)
	}

	bad := d
	bad.AreaF2 = -1
	_, errs = CharacterizeTargets(Config{Cell: bad, CapacityBytes: 2 << 20},
		[]OptTarget{OptReadEDP, OptArea})
	for i, err := range errs {
		if err == nil {
			t.Errorf("slot %d: configuration error not replicated", i)
		}
	}
}

// TestMemoHitsOnRepeat verifies the cache contract the experiments rely on:
// re-characterizing the same configuration is served from the memo, across
// targets and entry points.
func TestMemoHitsOnRepeat(t *testing.T) {
	ResetMemo()
	d := cell.MustTentpole(cell.RRAM, cell.Optimistic)
	cfg := Config{Cell: d, CapacityBytes: 1 << 20, Target: OptReadEDP}
	if _, err := Characterize(cfg); err != nil {
		t.Fatal(err)
	}
	hits, misses := MemoStats()
	if hits != 0 || misses != 1 {
		t.Fatalf("after first call: hits=%d misses=%d, want 0/1", hits, misses)
	}
	// Same key again and a different target: hits. The full-set entry point
	// bypasses the memo, so it neither hits nor misses.
	if _, err := Characterize(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Target = OptArea
	if _, err := Characterize(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := CharacterizeAll(cfg); err != nil {
		t.Fatal(err)
	}
	hits, misses = MemoStats()
	if hits != 2 || misses != 1 {
		t.Fatalf("after repeats: hits=%d misses=%d, want 2/1", hits, misses)
	}
}

// TestMemoConcurrentCharacterize hammers one key and several distinct keys
// from many goroutines; run with -race to check the synchronization.
func TestMemoConcurrentCharacterize(t *testing.T) {
	ResetMemo()
	cells := cell.CaseStudyCells()
	var wg sync.WaitGroup
	results := make([]Result, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d := cells[i%4] // few distinct keys, heavy sharing
			r, err := Characterize(Config{Cell: d, CapacityBytes: 2 << 20, Target: OptReadEDP})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	for i := 4; i < 32; i++ {
		if results[i] != results[i%4] {
			t.Fatalf("goroutine %d saw a different result than goroutine %d", i, i%4)
		}
	}
	_, misses := MemoStats()
	if misses != 4 {
		t.Errorf("misses=%d, want 4 (singleflight should dedupe concurrent evaluations)", misses)
	}
}

// TestValidWinners pins the check every adopted shard characterization
// passes: only winners CharacterizeTargets could have returned for the
// configuration and targets, in order, are accepted.
func TestValidWinners(t *testing.T) {
	d := cell.MustTentpole(cell.STT, cell.Optimistic)
	all := OptTargets()
	key := func(capBytes int64) Config { return Config{Cell: d, CapacityBytes: capBytes} }
	winners := func(cfg Config) []Result {
		rs, errs := CharacterizeTargets(cfg, all)
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		return rs
	}
	good, foreign := winners(key(1<<20)), winners(key(2<<20))
	// The right arrays for a looser key, but filed under the wrong targets.
	loose := key(1 << 20)
	loose.MaxLeakageMW = 1e6
	mislabeled := slices.Clone(good)
	mislabeled[OptReadLatency], mislabeled[OptArea] = good[OptArea], good[OptReadLatency]

	for _, c := range []struct {
		name    string
		cfg     Config
		targets []OptTarget
		winners []Result
		want    bool
	}{
		{"good", key(1 << 20), all, good, true},
		{"good, one target", key(1 << 20), []OptTarget{OptArea}, good[OptArea : OptArea+1], true},
		{"good, looser key", loose, all, good, true},
		{"zero-filled", key(1 << 20), all, make([]Result, len(all)), false},
		{"another capacity", key(1 << 20), all, foreign, false},
		{"swapped targets, looser key", loose, all, mislabeled, false},
		{"short slice", key(1 << 20), all, good[:len(good)-1], false},
		{"long slice", key(1 << 20), all[:len(all)-1], good, false},
	} {
		if got := ValidWinners(c.cfg, c.targets, c.winners); got != c.want {
			t.Errorf("%s: ValidWinners = %v, want %v", c.name, got, c.want)
		}
	}
}
