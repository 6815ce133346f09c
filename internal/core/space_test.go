package core

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/cell"
	"repro/internal/eval"
	"repro/internal/nvsim"
	"repro/internal/traffic"
)

// TestSpaceLegacyOrder pins the enumeration order of a legacy-shaped study
// (no optional axes): cell-major, then capacity — exactly what Study.Run
// iterated before the DesignSpace refactor.
func TestSpaceLegacyOrder(t *testing.T) {
	s := NewStudy("order").
		AddTentpole(cell.STT, cell.Optimistic).
		AddTentpole(cell.FeFET, cell.Optimistic).
		AddCapacity(1<<20, 2<<20)
	specs, err := s.Space()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 4 {
		t.Fatalf("grid = %d, want 4", len(specs))
	}
	wantCells := []string{"Opt. STT", "Opt. STT", "Opt. FeFET", "Opt. FeFET"}
	wantCaps := []int64{1 << 20, 2 << 20, 1 << 20, 2 << 20}
	for i, spec := range specs {
		if spec.Index != i {
			t.Errorf("specs[%d].Index = %d", i, spec.Index)
		}
		if spec.Cell.Name != wantCells[i] || spec.CapacityBytes != wantCaps[i] {
			t.Errorf("specs[%d] = (%s, %d), want (%s, %d)",
				i, spec.Cell.Name, spec.CapacityBytes, wantCells[i], wantCaps[i])
		}
		if spec.WordBits != 0 || spec.WriteBuffer != nil || spec.Fault != nil {
			t.Errorf("specs[%d] has non-default optional axes", i)
		}
	}
}

// TestBitsPerCellAxisMatchesCloning is the equivalence guarantee for the
// bits-per-cell axis: a study using the axis must produce results identical
// to the old sweep-side path that pre-cloned MLC variants of every cell
// into the Cells list (bits-major order, volatile cells SLC-only).
func TestBitsPerCellAxisMatchesCloning(t *testing.T) {
	pattern := traffic.Pattern{Name: "p", ReadsPerSec: 1e6, WritesPerSec: 1e4}

	axis := NewStudy("bpc").
		AddTentpole(cell.SRAM, cell.Reference).
		AddTentpole(cell.RRAM, cell.Optimistic).
		AddTentpole(cell.FeFET, cell.Optimistic).
		AddCapacity(1 << 20).
		AddPattern(pattern)
	axis.BitsPerCell = []int{1, 2}

	cloned := NewStudy("bpc").
		AddCapacity(1 << 20).
		AddPattern(pattern)
	// The historical expansion: for each bits value, clone every cell that
	// supports it, keeping bits-major order.
	for _, b := range []int{1, 2} {
		for _, base := range []cell.Definition{
			cell.MustTentpole(cell.SRAM, cell.Reference),
			cell.MustTentpole(cell.RRAM, cell.Optimistic),
			cell.MustTentpole(cell.FeFET, cell.Optimistic),
		} {
			md, err := cell.ToMLC(base, b)
			if err != nil {
				if b == 1 {
					t.Fatal(err)
				}
				continue
			}
			cloned.AddCell(md)
		}
	}

	wantGrid := len(cloned.Cells) // 3 SLC + 2 MLC
	specs, err := axis.Space()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != wantGrid {
		t.Fatalf("axis grid = %d, want %d", len(specs), wantGrid)
	}

	want, err := cloned.Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := axis.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Arrays, got.Arrays) {
		t.Error("bits-per-cell axis Arrays diverge from the cell-cloning path")
	}
	if !reflect.DeepEqual(want.Metrics, got.Metrics) {
		t.Error("bits-per-cell axis Metrics diverge from the cell-cloning path")
	}
	if !reflect.DeepEqual(want.Skipped, got.Skipped) {
		t.Error("bits-per-cell axis Skipped diverge from the cell-cloning path")
	}
}

// TestMultiAxisSpace checks a four-axis cross product: grid size, innermost
// axis ordering, and per-point seed derivation for the fault axis.
func TestMultiAxisSpace(t *testing.T) {
	s := NewStudy("multi").
		AddTentpole(cell.RRAM, cell.Optimistic).
		AddCapacity(1<<20, 2<<20)
	s.BitsPerCell = []int{1, 2}
	s.WordBitsAxis = []int{256, 512}
	s.WriteBuffers = []*eval.WriteBufferConfig{nil, {TrafficReduction: 0.5}}
	s.Faults = []*eval.FaultConfig{{Mode: eval.FaultNone}, {Mode: eval.FaultSECDED, Seed: 100}}

	specs, err := s.Space()
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 1 * 2 * 2 * 2 * 2 // bits x cells x caps x words x buffers x faults
	if len(specs) != want {
		t.Fatalf("grid = %d, want %d", len(specs), want)
	}
	// The fault axis is innermost: consecutive specs alternate modes.
	if specs[0].Fault.Mode != eval.FaultNone || specs[1].Fault.Mode != eval.FaultSECDED {
		t.Error("fault axis should vary fastest")
	}
	// Per-point seeds: base seed + point index, so distinct and reproducible.
	seen := map[int64]bool{}
	for _, spec := range specs {
		if spec.Fault.Mode != eval.FaultSECDED {
			continue
		}
		wantSeed := 100 + int64(spec.Index)
		if spec.Fault.Seed != wantSeed {
			t.Fatalf("spec %d fault seed = %d, want %d", spec.Index, spec.Fault.Seed, wantSeed)
		}
		if seen[spec.Fault.Seed] {
			t.Fatalf("duplicate fault seed %d", spec.Fault.Seed)
		}
		seen[spec.Fault.Seed] = true
	}
}

// TestMultiAxisRunDeterministic runs a multi-axis study (with a fault axis,
// whose injection probe is the only RNG in the pipeline) at several worker
// counts and requires identical results.
func TestMultiAxisRunDeterministic(t *testing.T) {
	build := func(workers int) *Study {
		s := NewStudy("det").
			AddTentpole(cell.RRAM, cell.Optimistic).
			AddTentpole(cell.FeFET, cell.Optimistic).
			AddCapacity(1 << 20).
			AddPattern(traffic.Pattern{Name: "p", ReadsPerSec: 1e6, WritesPerSec: 1e4})
		s.BitsPerCell = []int{1, 2}
		s.WriteBuffers = []*eval.WriteBufferConfig{nil, {MaskLatency: true, BufferLatencyNS: 2}}
		s.Faults = []*eval.FaultConfig{{Mode: eval.FaultRaw, Seed: 7}, {Mode: eval.FaultSECDED, Seed: 7}}
		s.Workers = workers
		return s
	}
	want, err := build(1).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 8} {
		got, err := build(workers).Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Metrics, got.Metrics) {
			t.Fatalf("workers=%d: multi-axis metrics diverge from sequential", workers)
		}
	}
	// Fault summaries must actually be attached and seeded per point.
	sawFault := false
	for _, m := range want.Metrics {
		if m.Fault != nil {
			sawFault = true
			if m.Fault.RawBER <= 0 {
				t.Error("fault summary has non-positive raw BER")
			}
		}
	}
	if !sawFault {
		t.Fatal("no fault summaries on a fault-axis study")
	}
}

// TestSpaceErrors covers axis validation.
func TestSpaceErrors(t *testing.T) {
	base := func() *Study {
		return NewStudy("bad").
			AddTentpole(cell.RRAM, cell.Optimistic).
			AddCapacity(1 << 20).
			AddPattern(traffic.Pattern{Name: "p", ReadsPerSec: 1})
	}
	s := base()
	s.BitsPerCell = []int{5}
	if _, err := s.Space(); err == nil {
		t.Error("bits per cell 5 should error")
	}
	s = base()
	s.WordBitsAxis = []int{-1}
	if _, err := s.Space(); err == nil {
		t.Error("negative word bits should error")
	}
	s = base()
	s.WriteBuffers = []*eval.WriteBufferConfig{{TrafficReduction: 2}}
	if _, err := s.Space(); err == nil {
		t.Error("invalid write-buffer axis value should error")
	}
	s = base()
	s.Cells = []cell.Definition{cell.MustTentpole(cell.SRAM, cell.Reference)}
	s.BitsPerCell = []int{2}
	if _, err := s.Space(); err == nil {
		t.Error("an all-infeasible design space should error")
	}
	s = base()
	s.Pareto = []string{"vibes"}
	if _, err := s.Run(); err == nil {
		t.Error("unknown pareto metric should fail the run")
	}
}

// TestParetoFrontierSelection checks dominance, optimization sense, and
// validation of the frontier selection.
func TestParetoFrontierSelection(t *testing.T) {
	mk := func(power, memTime, lifetime float64) eval.Metrics {
		return eval.Metrics{TotalPowerMW: power, MemoryTimePerSec: memTime, LifetimeYears: lifetime}
	}
	r := &Results{Study: NewStudy("p"), Metrics: []eval.Metrics{
		mk(1, 5, 10),  // frontier (best power)
		mk(2, 2, 10),  // frontier (trade-off)
		mk(3, 2, 10),  // dominated by [1]
		mk(5, 1, 10),  // frontier (best latency; ties [5] on these metrics)
		mk(5, 5, 10),  // dominated by everything
		mk(5, 1, 100), // ties [3] on power/latency, wins on lifetime
	}}
	// Ties survive: rows 3 and 5 are identical on the selected metrics, so
	// neither dominates the other and both stay.
	front, err := r.ParetoFrontier([]string{"total_power_mw", "mem_time_per_sec"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 3, 5}; !reflect.DeepEqual(front, want) {
		t.Errorf("2-metric frontier = %v, want %v", front, want)
	}
	// Adding the maximized lifetime metric breaks the tie: row 5 now
	// strictly dominates row 3.
	front, err = r.ParetoFrontier([]string{"total_power_mw", "mem_time_per_sec", "lifetime_years"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(front, []int{0, 1, 5}) {
		t.Errorf("3-metric frontier = %v, want [0 1 5]", front)
	}

	if _, err := r.ParetoFrontier(nil); err == nil {
		t.Error("empty metric list should error")
	}
	if _, err := r.ParetoFrontier([]string{"nope"}); err == nil {
		t.Error("unknown metric should error")
	}
	if _, err := r.ParetoFrontier([]string{"area_mm2", "area_mm2"}); err == nil {
		t.Error("duplicate metric should error")
	}

	// SelectPareto stores the frontier; scatters pick it up as emphasis.
	if _, err := r.SelectPareto("total_power_mw", "mem_time_per_sec"); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Frontier, []int{0, 1, 3, 5}) {
		t.Errorf("stored frontier = %v", r.Frontier)
	}
}

// TestParetoFrontierProperty: over random two-metric rows, the frontier is
// ascending, no row dominates a member, and some row dominates every
// non-member.
func TestParetoFrontierProperty(t *testing.T) {
	metrics := []string{"total_power_mw", "mem_time_per_sec"}
	f := func(raw []uint16) bool {
		r := &Results{Study: NewStudy("p")}
		for i := 0; i+1 < len(raw); i += 2 {
			r.Metrics = append(r.Metrics, eval.Metrics{
				TotalPowerMW: float64(raw[i] % 100), MemoryTimePerSec: float64(raw[i+1] % 100)})
		}
		front, err := r.ParetoFrontier(metrics)
		if err != nil {
			return false
		}
		dominates := func(a, b eval.Metrics) bool {
			return a.TotalPowerMW <= b.TotalPowerMW && a.MemoryTimePerSec <= b.MemoryTimePerSec &&
				(a.TotalPowerMW < b.TotalPowerMW || a.MemoryTimePerSec < b.MemoryTimePerSec)
		}
		member := map[int]bool{}
		for k, i := range front {
			if k > 0 && front[k-1] >= i {
				return false
			}
			member[i] = true
		}
		for i, m := range r.Metrics {
			dominated := false
			for _, p := range r.Metrics {
				dominated = dominated || dominates(p, m)
			}
			if dominated == member[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestStudyRunParetoEndToEnd runs a real study with a Pareto declaration
// and checks the frontier is computed, sane, and highlighted.
func TestStudyRunParetoEndToEnd(t *testing.T) {
	s := NewStudy("pareto").
		AddCaseStudyCells().
		AddCapacity(1 << 20).
		AddPattern(traffic.Pattern{Name: "p", ReadsPerSec: 1e6, WritesPerSec: 1e4})
	s.Pareto = []string{"total_power_mw", "mem_time_per_sec"}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.EnsureFrontier(); err != nil {
		t.Fatal(err)
	}
	if len(res.Frontier) == 0 || len(res.Frontier) > len(res.Metrics) {
		t.Fatalf("frontier size %d of %d", len(res.Frontier), len(res.Metrics))
	}
	// Every non-frontier point must be dominated by some frontier point.
	front := res.frontierSet()
	for i, m := range res.Metrics {
		if front[i] {
			continue
		}
		dominated := false
		for _, j := range res.Frontier {
			f := res.Metrics[j]
			if f.TotalPowerMW <= m.TotalPowerMW && f.MemoryTimePerSec <= m.MemoryTimePerSec &&
				(f.TotalPowerMW < m.TotalPowerMW || f.MemoryTimePerSec < m.MemoryTimePerSec) {
				dominated = true
				break
			}
		}
		if !dominated {
			t.Fatalf("non-frontier point %d is not dominated", i)
		}
	}
	// The scatter view emphasizes exactly the frontier points.
	emph := 0
	for _, ser := range res.PowerScatter().Series {
		for _, p := range ser.Points {
			if p.Emph {
				emph++
			}
		}
	}
	if emph != len(res.Frontier) {
		t.Errorf("scatter emphasizes %d points, frontier has %d", emph, len(res.Frontier))
	}
}

// TestRunBatchesTargetsStillOnePassPerSpec re-checks the memo contract
// under the PointSpec refactor: a T-target study still records exactly one
// engine evaluation per design point.
func TestRunBatchesTargetsStillOnePassPerSpec(t *testing.T) {
	nvsim.ResetMemo()
	s := NewStudy("memo-spec")
	s.AddTentpole(cell.RRAM, cell.Optimistic)
	s.AddCapacity(1 << 20)
	s.BitsPerCell = []int{1, 2}
	s.AddTarget(nvsim.OptReadLatency, nvsim.OptArea)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, misses := nvsim.MemoStats(); misses != 2 {
		t.Errorf("misses = %d, want 2 (one per (cell, bits) spec)", misses)
	}
}
