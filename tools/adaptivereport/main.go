// Command adaptivereport generates the EXPERIMENTS.md record for the
// adaptive exploration planner: a budget-vs-frontier-recall curve on the
// Table II and write-buffer×fault reference studies, and the engine-work
// reduction of an unbudgeted adaptive run against the exhaustive walk of a
// 512-point synthetic grid. Every number it prints is deterministic
// (fixed seeds, analytical engine), so re-running it reproduces the
// recorded tables exactly.
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/nvsim"
	"repro/internal/traffic"
)

// tableIIRef is the Table II-style reference grid: 3 tentpole cells × 20
// geometric capacities (64 KiB..32 MiB doublings), frontier on array read
// latency and read energy.
func tableIIRef() *core.Study {
	s := core.NewStudy("adaptive-tableii-ref")
	s.AddTentpole(cell.STT, cell.Optimistic)
	s.AddTentpole(cell.FeFET, cell.Optimistic)
	s.AddTentpole(cell.RRAM, cell.Optimistic)
	for i := 0; i < 20; i++ {
		s.AddCapacity(64 << 10 << i)
	}
	s.AddPattern(traffic.Pattern{Name: "p", ReadsPerSec: 1e6, WritesPerSec: 1e5})
	s.Pareto = []string{"read_latency_ns", "read_energy_pj"}
	return s
}

// wbFaultRef widens the grid with categorical axes: 2 cells × 16
// capacities × 2 write buffers × 2 fault modes = 128 points.
func wbFaultRef() *core.Study {
	s := core.NewStudy("adaptive-wbfault-ref")
	s.AddTentpole(cell.STT, cell.Optimistic)
	s.AddTentpole(cell.FeFET, cell.Optimistic)
	for i := 0; i < 16; i++ {
		s.AddCapacity(64 << 10 << i)
	}
	s.AddPattern(traffic.Pattern{Name: "p", ReadsPerSec: 1e6, WritesPerSec: 1e5})
	s.WriteBuffers = []*eval.WriteBufferConfig{nil, {MaskLatency: true, BufferLatencyNS: 1}}
	s.Faults = []*eval.FaultConfig{nil, {Mode: eval.FaultRaw, Seed: 9, ProbeBytes: 256}}
	s.Pareto = []string{"read_latency_ns", "read_energy_pj"}
	return s
}

// synthetic512 is the engine-work benchmark grid: 2 cells × 32 linear
// capacities × 4 word widths × 2 write buffers = 512 points over 256
// unique characterizations.
func synthetic512() *core.Study {
	s := core.NewStudy("adaptive-synthetic-512")
	s.AddTentpole(cell.STT, cell.Optimistic)
	s.AddTentpole(cell.FeFET, cell.Optimistic)
	for i := 1; i <= 32; i++ {
		s.AddCapacity(int64(i) << 20)
	}
	s.WordBitsAxis = []int{32, 64, 128, 256}
	s.WriteBuffers = []*eval.WriteBufferConfig{nil, {TrafficReduction: 0.5}}
	s.AddPattern(traffic.Pattern{Name: "p", ReadsPerSec: 1e6, WritesPerSec: 1e5})
	s.Pareto = []string{"read_latency_ns", "read_energy_pj"}
	return s
}

// must returns v, or ends the program on err.
func must[T any](v T, err error) T {
	if err != nil {
		fmt.Fprintln(os.Stderr, "adaptivereport:", err)
		os.Exit(1)
	}
	return v
}

// run executes one study in the requested mode on a fresh engine and
// returns the results plus the unique configs it characterized (memo
// misses).
func run(s *core.Study, adaptive bool, budget int) (*core.Results, int64) {
	if adaptive {
		s.Mode = core.ModeAdaptive
		s.Budget = budget
		s.Seed = 42
	}
	s.Workers = 4
	s.Engine = nvsim.NewEngine()
	res := must(s.Run())
	return res, s.Engine.Stats().MemoMisses
}

// recall computes the fraction of the exhaustive frontier an adaptive run
// recovered, mapping adaptive frontier rows to grid indices through the
// exploration record (one result row per grid point on these studies).
func recall(ex, ad *core.Results) float64 {
	exFront := must(ex.ParetoFrontier(ex.Study.Pareto))
	adFront := must(ad.ParetoFrontier(ad.Study.Pareto))
	want := make(map[int]bool, len(exFront))
	for _, ri := range exFront {
		want[ri] = true
	}
	hit := 0
	for _, ri := range adFront {
		if want[ad.Exploration.Indices[ri]] {
			hit++
		}
	}
	return float64(hit) / float64(len(exFront))
}

func curve(w io.Writer, mk func() *core.Study, budgets []int) {
	ex, exChars := run(mk(), false, 0)
	grid := len(ex.Metrics) + len(ex.Skipped)
	fmt.Fprintf(w, "%s: %d-point grid, %d exhaustive characterizations, %d-point frontier\n",
		ex.Study.Name, grid, exChars, len(must(ex.ParetoFrontier(ex.Study.Pareto))))
	fmt.Fprintln(w, "  budget | evaluated | % of grid | characterizations | frontier recall")
	for _, b := range budgets {
		ad, chars := run(mk(), true, b)
		e := ad.Exploration
		label := fmt.Sprintf("%6d", b)
		if b == 0 {
			label = "  none"
		}
		fmt.Fprintf(w, "  %s | %9d | %8.1f%% | %17d | %14.0f%%\n",
			label, e.EvaluatedPoints, 100*float64(e.EvaluatedPoints)/float64(e.ExhaustivePoints),
			chars, 100*recall(ex, ad))
	}
	fmt.Fprintln(w)
}

// report writes the whole record to w.
func report(w io.Writer) {
	fmt.Fprintln(w, "Adaptive exploration planner — budget vs. frontier recall (seed 42)")
	fmt.Fprintln(w)
	curve(w, tableIIRef, []int{6, 9, 12, 18, 0})
	curve(w, wbFaultRef, []int{12, 24, 36, 48, 0})

	ex, exChars := run(synthetic512(), false, 0)
	ad, adChars := run(synthetic512(), true, 0)
	fmt.Fprintf(w, "%s: %d points / %d unique configs\n",
		ex.Study.Name, len(ex.Metrics), exChars)
	fmt.Fprintf(w, "  exhaustive: %d characterizations\n", exChars)
	fmt.Fprintf(w, "  adaptive:   %d characterizations (%d of %d points evaluated, %.0f%% frontier recall)\n",
		adChars, ad.Exploration.EvaluatedPoints, ad.Exploration.ExhaustivePoints, 100*recall(ex, ad))
	fmt.Fprintf(w, "  engine-work reduction: %.1fx\n", float64(exChars)/float64(adChars))
}

func main() { report(os.Stdout) }
