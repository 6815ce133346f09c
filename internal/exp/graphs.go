package exp

import (
	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/nvsim"
	"repro/internal/traffic"
	"repro/internal/viz"
)

func init() {
	register(Experiment{ID: "fig8", Title: "Fig 8: graph processing — power, latency, lifetime", run: fig8})
	register(Experiment{ID: "fig11", Title: "Fig 11: back-gated FeFET co-design", run: fig11})
}

// graphKernelPatterns runs BFS on the two synthetic social graphs through
// the Graphicionado-class engine and returns their traffic (the pink
// points of Fig 8), cached across experiments.
func graphKernelPatterns() ([]traffic.Pattern, error) {
	fb, wiki, err := graph.SocialGraphs()
	if err != nil {
		return nil, err
	}
	e := graph.Graphicionado()
	var out []traffic.Pattern
	for _, tc := range []struct {
		name string
		g    *graph.CSR
	}{{"Facebook-BFS", fb}, {"Wikipedia-BFS", wiki}} {
		_, st, err := graph.BFS(tc.g, 0)
		if err != nil {
			return nil, err
		}
		p, err := e.Traffic(tc.name, tc.g, st)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// graphStudy builds the Section IV-B study: 8MB arrays under the generic
// graph traffic envelope plus the BFS kernel points.
func graphStudy(eng *nvsim.Engine, extraCells ...cell.Definition) (*core.Results, error) {
	s := core.NewStudy("graph processing (8MB)")
	s.Engine = eng
	s.AddCaseStudyCells()
	for _, d := range extraCells {
		s.AddCell(d)
	}
	s.AddCapacity(8 << 20)
	s.AddTarget(nvsim.OptReadEDP)
	// The generic envelope covers the graph-kernel demands (1-10GB/s reads,
	// 1-100MB/s writes) and extends a decade below so the plot exposes the
	// leakage-dominated regime where FeFET wins (the paper's "<1e7 reads/s"
	// region).
	s.AddPattern(traffic.GenericSweep(0.05, 10, 0.001, 0.1, 5)...)
	kernels, err := graphKernelPatterns()
	if err != nil {
		return nil, err
	}
	s.AddPattern(kernels...)
	return s.Run()
}

// fig8: memory power vs read traffic, memory latency vs write traffic, and
// projected lifetime for graph processing.
func fig8(eng *nvsim.Engine) (*Result, error) {
	res, err := graphStudy(eng)
	if err != nil {
		return nil, err
	}
	t := viz.NewTable("Fig 8: graph traffic summary (8MB arrays)",
		"Cell", "Pattern", "ReadGB/s", "WriteMB/s", "TotalMW", "MemTime/s", "LifetimeY")
	for _, m := range res.Metrics {
		t.MustAddRow(m.Array.Cell.Name, m.Pattern.Name,
			m.Pattern.ReadBandwidthGBs(), m.Pattern.WriteBandwidthGBs()*1000,
			m.TotalPowerMW, m.MemoryTimePerSec, m.LifetimeYears)
	}
	return &Result{
		Tables: []*viz.Table{t},
		Scatters: []*viz.Scatter{
			res.PowerScatter(), res.LatencyScatter(), res.LifetimeScatter(),
		},
	}, nil
}

// fig11: re-run the graph study with back-gated FeFETs (Section V-A) and
// compare them against prior FeFETs and SRAM, including the 8MB array
// characterization panel.
func fig11(eng *nvsim.Engine) (*Result, error) {
	res, err := graphStudy(eng, cell.MustTentpole(cell.BGFeFET, cell.Reference))
	if err != nil {
		return nil, err
	}
	keep := map[string]bool{"SRAM": true, "Opt. FeFET": true, "Pess. FeFET": true,
		"BG FeFET": true, "Opt. STT": true}
	t := viz.NewTable("Fig 11: back-gated FeFET vs prior FeFETs (8MB)",
		"Cell", "Pattern", "TotalMW", "MemTime/s")
	power := &viz.Scatter{Title: "Fig 11: power vs read traffic", XLabel: "reads/s",
		YLabel: "total power (mW)", LogX: true, LogY: true}
	lat := &viz.Scatter{Title: "Fig 11: latency vs write traffic", XLabel: "writes/s",
		YLabel: "memory time per second", LogX: true, LogY: true}
	for _, m := range res.Metrics {
		if !keep[m.Array.Cell.Name] {
			continue
		}
		t.MustAddRow(m.Array.Cell.Name, m.Pattern.Name, m.TotalPowerMW, m.MemoryTimePerSec)
		power.Add(m.Array.Cell.Name, viz.Point{X: m.Pattern.ReadsPerSec, Y: m.TotalPowerMW})
		lat.Add(m.Array.Cell.Name, viz.Point{X: m.Pattern.WritesPerSec, Y: m.MemoryTimePerSec})
	}
	// Array characterization panel (Fig 11 right).
	arrays := viz.NewTable("Fig 11 (right): 8MB array characterization",
		"Cell", "ReadNS", "ReadE/b[pJ]", "WriteNS", "Mb/mm2")
	for _, d := range []cell.Definition{
		cell.MustTentpole(cell.FeFET, cell.Optimistic),
		cell.MustTentpole(cell.FeFET, cell.Pessimistic),
		cell.MustTentpole(cell.BGFeFET, cell.Reference),
		cell.MustTentpole(cell.SRAM, cell.Reference),
	} {
		r, err := eng.Characterize(nvsim.Config{Cell: d, CapacityBytes: 8 << 20,
			Target: nvsim.OptReadEDP})
		if err != nil {
			return nil, err
		}
		arrays.MustAddRow(d.Name, r.ReadLatencyNS, r.ReadEnergyPerBitPJ(),
			r.WriteLatencyNS, r.DensityMbPerMM2())
	}
	return &Result{Tables: []*viz.Table{t, arrays},
		Scatters: []*viz.Scatter{power, lat}}, nil
}
