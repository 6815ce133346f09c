package exp

import (
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/nvsim"
	"repro/internal/viz"
)

func init() {
	register(Experiment{ID: "fig9", Title: "Fig 9: SPEC CPU2017 traffic to a 16MB eNVM LLC", run: fig9})
	register(Experiment{ID: "fig14", Title: "Fig 14: write buffering changes the performance landscape", run: fig14})
}

// llcStudy evaluates the case-study cells as a 16MB LLC under SPEC traffic.
func llcStudy(eng *nvsim.Engine, opts eval.Options) (*core.Results, error) {
	s := core.NewStudy("SPEC2017 16MB LLC")
	s.Engine = eng
	s.AddCaseStudyCells()
	s.AddCapacity(cache.StudyLLCBytes)
	s.AddTarget(nvsim.OptReadEDP)
	s.AddPattern(cache.SPECTraffic()...)
	s.Options = opts
	return s.Run()
}

// fig9: power, latency, and lifetime for SPEC benchmark traffic on eNVM
// LLCs; solutions that cannot keep up are flagged rather than plotted.
func fig9(eng *nvsim.Engine) (*Result, error) {
	res, err := llcStudy(eng, eval.Options{})
	if err != nil {
		return nil, err
	}
	t := viz.NewTable("Fig 9: SPEC2017 traffic to 16MB LLC",
		"Cell", "Benchmark", "ReadAcc/s", "WriteAcc/s", "TotalMW", "MemTime/s",
		"Meets", "LifetimeY")
	for _, m := range res.Metrics {
		meets := "yes"
		if m.MemoryTimePerSec > 1 {
			meets = "EXCLUDED"
		}
		t.MustAddRow(m.Array.Cell.Name, m.Pattern.Name, m.Pattern.ReadsPerSec,
			m.Pattern.WritesPerSec, m.TotalPowerMW, m.MemoryTimePerSec, meets,
			m.LifetimeYears)
	}
	return &Result{Tables: []*viz.Table{t},
		Scatters: []*viz.Scatter{res.PowerScatter(), res.LatencyScatter(),
			res.LifetimeScatter()}}, nil
}

// fig14: the Section V-D what-if — masking write latency behind a buffer
// and/or reducing write traffic via coalescing, for SPEC2017 (aggregate)
// and the Facebook-BFS graph kernel.
func fig14(eng *nvsim.Engine) (*Result, error) {
	t := viz.NewTable("Fig 14: write buffering what-if",
		"Workload", "Cell", "Config", "TotalMW", "MemTime/s", "LifetimeY")

	type wbCase struct {
		name string
		opts eval.Options
	}
	cases := []wbCase{
		{"baseline", eval.Options{}},
		{"mask latency", eval.Options{WriteBuffer: &eval.WriteBufferConfig{
			MaskLatency: true, BufferLatencyNS: 2}}},
		{"reduce 25%", eval.Options{WriteBuffer: &eval.WriteBufferConfig{TrafficReduction: 0.25}}},
		{"reduce 50%", eval.Options{WriteBuffer: &eval.WriteBufferConfig{TrafficReduction: 0.50}}},
		{"mask + reduce 50%", eval.Options{WriteBuffer: &eval.WriteBufferConfig{
			MaskLatency: true, BufferLatencyNS: 2, TrafficReduction: 0.50}}},
	}

	// SPEC aggregate: the write-heaviest benchmark is the binding case.
	for _, c := range cases {
		res, err := llcStudy(eng, c.opts)
		if err != nil {
			return nil, err
		}
		for _, m := range res.Metrics {
			if m.Pattern.Name != "SPEC lbm" { // write-dominated representative
				continue
			}
			switch m.Array.Cell.Name {
			case "SRAM", "Opt. STT", "Opt. RRAM", "Opt. FeFET":
				t.MustAddRow("SPEC lbm", m.Array.Cell.Name, c.name,
					m.TotalPowerMW, m.MemoryTimePerSec, m.LifetimeYears)
			}
		}
	}

	// Facebook-BFS on the 8MB graph scratchpad.
	kernels, err := graphKernelPatterns()
	if err != nil {
		return nil, err
	}
	fb := kernels[0]
	for _, c := range cases {
		s := core.NewStudy("fig14 graph")
		s.Engine = eng
		s.AddCaseStudyCells()
		s.AddCapacity(8 << 20)
		s.AddTarget(nvsim.OptReadEDP)
		s.AddPattern(fb)
		s.Options = c.opts
		res, err := s.Run()
		if err != nil {
			return nil, err
		}
		for _, m := range res.Metrics {
			switch m.Array.Cell.Name {
			case "SRAM", "Opt. STT", "Opt. RRAM", "Opt. FeFET", "Pess. FeFET":
				t.MustAddRow(fb.Name, m.Array.Cell.Name, c.name,
					m.TotalPowerMW, m.MemoryTimePerSec, m.LifetimeYears)
			}
		}
	}
	return table(t), nil
}
