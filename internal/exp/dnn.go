package exp

import (
	"fmt"
	"math"

	"repro/internal/cell"
	"repro/internal/eval"
	"repro/internal/nn"
	"repro/internal/nvsim"
	"repro/internal/traffic"
	"repro/internal/viz"
)

func init() {
	register(Experiment{ID: "fig6", Title: "Fig 6: DNN accelerator — continuous power and intermittent energy/inference", run: fig6})
	register(Experiment{ID: "fig7", Title: "Fig 7: total memory energy vs inferences per day", run: fig7})
	register(Experiment{ID: "table2", Title: "Table II: preferred eNVM per DNN use case", run: table2})
}

// dnnCells is the candidate set the Section IV-A study compares.
func dnnCells() []cell.Definition {
	return []cell.Definition{
		cell.MustTentpole(cell.SRAM, cell.Reference),
		cell.MustTentpole(cell.PCM, cell.Optimistic),
		cell.MustTentpole(cell.PCM, cell.Pessimistic),
		cell.MustTentpole(cell.STT, cell.Optimistic),
		cell.MustTentpole(cell.STT, cell.Pessimistic),
		cell.MustTentpole(cell.RRAM, cell.Optimistic),
		cell.MustTentpole(cell.RRAM, cell.Reference),
		cell.MustTentpole(cell.FeFET, cell.Optimistic),
		cell.MustTentpole(cell.FeFET, cell.Pessimistic),
		cell.MustTentpole(cell.CTT, cell.Optimistic),
	}
}

// provision rounds a footprint up to the next power-of-two array capacity.
func provision(bytes int64) int64 {
	c := int64(1)
	for c < bytes {
		c <<= 1
	}
	return c
}

// fig6 (left): 2MB iso-capacity operating power under continuous 60FPS
// ResNet26 traffic, single vs multi-task, weights vs weights+activations.
// (right): energy per inference under intermittent operation at 1
// inference per second with monolithic per-task weight storage.
func fig6(eng *nvsim.Engine) (*Result, error) {
	acc := traffic.NVDLA()
	net := nn.ResNet26Edge()
	left := viz.NewTable("Fig 6 (left): continuous operating power (mW), 2MB arrays @60FPS",
		"Cell", "1task/weights", "1task/w+acts", "3task/weights", "3task/w+acts", "Meets60FPS")
	type scenario struct {
		tasks int
		use   traffic.DNNUseCase
	}
	scenarios := []scenario{{1, traffic.WeightsOnly}, {1, traffic.WeightsAndActs},
		{3, traffic.WeightsOnly}, {3, traffic.WeightsAndActs}}
	for _, d := range dnnCells() {
		arr, err := eng.Characterize(nvsim.Config{Cell: d, CapacityBytes: 2 << 20,
			Target: nvsim.OptReadEDP})
		if err != nil {
			return nil, err
		}
		row := []any{d.Name}
		meetsAll := true
		for _, sc := range scenarios {
			p := traffic.DNNTraffic(acc, &net, 60, sc.tasks, sc.use)
			m, err := eval.Evaluate(arr, p, eval.Options{})
			if err != nil {
				return nil, err
			}
			meetsAll = meetsAll && m.MeetsTaskRate
			row = append(row, m.TotalPowerMW)
		}
		row = append(row, fmt.Sprintf("%v", meetsAll))
		left.MustAddRow(row...)
	}

	right := viz.NewTable("Fig 6 (right): intermittent energy per inference (mJ) at 1 IPS",
		"Cell", "1task image", "3task image", "NLP (ALBERT)")
	albert := nn.ALBERTBase()
	type job struct {
		net   nn.NetworkShape
		tasks int
	}
	jobs := []job{{net, 1}, {net, 3}, {albert, 1}}
	for _, d := range dnnCells() {
		row := []any{d.Name}
		for _, j := range jobs {
			p := traffic.DNNTraffic(acc, &j.net, 0, j.tasks, traffic.WeightsOnly)
			capBytes := provision(p.FootprintBytes)
			arr, err := eng.Characterize(nvsim.Config{Cell: d, CapacityBytes: capBytes,
				Target: nvsim.OptReadEDP})
			if err != nil {
				return nil, err
			}
			r, err := eval.IntermittentEnergy(arr, p.ReadsPerTask, 0, 86400)
			if err != nil {
				return nil, err
			}
			row = append(row, r.PerEventMJ)
		}
		right.MustAddRow(row...)
	}
	return &Result{Tables: []*viz.Table{left, right}}, nil
}

// fig7: total daily memory energy as a function of inferences per day for
// image classification (left) and NLP (right), plus measured crossovers.
func fig7(eng *nvsim.Engine) (*Result, error) {
	acc := traffic.NVDLA()
	rates := []float64{1e2, 1e3, 1e4, 1e5, 1e6, 1e7}
	res := &Result{}
	for _, tc := range []struct {
		id  string
		net nn.NetworkShape
	}{{"image classification (ResNet26)", nn.ResNet26Edge()},
		{"NLP (ALBERT)", nn.ALBERTBase()}} {
		p := traffic.DNNTraffic(acc, &tc.net, 0, 1, traffic.WeightsOnly)
		capBytes := provision(p.FootprintBytes)
		cols := []string{"Cell"}
		for _, n := range rates {
			cols = append(cols, fmt.Sprintf("%.0e/day", n))
		}
		t := viz.NewTable("Fig 7: daily memory energy (mJ), "+tc.id, cols...)
		sc := &viz.Scatter{Title: "Fig 7: " + tc.id, XLabel: "inferences/day",
			YLabel: "memory energy per day (mJ)", LogX: true, LogY: true}
		var arrays []nvsim.Result
		for _, d := range dnnCells() {
			arr, err := eng.Characterize(nvsim.Config{Cell: d, CapacityBytes: capBytes,
				Target: nvsim.OptReadEDP})
			if err != nil {
				return nil, err
			}
			arrays = append(arrays, arr)
			row := []any{d.Name}
			for _, n := range rates {
				r, err := eval.IntermittentEnergy(arr, p.ReadsPerTask, 0, n)
				if err != nil {
					return nil, err
				}
				row = append(row, r.EnergyPerDay)
				sc.Add(d.Name, viz.Point{X: n, Y: r.EnergyPerDay})
			}
			t.MustAddRow(row...)
		}
		// Measured FeFET -> STT crossover.
		var fefet, stt *nvsim.Result
		for i := range arrays {
			switch arrays[i].Cell.Name {
			case "Opt. FeFET":
				fefet = &arrays[i]
			case "Opt. STT":
				stt = &arrays[i]
			}
		}
		if fefet != nil && stt != nil {
			x := eval.CrossoverEventsPerDay(*fefet, *stt, p.ReadsPerTask, 0, 1e2, 1e8)
			if !math.IsNaN(x) {
				row := []any{fmt.Sprintf("FeFET->STT crossover: %.3g/day", x)}
				for range rates {
					row = append(row, "")
				}
				t.MustAddRow(row...)
			}
		}
		res.Tables = append(res.Tables, t)
		res.Scatters = append(res.Scatters, sc)
	}
	return res, nil
}

// table2: the preferred eNVM per use case, task, storage strategy, and
// optimization priority, computed from this framework's models. "Opt.
// eNVM" picks among optimistic tentpoles; "Alt. eNVM" among pessimistic
// and reference cells, mirroring the paper's two columns.
func table2(eng *nvsim.Engine) (*Result, error) {
	acc := traffic.NVDLA()
	r26 := nn.ResNet26Edge()
	albert := nn.ALBERTBase()
	t := viz.NewTable("Table II: preferred eNVM per DNN use case",
		"UseCase", "Task", "Storage", "Priority", "Opt. eNVM", "Alt. eNVM")

	// CTT competes only in the "Alt" column, as in the paper's Table II
	// (its second-scale writes and 1e4 endurance keep it out of the primary
	// recommendation set).
	optSet := []cell.Definition{
		cell.MustTentpole(cell.PCM, cell.Optimistic),
		cell.MustTentpole(cell.STT, cell.Optimistic),
		cell.MustTentpole(cell.RRAM, cell.Optimistic),
		cell.MustTentpole(cell.FeFET, cell.Optimistic),
	}
	altSet := []cell.Definition{
		cell.MustTentpole(cell.PCM, cell.Pessimistic),
		cell.MustTentpole(cell.STT, cell.Pessimistic),
		cell.MustTentpole(cell.RRAM, cell.Reference),
		cell.MustTentpole(cell.FeFET, cell.Pessimistic),
		cell.MustTentpole(cell.CTT, cell.Pessimistic),
	}

	// pick returns the technology minimizing metric among feasible cells.
	pick := func(cells []cell.Definition, capBytes int64,
		metric func(nvsim.Result) (float64, bool)) string {
		bestName := "-"
		bestV := math.Inf(1)
		for _, d := range cells {
			arr, err := eng.Characterize(nvsim.Config{Cell: d, CapacityBytes: capBytes,
				Target: nvsim.OptReadEDP})
			if err != nil {
				continue
			}
			v, ok := metric(arr)
			if !ok {
				continue
			}
			if v < bestV {
				bestV = v
				bestName = d.Tech.String()
			}
		}
		return bestName
	}

	addCase := func(useCase, taskName, storage string, net nn.NetworkShape, tasks int,
		use traffic.DNNUseCase, continuous bool) {
		p := traffic.DNNTraffic(acc, &net, 60, tasks, use)
		capBytes := int64(2 << 20)
		if !continuous {
			p = traffic.DNNTraffic(acc, &net, 0, tasks, use)
			capBytes = provision(p.FootprintBytes)
		}
		powerMetric := func(arr nvsim.Result) (float64, bool) {
			if continuous {
				m, err := eval.Evaluate(arr, p, eval.Options{})
				if err != nil || !m.MeetsTaskRate {
					return 0, false
				}
				return m.TotalPowerMW, true
			}
			r, err := eval.IntermittentEnergy(arr, p.ReadsPerTask, p.WritesPerTask, 86400)
			if err != nil {
				return 0, false
			}
			// Intermittent candidates must still keep up at 1 IPS.
			lat := p.ReadsPerTask * arr.ReadLatencyNS * 1e-9
			if lat > 1 {
				return 0, false
			}
			return r.PerEventMJ, true
		}
		densityMetric := func(arr nvsim.Result) (float64, bool) {
			if arr.Cell.Volatile() {
				return 0, false
			}
			return -arr.DensityMbPerMM2(), true
		}
		priority := "Low Power"
		if !continuous {
			priority = "Low Energy/Inf"
		}
		t.MustAddRow(useCase, taskName, storage, priority,
			pick(optSet, capBytes, powerMetric), pick(altSet, capBytes, powerMetric))
		t.MustAddRow(useCase, taskName, storage, "High Density",
			pick(optSet, capBytes, densityMetric), pick(altSet, capBytes, densityMetric))
	}

	addCase("Continuous(60FPS)", "Single-Task Image", "Weights Only", r26, 1, traffic.WeightsOnly, true)
	addCase("Continuous(60FPS)", "Single-Task Image", "Weights+Acts", r26, 1, traffic.WeightsAndActs, true)
	addCase("Continuous(60FPS)", "Multi-Task Image", "Weights Only", r26, 3, traffic.WeightsOnly, true)
	addCase("Continuous(60FPS)", "Multi-Task Image", "Weights+Acts", r26, 3, traffic.WeightsAndActs, true)
	addCase("Intermittent(1IPS)", "Single-Task Image", "Weights Only", r26, 1, traffic.WeightsOnly, false)
	addCase("Intermittent(1IPS)", "Multi-Task Image", "Weights Only", r26, 3, traffic.WeightsOnly, false)
	addCase("Intermittent(1IPS)", "Sentence Classification", "All Weights", albert, 1, traffic.WeightsOnly, false)
	addCase("Intermittent(1IPS)", "Multi-Task NLP", "All Weights", albert, 2, traffic.WeightsOnly, false)
	return table(t), nil
}
