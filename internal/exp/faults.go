package exp

import (
	"fmt"
	"sync"

	"repro/internal/cell"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/nvsim"
	"repro/internal/viz"
)

func init() {
	register(Experiment{ID: "fig13", Title: "Fig 13: SLC vs MLC density and inference accuracy under faults", run: fig13})
}

// The trained classifier is shared across invocations (training is the
// expensive step).
var (
	clsOnce sync.Once
	clsQ    *nn.QuantizedMLP
	clsTest *nn.Dataset
	clsErr  error
)

func classifier() (*nn.QuantizedMLP, *nn.Dataset, error) {
	clsOnce.Do(func() { _, clsQ, clsTest, clsErr = nn.ReferenceClassifier() })
	return clsQ, clsTest, clsErr
}

// accuracyFor runs the measured fault-injection pipeline for one cell.
func accuracyFor(d cell.Definition, trials int) (float64, error) {
	q, test, err := classifier()
	if err != nil {
		return 0, err
	}
	var working *nn.QuantizedMLP
	return fault.AccuracyUnderFaults(fault.Model{Cell: d},
		fault.TrialConfig{Trials: trials, Seed: 2024},
		func() [][]byte {
			working = q.Clone()
			bufs := make([][]byte, len(working.Layers))
			for i := range working.Layers {
				bufs[i] = working.WeightBytes(i)
			}
			return bufs
		},
		func() float64 { return working.Accuracy(test) })
}

// fig13: for 8MB and 16MB arrays across SLC and 2-bit MLC RRAM, FeFET, and
// CTT cells, report density, read performance, BER, and measured inference
// accuracy, and flag configurations failing the accuracy target — the
// paper's finding that MLC RRAM is robust while MLC FeFET is acceptable
// only at larger cell sizes.
func fig13(eng *nvsim.Engine) (*Result, error) {
	q, test, err := classifier()
	if err != nil {
		return nil, err
	}
	clean := q.Accuracy(test)
	const tolerance = 0.02
	const trials = 8

	t := viz.NewTable("Fig 13: SLC vs 2-bit MLC under measured fault injection",
		"Cell", "Capacity", "Mb/mm2", "ReadNS", "BER", "Accuracy", "Acceptable")
	sc := &viz.Scatter{Title: "Fig 13: density vs accuracy", XLabel: "Mb/mm²",
		YLabel: "inference accuracy", LogX: true}

	cells := []cell.Definition{
		cell.MustTentpole(cell.RRAM, cell.Optimistic),
		cell.MustToMLC(cell.MustTentpole(cell.RRAM, cell.Optimistic), 2),
		cell.MustTentpole(cell.FeFET, cell.Optimistic),
		cell.MustToMLC(cell.MustTentpole(cell.FeFET, cell.Optimistic), 2),  // small cell
		cell.MustToMLC(cell.MustTentpole(cell.FeFET, cell.Pessimistic), 2), // large cell
		cell.MustTentpole(cell.CTT, cell.Optimistic),
		cell.MustToMLC(cell.MustTentpole(cell.CTT, cell.Optimistic), 2),
	}
	for _, capBytes := range []int64{8 << 20, 16 << 20} {
		for _, d := range cells {
			arr, err := eng.Characterize(nvsim.Config{Cell: d, CapacityBytes: capBytes,
				Target: nvsim.OptReadEDP})
			if err != nil {
				return nil, err
			}
			acc, err := accuracyFor(d, trials)
			if err != nil {
				return nil, err
			}
			ber := fault.Model{Cell: d}.BER()
			ok := clean-acc <= tolerance
			verdict := "yes"
			if !ok {
				verdict = "FAILS TARGET"
			}
			t.MustAddRow(d.Name, fmt.Sprintf("%dMiB", capBytes>>20),
				arr.DensityMbPerMM2(), arr.ReadLatencyNS, ber, acc, verdict)
			sc.Add(d.Name, viz.Point{X: arr.DensityMbPerMM2(), Y: acc})
		}
	}
	return &Result{Tables: []*viz.Table{t}, Scatters: []*viz.Scatter{sc}}, nil
}
