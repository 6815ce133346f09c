package exp

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/fault"
	"repro/internal/nvsim"
	"repro/internal/viz"
)

func init() {
	register(Experiment{ID: "ecc", Title: "Extension: SECDED ECC vs MLC FeFET cell size (MaxNVM-style mitigation)", run: eccStudy})
}

// accuracyWithECC runs the fault pipeline with SECDED protection: protect
// each stored layer, inject faults into data AND parity, correct, evaluate.
func accuracyWithECC(d cell.Definition, trials int) (float64, error) {
	q, test, err := classifier()
	if err != nil {
		return 0, err
	}
	model := fault.Model{Cell: d}
	ber := model.BER()
	sum := 0.0
	for trial := 0; trial < trials; trial++ {
		in := fault.NewInjector(5000 + int64(trial))
		working := q.Clone()
		for i := range working.Layers {
			data := working.WeightBytes(i)
			parity := fault.Protect(data)
			if _, err := in.Inject(data, ber); err != nil {
				return 0, err
			}
			if _, err := in.Inject(parity, ber); err != nil {
				return 0, err
			}
			if _, err := fault.Correct(data, parity); err != nil {
				return 0, err
			}
		}
		sum += working.Accuracy(test)
	}
	return sum / float64(trials), nil
}

// eccStudy sweeps 2-bit MLC FeFET cell sizes and shows where SECDED
// protection rescues accuracy that raw storage loses — extending the
// Fig 13 density-vs-reliability study with the error-mitigation axis the
// paper's reliability lineage (MaxNVM [112]) advocates.
func eccStudy(*nvsim.Engine) (*Result, error) {
	q, test, err := classifier()
	if err != nil {
		return nil, err
	}
	clean := q.Accuracy(test)
	const tolerance = 0.02
	const trials = 8

	t := viz.NewTable("Extension: SECDED(72,64) on 2-bit MLC FeFET across cell sizes",
		"AreaF2", "RawBER", "ResidualBER", "Acc raw", "Acc SECDED",
		"Verdict raw", "Verdict SECDED")
	base := cell.MustTentpole(cell.FeFET, cell.Optimistic)
	for _, areaF2 := range []float64{4, 8, 16, 32, 103} {
		d := base
		d.AreaF2 = areaF2
		d.Name = fmt.Sprintf("FeFET %gF²", areaF2)
		mlc, err := cell.ToMLC(d, 2)
		if err != nil {
			return nil, err
		}
		rawBER := fault.Model{Cell: mlc}.BER()
		accRaw, err := accuracyFor(mlc, trials)
		if err != nil {
			return nil, err
		}
		accECC, err := accuracyWithECC(mlc, trials)
		if err != nil {
			return nil, err
		}
		verdict := func(acc float64) string {
			if clean-acc <= tolerance {
				return "ok"
			}
			return "FAILS"
		}
		t.MustAddRow(areaF2, rawBER, fault.ResidualBER(rawBER), accRaw, accECC,
			verdict(accRaw), verdict(accECC))
	}
	return table(t), nil
}
