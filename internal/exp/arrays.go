package exp

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/nvsim"
	"repro/internal/viz"
)

func init() {
	register(Experiment{ID: "fig3", Title: "Fig 3: 4MB arrays under various optimization targets", run: fig3})
	register(Experiment{ID: "fig4", Title: "Fig 4: tentpole STT vs published 1MB array (validation)", run: fig4})
	register(Experiment{ID: "fig5", Title: "Fig 5: 2MB arrays provisioned to replace NVDLA's SRAM", run: fig5})
	register(Experiment{ID: "fig10", Title: "Fig 10: 16MB LLC array characteristics in isolation", run: fig10})
	register(Experiment{ID: "fig12", Title: "Fig 12: area efficiency vs latency across organizations", run: fig12})
}

// arrayRows characterizes a cell set at one capacity across targets and
// tabulates the array-level views the paper scatters.
func arrayRows(eng *nvsim.Engine, title string, cells []cell.Definition, capBytes int64,
	targets []nvsim.OptTarget) (*Result, error) {
	t := viz.NewTable(title,
		"Cell", "Target", "ReadNS", "WriteNS", "ReadE/b[pJ]", "WriteE/b[pJ]",
		"LeakMW", "AreaMM2", "Mb/mm2", "AreaEff")
	readSc := &viz.Scatter{Title: title + " (read)", XLabel: "read latency (ns)",
		YLabel: "read energy per bit (pJ)", LogX: true, LogY: true}
	writeSc := &viz.Scatter{Title: title + " (write)", XLabel: "write latency (ns)",
		YLabel: "write energy per bit (pJ)", LogX: true, LogY: true}
	for _, d := range cells {
		rs, errs := eng.CharacterizeTargets(nvsim.Config{
			Cell: d, CapacityBytes: capBytes}, targets)
		for i, target := range targets {
			if errs[i] != nil {
				return nil, fmt.Errorf("exp: %s: %w", d.Name, errs[i])
			}
			r := rs[i]
			t.MustAddRow(d.Name, target.String(), r.ReadLatencyNS, r.WriteLatencyNS,
				r.ReadEnergyPerBitPJ(), r.WriteEnergyPerBitPJ(), r.LeakagePowerMW,
				r.AreaMM2, r.DensityMbPerMM2(), r.AreaEfficiency)
			readSc.Add(d.Name, viz.Point{X: r.ReadLatencyNS, Y: r.ReadEnergyPerBitPJ(),
				Label: target.String()})
			writeSc.Add(d.Name, viz.Point{X: r.WriteLatencyNS, Y: r.WriteEnergyPerBitPJ(),
				Label: target.String()})
		}
	}
	return &Result{Tables: []*viz.Table{t}, Scatters: []*viz.Scatter{readSc, writeSc}}, nil
}

// fig3: 4MB iso-capacity arrays, optimistic/pessimistic/reference cells per
// technology, across optimization targets.
func fig3(eng *nvsim.Engine) (*Result, error) {
	return arrayRows(eng, "Fig 3: 4MB arrays across optimization targets",
		cell.CaseStudyCells(), 4<<20,
		[]nvsim.OptTarget{nvsim.OptReadLatency, nvsim.OptReadEDP, nvsim.OptReadEnergy,
			nvsim.OptWriteEDP, nvsim.OptArea, nvsim.OptLeakage})
}

// fig4: the Section III-C validation exercise — optimistic and pessimistic
// STT arrays against the published 1MB macro.
func fig4(eng *nvsim.Engine) (*Result, error) {
	target := cell.ValidationTargets()[0]
	t := viz.NewTable("Fig 4: tentpole STT vs published 1MB STT macro",
		"Design", "ReadNS", "ReadE[pJ]", "AreaMM2", "Source")
	for _, f := range []cell.Flavor{cell.Optimistic, cell.Pessimistic} {
		d := cell.Normalize(cell.MustTentpole(cell.STT, f), target.NodeNM)
		r, err := eng.Characterize(nvsim.Config{
			Cell: d, CapacityBytes: target.CapacityBytes, Target: nvsim.OptReadEDP})
		if err != nil {
			return nil, err
		}
		t.MustAddRow(d.Name, r.ReadLatencyNS, r.ReadEnergyPJ, r.AreaMM2, "NVMExplorer-Go")
	}
	t.MustAddRow(target.ID, target.ReadLatencyNS, target.ReadEnergyPJ, target.AreaMM2,
		"published macro")
	return table(t), nil
}

// fig5: 2MB arrays for the NVDLA buffer replacement, ReadEDP-optimized.
func fig5(eng *nvsim.Engine) (*Result, error) {
	return arrayRows(eng, "Fig 5: 2MB arrays (NVDLA buffer)", cell.CaseStudyCells(),
		2<<20, []nvsim.OptTarget{nvsim.OptReadEDP})
}

// fig10: 16MB arrays for the LLC study, read- and write-EDP optimized.
func fig10(eng *nvsim.Engine) (*Result, error) {
	return arrayRows(eng, "Fig 10: 16MB LLC arrays", cell.CaseStudyCells(),
		16<<20, []nvsim.OptTarget{nvsim.OptReadEDP, nvsim.OptWriteEDP})
}

// fig12: the area-efficiency observation of Section V-B — across every
// internal organization of an 8MB array, lower area efficiency correlates
// with lower read latency. The table reports decile summaries; the scatter
// carries every organization.
func fig12(eng *nvsim.Engine) (*Result, error) {
	sc := &viz.Scatter{Title: "Fig 12: area efficiency vs read latency (8MB)",
		XLabel: "area efficiency", YLabel: "read latency (ns)", LogY: true}
	t := viz.NewTable("Fig 12: organization deciles by read latency",
		"Cell", "Decile", "MeanAreaEff", "MeanReadNS")
	for _, d := range []cell.Definition{
		cell.MustTentpole(cell.STT, cell.Optimistic),
		cell.MustTentpole(cell.PCM, cell.Optimistic),
		cell.MustTentpole(cell.FeFET, cell.Optimistic),
	} {
		all, err := nvsim.CharacterizeAll(nvsim.Config{
			Cell: d, CapacityBytes: 8 << 20, Target: nvsim.OptReadLatency})
		if err != nil {
			return nil, err
		}
		for _, r := range all {
			sc.Add(d.Name, viz.Point{X: r.AreaEfficiency, Y: r.ReadLatencyNS,
				Label: r.Org.String()})
		}
		n := len(all) / 10
		if n == 0 {
			n = 1
		}
		decile := func(rs []nvsim.Result, name string) {
			eff, lat := 0.0, 0.0
			for _, r := range rs {
				eff += r.AreaEfficiency
				lat += r.ReadLatencyNS
			}
			t.MustAddRow(d.Name, name, eff/float64(len(rs)), lat/float64(len(rs)))
		}
		decile(all[:n], "fastest 10%")
		decile(all[len(all)-n:], "slowest 10%")
	}
	return &Result{Tables: []*viz.Table{t}, Scatters: []*viz.Scatter{sc}}, nil
}
