package exp

import (
	"fmt"
	"math"

	"repro/internal/cell"
	"repro/internal/nvsim"
	"repro/internal/viz"
)

func init() {
	register(Experiment{ID: "fig1", Title: "Fig 1: eNVM publications by technology, 2016-2020", run: fig1})
	register(Experiment{ID: "table1", Title: "Table I: memory cell technologies and key characteristic ranges", run: table1})
}

// fig1 reproduces Figure 1: publication counts per technology per survey
// year from the ISSCC/IEDM/VLSI database.
func fig1(*nvsim.Engine) (*Result, error) {
	first, last := cell.SurveyYears()
	cols := []string{"Technology"}
	for y := first; y <= last; y++ {
		cols = append(cols, fmt.Sprintf("%d", y))
	}
	cols = append(cols, "Total")
	t := viz.NewTable("Fig 1: NVM publications (ISSCC/IEDM/VLSI)", cols...)
	counts := cell.CountByTechYear(cell.Survey())
	total := 0
	for _, tech := range []cell.Technology{cell.RRAM, cell.STT, cell.FeFET, cell.PCM,
		cell.SOT, cell.FeRAM, cell.CTT} {
		row := []any{tech.String()}
		sum := 0
		for y := first; y <= last; y++ {
			n := counts[tech][y]
			sum += n
			row = append(row, fmt.Sprintf("%d", n))
		}
		total += sum
		row = append(row, fmt.Sprintf("%d", sum))
		t.MustAddRow(row...)
	}
	footer := []any{"all"}
	for y := first; y <= last; y++ {
		n := 0
		for _, m := range counts {
			n += m[y]
		}
		footer = append(footer, fmt.Sprintf("%d", n))
	}
	footer = append(footer, fmt.Sprintf("%d", total))
	t.MustAddRow(footer...)

	sc := &viz.Scatter{Title: "Fig 1: publications per year", XLabel: "year", YLabel: "count"}
	for _, tech := range []cell.Technology{cell.RRAM, cell.STT, cell.FeFET, cell.PCM} {
		for y := first; y <= last; y++ {
			sc.Add(tech.String(), viz.Point{X: float64(y), Y: float64(counts[tech][y])})
		}
	}
	return &Result{Tables: []*viz.Table{t}, Scatters: []*viz.Scatter{sc}}, nil
}

// table1 reproduces Table I from the survey database plus the canonical
// fills, flagging ranges the survey leaves grey.
func table1(*nvsim.Engine) (*Result, error) {
	t := viz.NewTable("Table I: cell technologies and characteristic ranges",
		"Tech", "Area[F2]", "Node[nm]", "MLC", "Read[ns]", "Write[ns]",
		"ReadE[pJ]", "WriteE[pJ]", "Endurance", "Retention[s]")
	fmtRange := func(lo, hi float64) string {
		switch {
		case lo == 0 && hi == 0:
			return "-"
		case math.IsInf(hi, 1):
			return "unlimited"
		case lo == hi:
			return fmt.Sprintf("%.3g", lo)
		default:
			return fmt.Sprintf("%.3g-%.3g", lo, hi)
		}
	}
	for _, r := range cell.TableI() {
		mlc := "no"
		if r.MLC {
			mlc = "yes"
		}
		t.MustAddRow(r.Tech.String(),
			fmtRange(r.AreaF2Lo, r.AreaF2Hi),
			fmtRange(r.NodeLo, r.NodeHi),
			mlc,
			fmtRange(r.ReadNSLo, r.ReadNSHi),
			fmtRange(r.WriteNSLo, r.WriteNSHi),
			fmtRange(r.ReadPJLo, r.ReadPJHi),
			fmtRange(r.WritePJLo, r.WritePJHi),
			fmtRange(r.EnduranceLo, r.EndurHi),
			fmtRange(r.RetentionLo, r.RetentHi))
	}
	return table(t), nil
}
