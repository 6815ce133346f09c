package sweep

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/viz"
)

// legacyTables is the oracle for the CSV writers: the per-technology
// viz.Table construction the study CSV was once built from, one typed
// table row per metric, in first-appearance technology order.
func legacyTables(res *core.Results) (map[string]*viz.Table, []string) {
	s := res.Study
	withWord := s.Declares(core.AxisWordBits)
	withWB := s.Declares(core.AxisWriteBuffer)
	withFault := s.Declares(core.AxisFault) || s.Options.Fault != nil
	withPareto := len(s.Pareto) > 0
	columns := []string{
		"Cell", "BitsPerCell", "CapacityBytes", "OptTarget", "Pattern",
		"ReadLatencyNS", "WriteLatencyNS", "ReadEnergyPJ", "WriteEnergyPJ",
		"LeakagePowerMW", "AreaMM2", "AreaEfficiency", "DensityMbPerMM2",
		"TotalPowerMW", "DynamicPowerMW", "MemTimePerSec", "TaskLatencyS",
		"MeetsTaskRate", "LifetimeYears"}
	if withWord {
		columns = append(columns, "WordBits")
	}
	if withWB {
		columns = append(columns, "WriteBuffer")
	}
	if withFault {
		columns = append(columns, "FaultMode", "RawBER", "EffectiveBER")
	}
	if withPareto {
		columns = append(columns, "Pareto")
	}
	frontier := map[int]bool{}
	for _, i := range res.Frontier {
		frontier[i] = true
	}
	perTech := map[string]*viz.Table{}
	var order []string
	for mi := range res.Metrics {
		m := &res.Metrics[mi]
		techName := m.Array.Cell.Tech.String()
		t, ok := perTech[techName]
		if !ok {
			t = viz.NewTable(techName, columns...)
			perTech[techName] = t
			order = append(order, techName)
		}
		a := &m.Array
		row := t.Row().
			Str(a.Cell.Name).Int(int64(a.Cell.BitsPerCell)).
			Int(a.CapacityBytes).Str(a.Target.String()).Str(m.Pattern.Name).
			Float(a.ReadLatencyNS).Float(a.WriteLatencyNS).Float(a.ReadEnergyPJ).
			Float(a.WriteEnergyPJ).Float(a.LeakagePowerMW).Float(a.AreaMM2).
			Float(a.AreaEfficiency).Float(a.DensityMbPerMM2()).
			Float(m.TotalPowerMW).Float(m.DynamicPowerMW).Float(m.MemoryTimePerSec).
			Float(m.TaskLatencyS).Bool(m.MeetsTaskRate).Float(m.LifetimeYears)
		if withWord {
			row.Int(int64(a.WordBits))
		}
		if withWB {
			row.Str(m.WriteBuffer.Label())
		}
		if withFault {
			if f := m.Fault; f != nil {
				row.Str(f.Mode.String()).Float(f.RawBER).Float(f.EffectiveBER)
			} else {
				row.Str("none").Float(0).Float(0)
			}
		}
		if withPareto {
			row.Bool(frontier[mi])
		}
		row.MustAdd()
	}
	return perTech, order
}

// legacyCombinedCSV renders the oracle tables through encoding/csv, blank
// line between tables, as WriteCombinedCSV's output once was.
func legacyCombinedCSV(t *testing.T, res *core.Results) []byte {
	t.Helper()
	if err := res.EnsureFrontier(); err != nil {
		t.Fatal(err)
	}
	tables, order := legacyTables(res)
	var buf bytes.Buffer
	for i, name := range order {
		if i > 0 {
			buf.WriteByte('\n')
		}
		if err := tables[name].WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// oddStudy is the encoder study with names and values that exercise CSV
// quoting and every special float the cell format distinguishes. Its cell
// names include an embedded CRLF, which survives the CSV bytes but reads
// back as LF.
func oddStudy(t *testing.T) *core.Results {
	t.Helper()
	res := encoderStudy(t)
	names := []string{"a,b", `say "hi"`, "two\nlines", " leading space",
		"\tleading tab", " nbsp", `\.`, "crlf\r\nrow", "lone\rcr", ""}
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1),
		math.Inf(-1), 5e-324, 1e-300, -123456.789, 1e5, 1e-3}
	for i := range res.Metrics {
		m := &res.Metrics[i]
		m.Array.Cell.Name = names[i%len(names)]
		m.Pattern.Name = names[(i+3)%len(names)]
		v := floats[i%len(floats)]
		m.Array.ReadLatencyNS = v
		m.TotalPowerMW = floats[(i+1)%len(floats)]
		m.LifetimeYears = floats[(i+2)%len(floats)]
		if f := m.Fault; f != nil {
			f.RawBER = floats[(i+4)%len(floats)]
		}
	}
	return res
}

// TestCSVMatchesTableWriter pins the direct CSV appender to the viz.Table
// and encoding/csv construction it replaced, byte for byte, over the axis
// and fault columns, a Pareto study, the 4,096-row grid, names that need
// quoting and the special floats; and pins ResultTables to the tables that
// construction held, up to the one difference reading CSV back makes (an
// embedded CRLF becomes LF).
func TestCSVMatchesTableWriter(t *testing.T) {
	pareto, err := Parse(strings.NewReader(multiAxisConfig))
	if err != nil {
		t.Fatal(err)
	}
	paretoRes, err := Run(pareto)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		res  *core.Results
		crlf bool // the study holds an embedded CRLF
	}{
		{"encoder study", encoderStudy(t), false},
		{"pareto study", paretoRes, false},
		{"query-bench grid", queryBenchGrid(t), false},
		{"quoting and special floats", oddStudy(t), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := legacyCombinedCSV(t, tc.res)
			var got bytes.Buffer
			if err := WriteCombinedCSV(&got, tc.res); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				i := 0
				for i < len(want) && i < got.Len() && want[i] == got.Bytes()[i] {
					i++
				}
				lo := max(i-200, 0)
				t.Fatalf("WriteCombinedCSV diverges from the table writer at byte %d\n got ...%q\nwant ...%q",
					i, got.Bytes()[lo:min(i+200, got.Len())], want[lo:min(i+200, len(want))])
			}

			oracle, order := legacyTables(tc.res)
			dir := t.TempDir()
			paths, err := WriteCSVs(tc.res, dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(paths) != len(order) {
				t.Fatalf("WriteCSVs wrote %d files, want %d", len(paths), len(order))
			}
			for i, name := range order {
				var table bytes.Buffer
				if err := oracle[name].WriteCSV(&table); err != nil {
					t.Fatal(err)
				}
				file, err := os.ReadFile(paths[i])
				if err != nil {
					t.Fatal(err)
				}
				if !strings.HasPrefix(filepath.Base(paths[i]), name+"_") || !bytes.Equal(file, table.Bytes()) {
					t.Errorf("%s does not hold the %s table", paths[i], name)
				}
			}

			tables, gotOrder, err := ResultTables(tc.res)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Join(gotOrder, ",") != strings.Join(order, ",") {
				t.Fatalf("ResultTables order %v, want %v", gotOrder, order)
			}
			crlf := 0
			for _, name := range order {
				g, w := tables[name], oracle[name]
				if g.Title != w.Title || strings.Join(g.Columns, ",") != strings.Join(w.Columns, ",") ||
					len(g.Rows) != len(w.Rows) {
					t.Fatalf("%s table shape differs: %q %v %d rows, want %q %v %d rows",
						name, g.Title, g.Columns, len(g.Rows), w.Title, w.Columns, len(w.Rows))
				}
				for r := range w.Rows {
					for c := range w.Rows[r] {
						gc, wc := g.Rows[r][c], w.Rows[r][c]
						if gc == wc {
							continue
						}
						if strings.Contains(wc, "\r\n") && gc == strings.ReplaceAll(wc, "\r\n", "\n") {
							crlf++
							continue
						}
						t.Errorf("%s row %d column %s = %q, want %q", name, r, w.Columns[c], gc, wc)
					}
				}
			}
			if tc.crlf != (crlf > 0) {
				t.Errorf("ResultTables read back %d CRLF cells as LF; the study holds CRLF: %v", crlf, tc.crlf)
			}
		})
	}
	// The quoting corpus must reach every rule it claims to cover.
	var odd bytes.Buffer
	if err := WriteCombinedCSV(&odd, oddStudy(t)); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{`"a,b"`, `"say ""hi"""`, "\"two\nlines\"", `" leading space"`,
		"\"\tleading tab\"", "\" nbsp\"", `"\."`, "\"crlf\r\nrow\"", "\"lone\rcr\"",
		",NaN,", ",+Inf,", ",-Inf,", ",4.94e-324,", ",-1.23e+05,"} {
		if !strings.Contains(odd.String(), s) {
			t.Errorf("quoting corpus never renders %q", s)
		}
	}
}

// TestWriteCSVAllocs is the CSV emit ratchet: rendering the 4,096-row grid
// costs a fixed handful of allocations (the chunk buffer, the technology
// list and the encoder), not a number that grows with the rows.
func TestWriteCSVAllocs(t *testing.T) {
	res := queryBenchGrid(t)
	allocs := testing.AllocsPerRun(5, func() {
		if err := WriteCombinedCSV(io.Discard, res); err != nil {
			t.Fatal(err)
		}
	})
	const maxAllocs = 8
	if allocs > maxAllocs {
		t.Errorf("WriteCombinedCSV of %d rows allocates %.0f times, want <= %d", len(res.Metrics), allocs, maxAllocs)
	}
}
