package viz

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestTableBasics(t *testing.T) {
	tab := NewTable("demo", "A", "B")
	if err := tab.AddRow("x", 1.5); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddRow("only one"); err == nil {
		t.Error("arity mismatch should error")
	}
	s := tab.String()
	for _, want := range []string{"demo", "A", "B", "x", "1.5"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tab := NewTable("f", "v")
	tab.MustAddRow(0.0)
	tab.MustAddRow(1234567.0)
	tab.MustAddRow(0.000012)
	tab.MustAddRow(math.NaN())
	rows := tab.Rows
	if rows[0][0] != "0" {
		t.Errorf("zero renders as %q", rows[0][0])
	}
	if !strings.Contains(rows[1][0], "e+06") {
		t.Errorf("large value renders as %q", rows[1][0])
	}
	if !strings.Contains(rows[2][0], "e-05") {
		t.Errorf("small value renders as %q", rows[2][0])
	}
	if rows[3][0] != "NaN" {
		t.Errorf("NaN renders as %q", rows[3][0])
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("csv", "name", "value")
	tab.MustAddRow("a,b", 1.0) // embedded comma must be quoted
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "name,value\n") {
		t.Errorf("CSV header wrong: %q", out)
	}
	if !strings.Contains(out, `"a,b"`) {
		t.Errorf("embedded comma not quoted: %q", out)
	}
}

func TestTableFilterAndColumn(t *testing.T) {
	tab := NewTable("f", "tech", "power")
	tab.MustAddRow("STT", 1.0)
	tab.MustAddRow("SRAM", 16.0)
	col := tab.Column("tech")
	if col != 0 || tab.Column("missing") != -1 {
		t.Error("column lookup broken")
	}
	kept := tab.Filter(func(row []string) bool { return row[col] == "STT" })
	if len(kept.Rows) != 1 || kept.Rows[0][0] != "STT" {
		t.Errorf("filter kept %v", kept.Rows)
	}
	if len(tab.Rows) != 2 {
		t.Error("filter must not mutate the source")
	}
}

func TestMustAddRowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAddRow should panic on arity mismatch")
		}
	}()
	NewTable("p", "a", "b").MustAddRow("just one")
}

func TestScatterRender(t *testing.T) {
	sc := &Scatter{Title: "t", XLabel: "x", YLabel: "y"}
	sc.Add("s1", Point{X: 1, Y: 1}, Point{X: 10, Y: 5})
	sc.Add("s2", Point{X: 5, Y: 3})
	out := sc.Render(40, 10)
	for _, want := range []string{"t", "x", "y", "s1", "s2", "*", "o"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestScatterLogAxesSkipNonPositive(t *testing.T) {
	sc := &Scatter{Title: "log", XLabel: "x", YLabel: "y", LogX: true, LogY: true}
	sc.Add("s", Point{X: -1, Y: 5}, Point{X: 0, Y: 5})
	if !strings.Contains(sc.Render(30, 8), "no plottable points") {
		t.Error("all-nonpositive log scatter should report no points")
	}
	sc.Add("s", Point{X: 10, Y: 100}, Point{X: 1000, Y: 1})
	out := sc.Render(30, 8)
	if strings.Contains(out, "no plottable points") {
		t.Error("positive points should plot")
	}
}

func TestScatterEmpty(t *testing.T) {
	sc := &Scatter{Title: "empty"}
	if !strings.Contains(sc.Render(30, 8), "no plottable points") {
		t.Error("empty scatter should say so")
	}
}

func TestScatterAddMerges(t *testing.T) {
	sc := &Scatter{}
	sc.Add("a", Point{X: 1, Y: 1})
	sc.Add("a", Point{X: 2, Y: 2})
	sc.Add("b", Point{X: 3, Y: 3})
	if len(sc.Series) != 2 {
		t.Fatalf("series = %d, want 2", len(sc.Series))
	}
	if len(sc.Series[0].Points) != 2 {
		t.Error("same-name points should merge into one series")
	}
}

func TestSVGAndDashboard(t *testing.T) {
	sc := &Scatter{Title: "panel <1>", XLabel: "x", YLabel: "y"}
	sc.Add("tech & co", Point{X: 1, Y: 2}, Point{X: 3, Y: 4})
	svg := sc.SVG(300, 200)
	if !strings.Contains(svg, "<svg") || !strings.Contains(svg, "circle") {
		t.Error("SVG missing markup")
	}
	if !strings.Contains(svg, "panel &lt;1&gt;") || !strings.Contains(svg, "tech &amp; co") {
		t.Error("SVG must escape HTML metacharacters")
	}
	tab := NewTable("tbl", "a")
	tab.MustAddRow("<script>")
	var buf bytes.Buffer
	d := &Dashboard{Title: "dash", Scatters: []*Scatter{sc}, Tables: []*Table{tab}}
	if err := d.WriteHTML(&buf); err != nil {
		t.Fatal(err)
	}
	html := buf.String()
	if !strings.Contains(html, "<!DOCTYPE html>") || !strings.Contains(html, "dash") {
		t.Error("dashboard HTML incomplete")
	}
	if strings.Contains(html, "<script>") {
		t.Error("table cells must be HTML-escaped")
	}
}
