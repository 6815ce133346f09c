// Package viz is NVMExplorer-Go's result-exploration layer (Section II-C):
// result tables with CSV emission, terminal scatter plots, SVG/HTML
// dashboard rendering, constraint filters, and Pareto-frontier extraction.
// It replaces the paper's Tableau dashboard with self-contained artifacts —
// aligned text and ASCII plots for terminals, and a static HTML+SVG
// dashboard (cmd/nvmviz) with the same views and filter semantics.
package viz

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table is a titled grid of results — one paper table or one figure's
// underlying data.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string

	// rb is the reused typed row builder returned by Row; one per table is
	// enough because rows are always built sequentially.
	rb RowBuilder
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row, formatting each value: floats render compactly,
// everything else via %v. Rows shorter or longer than the header are
// rejected.
func (t *Table) AddRow(values ...any) error {
	if len(values) != len(t.Columns) {
		return fmt.Errorf("viz: row has %d cells, table %q has %d columns",
			len(values), t.Title, len(t.Columns))
	}
	row := make([]string, len(values))
	for i, v := range values {
		row[i] = formatCell(v)
	}
	t.Rows = append(t.Rows, row)
	return nil
}

// MustAddRow is AddRow that panics on arity mistakes (programmer error).
func (t *Table) MustAddRow(values ...any) {
	if err := t.AddRow(values...); err != nil {
		panic(err)
	}
}

func formatCell(v any) string {
	switch x := v.(type) {
	case float64:
		return formatFloat(x)
	case float32:
		return formatFloat(float64(x))
	case string:
		return x
	default:
		return fmt.Sprintf("%v", v)
	}
}

func formatFloat(x float64) string { return string(AppendCellFloat(nil, x)) }

// AppendCellFloat renders a float the way table cells always have — "0",
// "NaN", and %.3g/%.4g by magnitude — via strconv.AppendFloat instead of
// fmt, producing identical bytes without fmt's interface boxing and
// verb-parsing overhead. Writers that render table cells without a Table
// (the study CSV emitter) append through it, so cells have one format.
func AppendCellFloat(b []byte, x float64) []byte {
	switch {
	case x == 0:
		return append(b, '0')
	case x != x: // NaN
		return append(b, "NaN"...)
	case x >= 1e5 || x <= -1e5 || (x < 1e-3 && x > -1e-3):
		return strconv.AppendFloat(b, x, 'g', 3, 64)
	default:
		return strconv.AppendFloat(b, x, 'g', 4, 64)
	}
}

// RowBuilder accumulates one row's cells over a reused byte buffer: every
// cell is appended with a typed method (no fmt, no interface boxing), and
// Add materializes the whole row with a single backing string plus one
// cell-slice allocation. Obtain one with Table.Row; it must not be retained
// across rows.
type RowBuilder struct {
	t    *Table
	buf  []byte
	ends []int
}

// Row starts a new row, returning the table's reused builder.
func (t *Table) Row() *RowBuilder {
	t.rb.t = t
	t.rb.buf = t.rb.buf[:0]
	t.rb.ends = t.rb.ends[:0]
	return &t.rb
}

func (r *RowBuilder) mark() *RowBuilder {
	r.ends = append(r.ends, len(r.buf))
	return r
}

// Str appends a string cell.
func (r *RowBuilder) Str(s string) *RowBuilder {
	r.buf = append(r.buf, s...)
	return r.mark()
}

// Int appends an integer cell, rendered as %d would.
func (r *RowBuilder) Int(v int64) *RowBuilder {
	r.buf = strconv.AppendInt(r.buf, v, 10)
	return r.mark()
}

// Float appends a float cell with the table's compact float rendering.
func (r *RowBuilder) Float(x float64) *RowBuilder {
	r.buf = AppendCellFloat(r.buf, x)
	return r.mark()
}

// Bool appends a bool cell ("true"/"false", as %v renders it).
func (r *RowBuilder) Bool(v bool) *RowBuilder {
	r.buf = strconv.AppendBool(r.buf, v)
	return r.mark()
}

// Add finishes the row: cells are sliced out of one shared backing string
// and appended to the table. Rows with the wrong cell count are rejected.
func (r *RowBuilder) Add() error {
	if len(r.ends) != len(r.t.Columns) {
		return fmt.Errorf("viz: row has %d cells, table %q has %d columns",
			len(r.ends), r.t.Title, len(r.t.Columns))
	}
	backing := string(r.buf)
	cells := make([]string, len(r.ends))
	start := 0
	for i, end := range r.ends {
		cells[i] = backing[start:end]
		start = end
	}
	r.t.Rows = append(r.t.Rows, cells)
	return nil
}

// MustAdd is Add that panics on arity mistakes (programmer error).
func (r *RowBuilder) MustAdd() {
	if err := r.Add(); err != nil {
		panic(err)
	}
}

// String renders the table with aligned columns for terminals.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// WriteCSV emits the table in the artifact's CSV format (header + rows).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Filter returns a new table keeping rows for which keep returns true.
// This is the dashboard's "filter according to system and application
// constraints" primitive applied at the table level.
func (t *Table) Filter(keep func(row []string) bool) *Table {
	out := NewTable(t.Title, t.Columns...)
	for _, row := range t.Rows {
		if keep(row) {
			out.Rows = append(out.Rows, append([]string(nil), row...))
		}
	}
	return out
}

// Column returns the index of a named column, or -1.
func (t *Table) Column(name string) int {
	for i, c := range t.Columns {
		if c == name {
			return i
		}
	}
	return -1
}
