package viz

import (
	"fmt"
	"math"
	"strings"
)

// Point is one (x, y) sample in a scatter view.
type Point struct {
	X, Y  float64
	Label string // optional per-point annotation
	// Emph marks the point as selected (e.g. on a Pareto frontier): SVG
	// output draws it larger with an outline, ASCII output overlays it with
	// the frontier glyph.
	Emph bool
}

// Series is one named point set (one technology/flavor in the figures).
type Series struct {
	Name   string
	Points []Point
}

// Scatter is a figure-style scatter view: the terminal rendering of one
// panel of a paper figure.
type Scatter struct {
	Title  string
	XLabel string
	YLabel string
	LogX   bool
	LogY   bool
	Series []Series
}

// glyphs assigns one rune per series.
var glyphs = []rune{'*', 'o', '+', 'x', '#', '@', '%', '&', '^', '~', '$', '='}

// emphGlyph overlays emphasized (frontier) points in ASCII renderings.
const emphGlyph = '◆'

// Add appends points to a named series, creating it on first use.
func (s *Scatter) Add(name string, pts ...Point) {
	for i := range s.Series {
		if s.Series[i].Name == name {
			s.Series[i].Points = append(s.Series[i].Points, pts...)
			return
		}
	}
	s.Series = append(s.Series, Series{Name: name, Points: pts})
}

// bounds computes finite axis bounds over all series.
func (s *Scatter) bounds() (xLo, xHi, yLo, yHi float64, ok bool) {
	xLo, yLo = math.Inf(1), math.Inf(1)
	xHi, yHi = math.Inf(-1), math.Inf(-1)
	for _, ser := range s.Series {
		for _, p := range ser.Points {
			x, y := p.X, p.Y
			if s.LogX {
				if x <= 0 {
					continue
				}
				x = math.Log10(x)
			}
			if s.LogY {
				if y <= 0 {
					continue
				}
				y = math.Log10(y)
			}
			if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
				continue
			}
			xLo, xHi = math.Min(xLo, x), math.Max(xHi, x)
			yLo, yHi = math.Min(yLo, y), math.Max(yHi, y)
		}
	}
	if xLo > xHi || yLo > yHi {
		return 0, 0, 0, 0, false
	}
	if xHi == xLo {
		xHi = xLo + 1
	}
	if yHi == yLo {
		yHi = yLo + 1
	}
	return xLo, xHi, yLo, yHi, true
}

// Render draws the scatter as ASCII art of the given dimensions (minimum
// 20x8); glyph collisions keep the earliest series' mark.
func (s *Scatter) Render(width, height int) string {
	if width < 20 {
		width = 20
	}
	if height < 8 {
		height = 8
	}
	xLo, xHi, yLo, yHi, ok := s.bounds()
	var b strings.Builder
	if s.Title != "" {
		fmt.Fprintf(&b, "%s\n", s.Title)
	}
	if !ok {
		b.WriteString("(no plottable points)\n")
		return b.String()
	}
	grid := make([][]rune, height)
	for i := range grid {
		grid[i] = []rune(strings.Repeat(" ", width))
	}
	anyEmph := false
	cellOf := func(p Point) (row, col int, ok bool) {
		x, y := p.X, p.Y
		if s.LogX {
			if x <= 0 {
				return 0, 0, false
			}
			x = math.Log10(x)
		}
		if s.LogY {
			if y <= 0 {
				return 0, 0, false
			}
			y = math.Log10(y)
		}
		cx := int(math.Round((x - xLo) / (xHi - xLo) * float64(width-1)))
		cy := int(math.Round((y - yLo) / (yHi - yLo) * float64(height-1)))
		return height - 1 - cy, cx, true
	}
	for si, ser := range s.Series {
		g := glyphs[si%len(glyphs)]
		for _, p := range ser.Points {
			row, col, ok := cellOf(p)
			if !ok {
				continue
			}
			if grid[row][col] == ' ' {
				grid[row][col] = g
			}
		}
	}
	// Emphasized points overlay the grid so a frontier stays visible even
	// where ordinary points collide with it.
	for _, ser := range s.Series {
		for _, p := range ser.Points {
			if !p.Emph {
				continue
			}
			if row, col, ok := cellOf(p); ok {
				grid[row][col] = emphGlyph
				anyEmph = true
			}
		}
	}
	axisVal := func(v float64, log bool) float64 {
		if log {
			return math.Pow(10, v)
		}
		return v
	}
	fmt.Fprintf(&b, "%s (y: %.3g .. %.3g)\n", s.YLabel, axisVal(yLo, s.LogY), axisVal(yHi, s.LogY))
	for _, row := range grid {
		b.WriteString("|")
		b.WriteString(string(row))
		b.WriteString("\n")
	}
	b.WriteString("+" + strings.Repeat("-", width) + "\n")
	fmt.Fprintf(&b, " %s (x: %.3g .. %.3g)\n", s.XLabel, axisVal(xLo, s.LogX), axisVal(xHi, s.LogX))
	for si, ser := range s.Series {
		fmt.Fprintf(&b, "  %c %s\n", glyphs[si%len(glyphs)], ser.Name)
	}
	if anyEmph {
		fmt.Fprintf(&b, "  %c Pareto frontier\n", emphGlyph)
	}
	return b.String()
}
