package sweep

import (
	"io"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/viz"
)

// Hand-rolled row encoding. Both JSON forms of a study render their rows
// here: the NDJSON stream one compact DesignPoint per line, and the
// buffered JSON body (WriteJSON) every row indented in place, in one pass
// with no reflective encoding and no re-indenting of the finished body.
// Rendering rows through reflective json.Marshal costs dozens of
// allocations per row, which dominated the emit path of a warm large-grid
// study. The appenders below produce output byte-identical to
// encoding/json for the DesignPoint schema (same float shortening, the
// same HTML-escaping rules, the same omitempty semantics, the same
// indentation — asserted by append_test.go and points_test.go) over a
// caller-owned buffer, so a RowEncoder emits rows with zero steady-state
// allocations. The CSV rows (appendCSVRow) render here too, cell by cell
// as encoding/csv would write the viz table cells.

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string exactly as encoding/json
// encodes it with HTML escaping enabled (the Marshal/Encoder default):
// <, >, and & become \u00XX, U+2028/U+2029 are escaped, invalid UTF-8
// collapses to U+FFFD.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendJSONFloat appends a finite float64 exactly as encoding/json does:
// shortest round-trip notation, 'e' form outside [1e-6, 1e21) with the
// exponent's leading zero trimmed.
func appendJSONFloat(b []byte, v float64) []byte {
	abs := math.Abs(v)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, matching encoding/json.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendFloatField appends one Float value the way the Float marshaler
// renders it: null for non-finite values.
func appendFloatField(b []byte, v Float) []byte {
	f := float64(v)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(b, "null"...)
	}
	return appendJSONFloat(b, f)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, "true"...)
	}
	return append(b, "false"...)
}

// rowLayout places the whitespace of one rendered row. Compact rows (the
// NDJSON lines) carry none; indented rows (the buffered JSON body) break
// before every key and indent it to the row's depth in the study object,
// exactly as encoding/json's Indent lays it out. The field list itself is
// spelled out once, in appendRow.
type rowLayout struct {
	indent      string // line break and indent before a row key, and the fault block's closing brace
	faultIndent string // the same before a fault-block key
	close       string // the same before the row's closing brace
}

var (
	compactRow = rowLayout{}
	// indentedRow is a row at depth 2 of the study body: inside the
	// top-level object's "points" array.
	indentedRow = rowLayout{indent: "\n      ", faultIndent: "\n        ", close: "\n    "}
)

// appendKey appends one member's key. tok is its compact form with the
// lead byte, quotes and colon (`{"cell":`, `,"technology":`); a non-empty
// indent goes after the lead byte, and a space after the colon, as
// encoding/json's Indent places them.
func appendKey(b []byte, indent, tok string) []byte {
	if indent == "" {
		return append(b, tok...)
	}
	b = append(b, tok[0])
	b = append(b, indent...)
	b = append(b, tok[1:]...)
	return append(b, ' ')
}

// AppendJSON appends the row's compact JSON object — byte-identical to
// json.Marshal of the same value — and returns the extended buffer.
func (p *DesignPoint) AppendJSON(b []byte) []byte { return p.appendRow(b, &compactRow, nil) }

// Field text memo. A study grid evaluates every array across all of its
// traffic patterns back to back (pattern is the innermost axis of the
// space), so a row's array fields — latencies, energies, leakage, area,
// area efficiency, density — repeat bit for bit from the row before, and
// shortest-float formatting dominated row rendering. A fieldText keeps, for
// each float field, the last value's bits and its rendered text in a fixed
// inline slot; a bit-equal value copies the text instead of formatting it.
// Equal bits always render equal text (NaN payloads and signed zeros
// included), so the memo never changes a byte.

// Float field slots, in DesignPoint order.
const (
	fReadLatency = iota
	fWriteLatency
	fReadEnergy
	fWriteEnergy
	fLeakage
	fArea
	fAreaEfficiency
	fDensity
	fTotalPower
	fDynamicPower
	fMemTime
	fTaskLatency
	fLifetime
	fRawBER
	fEffectiveBER
	numFloatFields
)

// floatText is one float field's memo slot. Both renderers produce at most
// 25 bytes (a signed 17-digit mantissa with its exponent or leading zeros);
// longer text is simply not remembered.
type floatText struct {
	bits uint64
	n    uint8 // length of text; 0 while the slot is empty
	text [31]byte
}

// fieldText is one row renderer's memo: a slot per float field. The zero
// value is empty and ready to use.
type fieldText [numFloatFields]floatText

// json appends float field f with value v as the Float marshaler renders
// it. A nil memo formats every value.
func (t *fieldText) json(b []byte, f int, v Float) []byte {
	if t == nil {
		return appendFloatField(b, v)
	}
	return t[f].append(b, float64(v), false)
}

// cell appends float field f with value v as a viz table cell.
func (t *fieldText) cell(b []byte, f int, v Float) []byte {
	return t[f].append(b, float64(v), true)
}

func (s *floatText) append(b []byte, v float64, cell bool) []byte {
	bits := math.Float64bits(v)
	if s.n != 0 && s.bits == bits {
		return append(b, s.text[:s.n]...)
	}
	start := len(b)
	if cell {
		b = viz.AppendCellFloat(b, v)
	} else {
		b = appendFloatField(b, Float(v))
	}
	if n := len(b) - start; n <= len(s.text) {
		s.bits, s.n = bits, uint8(n)
		copy(s.text[:], b[start:])
	}
	return b
}

// appendRow appends the row as one JSON object laid out by l: the single
// definition of the DesignPoint schema's key order, value encodings and
// omitempty rules. Float fields render through t (nil: no memo).
func (p *DesignPoint) appendRow(b []byte, l *rowLayout, t *fieldText) []byte {
	b = appendKey(b, l.indent, `{"cell":`)
	b = appendJSONString(b, p.Cell)
	b = appendKey(b, l.indent, `,"technology":`)
	b = appendJSONString(b, p.Technology)
	b = appendKey(b, l.indent, `,"bits_per_cell":`)
	b = strconv.AppendInt(b, int64(p.BitsPerCell), 10)
	b = appendKey(b, l.indent, `,"capacity_bytes":`)
	b = strconv.AppendInt(b, p.CapacityBytes, 10)
	b = appendKey(b, l.indent, `,"opt_target":`)
	b = appendJSONString(b, p.OptTarget)
	b = appendKey(b, l.indent, `,"pattern":`)
	b = appendJSONString(b, p.Pattern)
	b = appendKey(b, l.indent, `,"read_latency_ns":`)
	b = t.json(b, fReadLatency, p.ReadLatencyNS)
	b = appendKey(b, l.indent, `,"write_latency_ns":`)
	b = t.json(b, fWriteLatency, p.WriteLatencyNS)
	b = appendKey(b, l.indent, `,"read_energy_pj":`)
	b = t.json(b, fReadEnergy, p.ReadEnergyPJ)
	b = appendKey(b, l.indent, `,"write_energy_pj":`)
	b = t.json(b, fWriteEnergy, p.WriteEnergyPJ)
	b = appendKey(b, l.indent, `,"leakage_power_mw":`)
	b = t.json(b, fLeakage, p.LeakagePowerMW)
	b = appendKey(b, l.indent, `,"area_mm2":`)
	b = t.json(b, fArea, p.AreaMM2)
	b = appendKey(b, l.indent, `,"area_efficiency":`)
	b = t.json(b, fAreaEfficiency, p.AreaEfficiency)
	b = appendKey(b, l.indent, `,"density_mb_per_mm2":`)
	b = t.json(b, fDensity, p.DensityMbPerMM2)
	b = appendKey(b, l.indent, `,"total_power_mw":`)
	b = t.json(b, fTotalPower, p.TotalPowerMW)
	b = appendKey(b, l.indent, `,"dynamic_power_mw":`)
	b = t.json(b, fDynamicPower, p.DynamicPowerMW)
	b = appendKey(b, l.indent, `,"mem_time_per_sec":`)
	b = t.json(b, fMemTime, p.MemTimePerSec)
	b = appendKey(b, l.indent, `,"task_latency_s":`)
	b = t.json(b, fTaskLatency, p.TaskLatencyS)
	b = appendKey(b, l.indent, `,"meets_task_rate":`)
	b = appendBool(b, p.MeetsTaskRate)
	b = appendKey(b, l.indent, `,"lifetime_years":`)
	b = t.json(b, fLifetime, p.LifetimeYears)
	if p.WordBits != 0 {
		b = appendKey(b, l.indent, `,"word_bits":`)
		b = strconv.AppendInt(b, int64(p.WordBits), 10)
	}
	if p.WriteBuffer != "" {
		b = appendKey(b, l.indent, `,"write_buffer":`)
		b = appendJSONString(b, p.WriteBuffer)
	}
	if f := p.Fault; f != nil {
		b = appendKey(b, l.indent, `,"fault":`)
		b = appendKey(b, l.faultIndent, `{"mode":`)
		b = appendJSONString(b, f.Mode)
		b = appendKey(b, l.faultIndent, `,"seed":`)
		b = strconv.AppendInt(b, f.Seed, 10)
		b = appendKey(b, l.faultIndent, `,"raw_ber":`)
		b = t.json(b, fRawBER, f.RawBER)
		b = appendKey(b, l.faultIndent, `,"effective_ber":`)
		b = t.json(b, fEffectiveBER, f.EffectiveBER)
		b = append(b, l.indent...)
		b = append(b, '}')
	}
	if p.Pareto {
		b = appendKey(b, l.indent, `,"pareto":`)
		b = append(b, "true"...)
	}
	b = append(b, l.close...)
	return append(b, '}')
}

// csvColumns is a study's CSV column set: the legacy columns, then the
// trailing columns of each extra axis the study declares (word bits, write
// buffers, fault modes) and of a Pareto selection. Legacy studies keep the
// exact historical column set.
type csvColumns struct {
	wordBits, writeBuffer, fault, pareto bool
}

func columnsOf(s *core.Study) csvColumns {
	return csvColumns{
		wordBits:    s.Declares(core.AxisWordBits),
		writeBuffer: s.Declares(core.AxisWriteBuffer),
		fault:       s.Declares(core.AxisFault) || s.Options.Fault != nil,
		pareto:      len(s.Pareto) > 0,
	}
}

// appendHeader appends the header line: the single definition of the CSV
// column names and order, which appendCSVRow fills.
func (c csvColumns) appendHeader(b []byte) []byte {
	b = append(b, "Cell,BitsPerCell,CapacityBytes,OptTarget,Pattern,"+
		"ReadLatencyNS,WriteLatencyNS,ReadEnergyPJ,WriteEnergyPJ,"+
		"LeakagePowerMW,AreaMM2,AreaEfficiency,DensityMbPerMM2,"+
		"TotalPowerMW,DynamicPowerMW,MemTimePerSec,TaskLatencyS,"+
		"MeetsTaskRate,LifetimeYears"...)
	if c.wordBits {
		b = append(b, ",WordBits"...)
	}
	if c.writeBuffer {
		b = append(b, ",WriteBuffer"...)
	}
	if c.fault {
		b = append(b, ",FaultMode,RawBER,EffectiveBER"...)
	}
	if c.pareto {
		b = append(b, ",Pareto"...)
	}
	return append(b, '\n')
}

// appendCSVRow appends the row as one CSV record of columns c, exactly as
// encoding/csv writes it when every cell is formatted as a viz table cell:
// floats by viz.AppendCellFloat (through t), integers and bools as %v, and
// strings quoted by appendCSVField. A row evaluated without a fault mode
// fills the fault columns with "none", 0, 0.
func (p *DesignPoint) appendCSVRow(b []byte, c csvColumns, t *fieldText) []byte {
	b = appendCSVField(b, p.Cell)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(p.BitsPerCell), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, p.CapacityBytes, 10)
	b = append(b, ',')
	b = appendCSVField(b, p.OptTarget)
	b = append(b, ',')
	b = appendCSVField(b, p.Pattern)
	for f, v := range [...]Float{
		fReadLatency: p.ReadLatencyNS, fWriteLatency: p.WriteLatencyNS,
		fReadEnergy: p.ReadEnergyPJ, fWriteEnergy: p.WriteEnergyPJ,
		fLeakage: p.LeakagePowerMW, fArea: p.AreaMM2,
		fAreaEfficiency: p.AreaEfficiency, fDensity: p.DensityMbPerMM2,
		fTotalPower: p.TotalPowerMW, fDynamicPower: p.DynamicPowerMW,
		fMemTime: p.MemTimePerSec, fTaskLatency: p.TaskLatencyS,
	} {
		b = append(b, ',')
		b = t.cell(b, f, v)
	}
	b = append(b, ',')
	b = strconv.AppendBool(b, p.MeetsTaskRate)
	b = append(b, ',')
	b = t.cell(b, fLifetime, p.LifetimeYears)
	if c.wordBits {
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(p.WordBits), 10)
	}
	if c.writeBuffer {
		b = append(b, ',')
		b = appendCSVField(b, p.WriteBuffer)
	}
	if c.fault {
		if f := p.Fault; f != nil {
			b = append(b, ',')
			b = appendCSVField(b, f.Mode)
			b = append(b, ',')
			b = t.cell(b, fRawBER, f.RawBER)
			b = append(b, ',')
			b = t.cell(b, fEffectiveBER, f.EffectiveBER)
		} else {
			b = append(b, ",none,0,0"...)
		}
	}
	if c.pareto {
		b = append(b, ',')
		b = strconv.AppendBool(b, p.Pareto)
	}
	return append(b, '\n')
}

// appendCSVField appends s as one field the way encoding/csv's Writer
// writes it with its defaults (comma separator, LF line ends): quoted when
// it is `\.`, holds a comma, quote, CR or LF, or begins with a Unicode
// space, with every inner quote doubled.
func appendCSVField(b []byte, s string) []byte {
	if !csvNeedsQuotes(s) {
		return append(b, s...)
	}
	b = append(b, '"')
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			break
		}
		b = append(b, s[:i+1]...)
		b = append(b, '"')
		s = s[i+1:]
	}
	b = append(b, s...)
	return append(b, '"')
}

func csvNeedsQuotes(s string) bool {
	if s == "" {
		return false
	}
	if s == `\.` {
		return true
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ',', '"', '\r', '\n':
			return true
		}
	}
	r, _ := utf8.DecodeRuneInString(s)
	return unicode.IsSpace(r)
}

// RowEncoder renders DesignPoint rows over one reused buffer — as NDJSON
// lines (Encode), indented JSON body rows (WriteJSON) and CSV records
// (the CSV writers) — with a float-field text memo per rendering. After
// the first few rows warm the buffer (and the write-buffer label cache),
// Encode performs zero allocations per row — it is the emit path of both
// the batch NDJSON writer and the study service's streamed response. A
// RowEncoder must not be shared between goroutines.
type RowEncoder struct {
	buf []byte
	dp  DesignPoint
	fp  FaultPoint

	wbLabels wbLabelCache

	// jsonText and cellText memoize float-field text for the JSON rows
	// and the CSV rows, whose float formats differ.
	jsonText, cellText fieldText
}

// wbLabelCache memoizes WriteBufferConfig.Label by configuration pointer:
// axis points share *WriteBufferConfig values (a study has a handful at
// most), so row emitters render each label once instead of once per row.
// The zero value is ready to use.
type wbLabelCache map[*eval.WriteBufferConfig]string

func (c *wbLabelCache) label(wb *eval.WriteBufferConfig) string {
	if l, ok := (*c)[wb]; ok {
		return l
	}
	if *c == nil {
		*c = make(wbLabelCache, 4)
	}
	l := wb.Label()
	(*c)[wb] = l
	return l
}

// Encode appends one evaluation as a single NDJSON line to w. The rendered
// bytes are exactly json.Encoder.Encode(PointOf(m, s)).
func (e *RowEncoder) Encode(w io.Writer, m *eval.Metrics, s *core.Study) error {
	e.fill(m, s)
	e.buf = e.appendJSON(e.buf[:0], &compactRow)
	e.buf = append(e.buf, '\n')
	_, err := w.Write(e.buf)
	return err
}

// appendJSON appends the scratch row as a JSON object laid out by l.
func (e *RowEncoder) appendJSON(b []byte, l *rowLayout) []byte {
	return e.dp.appendRow(b, l, &e.jsonText)
}

// appendCSV appends the scratch row as a CSV record of columns c.
func (e *RowEncoder) appendCSV(b []byte, c csvColumns) []byte {
	return e.dp.appendCSVRow(b, c, &e.cellText)
}

// fill populates the encoder's scratch row from one evaluation, mirroring
// PointOf without allocating the fault block.
func (e *RowEncoder) fill(m *eval.Metrics, s *core.Study) {
	e.dp = basePoint(m)
	if s != nil {
		if s.Declares(core.AxisWordBits) {
			e.dp.WordBits = m.Array.WordBits
		}
		if s.Declares(core.AxisWriteBuffer) {
			e.dp.WriteBuffer = e.wbLabels.label(m.WriteBuffer)
		}
	}
	if f := m.Fault; f != nil {
		e.fp = FaultPoint{
			Mode:         f.Mode.String(),
			Seed:         f.Seed,
			RawBER:       Float(f.RawBER),
			EffectiveBER: Float(f.EffectiveBER),
		}
		e.dp.Fault = &e.fp
	}
}
