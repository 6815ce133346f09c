package sweep

import (
	"io"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/eval"
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
// allocations.

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
func (p *DesignPoint) AppendJSON(b []byte) []byte { return p.appendRow(b, &compactRow) }

// appendRow appends the row as one JSON object laid out by l: the single
// definition of the DesignPoint schema's key order, value encodings and
// omitempty rules.
func (p *DesignPoint) appendRow(b []byte, l *rowLayout) []byte {
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
	b = appendFloatField(b, p.ReadLatencyNS)
	b = appendKey(b, l.indent, `,"write_latency_ns":`)
	b = appendFloatField(b, p.WriteLatencyNS)
	b = appendKey(b, l.indent, `,"read_energy_pj":`)
	b = appendFloatField(b, p.ReadEnergyPJ)
	b = appendKey(b, l.indent, `,"write_energy_pj":`)
	b = appendFloatField(b, p.WriteEnergyPJ)
	b = appendKey(b, l.indent, `,"leakage_power_mw":`)
	b = appendFloatField(b, p.LeakagePowerMW)
	b = appendKey(b, l.indent, `,"area_mm2":`)
	b = appendFloatField(b, p.AreaMM2)
	b = appendKey(b, l.indent, `,"area_efficiency":`)
	b = appendFloatField(b, p.AreaEfficiency)
	b = appendKey(b, l.indent, `,"density_mb_per_mm2":`)
	b = appendFloatField(b, p.DensityMbPerMM2)
	b = appendKey(b, l.indent, `,"total_power_mw":`)
	b = appendFloatField(b, p.TotalPowerMW)
	b = appendKey(b, l.indent, `,"dynamic_power_mw":`)
	b = appendFloatField(b, p.DynamicPowerMW)
	b = appendKey(b, l.indent, `,"mem_time_per_sec":`)
	b = appendFloatField(b, p.MemTimePerSec)
	b = appendKey(b, l.indent, `,"task_latency_s":`)
	b = appendFloatField(b, p.TaskLatencyS)
	b = appendKey(b, l.indent, `,"meets_task_rate":`)
	b = appendBool(b, p.MeetsTaskRate)
	b = appendKey(b, l.indent, `,"lifetime_years":`)
	b = appendFloatField(b, p.LifetimeYears)
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
		b = appendFloatField(b, f.RawBER)
		b = appendKey(b, l.faultIndent, `,"effective_ber":`)
		b = appendFloatField(b, f.EffectiveBER)
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

// RowEncoder writes DesignPoint rows as NDJSON lines over one reused
// buffer. After the first few rows warm the buffer (and the write-buffer
// label cache), Encode performs zero allocations per row — it is the emit
// path of both the batch NDJSON writer and the study service's streamed
// response. A RowEncoder must not be shared between goroutines.
type RowEncoder struct {
	buf []byte
	dp  DesignPoint
	fp  FaultPoint

	wbLabels wbLabelCache
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
	e.buf = e.dp.AppendJSON(e.buf[:0])
	e.buf = append(e.buf, '\n')
	_, err := w.Write(e.buf)
	return err
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
