package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestAppendJSONStringMatchesStdlib pins the hand-rolled string escaper to
// encoding/json over every single-byte string, HTML-escaped characters,
// multi-byte runes, the JS line separators, and invalid UTF-8.
func TestAppendJSONStringMatchesStdlib(t *testing.T) {
	var cases []string
	for b := 0; b < 256; b++ {
		cases = append(cases, string([]byte{byte(b)}))
		cases = append(cases, "mid"+string([]byte{byte(b)})+"dle")
	}
	cases = append(cases,
		"", "plain", `quo"te`, `back\slash`, "<script>&amp;</script>",
		"µ-controller", "漢字", "emoji 🎉 row", " line sep",
		string([]byte{0xff, 0xfe, 'a'}), "tab\tnl\ncr\r", "\x00\x1f\x7f",
	)
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got := appendJSONString(nil, s)
		if !bytes.Equal(got, want) {
			t.Errorf("appendJSONString(%q) = %s, want %s", s, got, want)
		}
	}
}

// TestAppendJSONFloatMatchesStdlib pins the float encoder to encoding/json
// across magnitude regimes, subnormals, and exact-integer values.
func TestAppendJSONFloatMatchesStdlib(t *testing.T) {
	cases := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1e-7, 9.999999e-7, 1e-6, 1e20,
		1e21, -1e21, 2.5e22, 123456789.123456, 3.141592653589793,
		5e-324, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		1.0000000000000002, 42, -273.15, 6.02214076e23, 1e-308,
	}
	for _, v := range cases {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got := appendJSONFloat(nil, v)
		if !bytes.Equal(got, want) {
			t.Errorf("appendJSONFloat(%g) = %s, want %s", v, got, want)
		}
	}
}

// appendCorpus builds DesignPoints exercising every optional block and the
// null-rendering non-finite floats.
func appendCorpus() []DesignPoint {
	return []DesignPoint{
		{},
		{Cell: "SRAM", Technology: "SRAM", BitsPerCell: 1, CapacityBytes: 2 << 20,
			OptTarget: "ReadEDP", Pattern: "generic r1GBs w0.01GBs",
			ReadLatencyNS: 1.25, LifetimeYears: Float(math.Inf(1)), MeetsTaskRate: true},
		{Cell: `odd"name`, Pattern: "<b>&", TaskLatencyS: Float(math.NaN()),
			WordBits: 128, WriteBuffer: "mask(2ns)+coalesce(0.25)", Pareto: true},
		{Cell: "faulty", Fault: &FaultPoint{Mode: "secded", Seed: -7,
			RawBER: 1.5e-9, EffectiveBER: Float(math.Inf(-1))}},
		{Cell: "neg", CapacityBytes: -1, BitsPerCell: -2, WordBits: 0,
			DynamicPowerMW: -0.001, AreaMM2: 1e21},
	}
}

// TestAppendJSONMatchesMarshalShape requires AppendJSON to produce exactly
// the bytes reflective marshaling of the same schema produces. The
// reference is a shadow struct with identical fields and tags but no
// Marshaler implementation.
func TestAppendJSONMatchesMarshalShape(t *testing.T) {
	type shadowFault struct {
		Mode         string `json:"mode"`
		Seed         int64  `json:"seed"`
		RawBER       Float  `json:"raw_ber"`
		EffectiveBER Float  `json:"effective_ber"`
	}
	type shadow struct {
		Cell            string       `json:"cell"`
		Technology      string       `json:"technology"`
		BitsPerCell     int          `json:"bits_per_cell"`
		CapacityBytes   int64        `json:"capacity_bytes"`
		OptTarget       string       `json:"opt_target"`
		Pattern         string       `json:"pattern"`
		ReadLatencyNS   Float        `json:"read_latency_ns"`
		WriteLatencyNS  Float        `json:"write_latency_ns"`
		ReadEnergyPJ    Float        `json:"read_energy_pj"`
		WriteEnergyPJ   Float        `json:"write_energy_pj"`
		LeakagePowerMW  Float        `json:"leakage_power_mw"`
		AreaMM2         Float        `json:"area_mm2"`
		AreaEfficiency  Float        `json:"area_efficiency"`
		DensityMbPerMM2 Float        `json:"density_mb_per_mm2"`
		TotalPowerMW    Float        `json:"total_power_mw"`
		DynamicPowerMW  Float        `json:"dynamic_power_mw"`
		MemTimePerSec   Float        `json:"mem_time_per_sec"`
		TaskLatencyS    Float        `json:"task_latency_s"`
		MeetsTaskRate   bool         `json:"meets_task_rate"`
		LifetimeYears   Float        `json:"lifetime_years"`
		WordBits        int          `json:"word_bits,omitempty"`
		WriteBuffer     string       `json:"write_buffer,omitempty"`
		Fault           *shadowFault `json:"fault,omitempty"`
		Pareto          bool         `json:"pareto,omitempty"`
	}
	for i, p := range appendCorpus() {
		sh := shadow{
			Cell: p.Cell, Technology: p.Technology, BitsPerCell: p.BitsPerCell,
			CapacityBytes: p.CapacityBytes, OptTarget: p.OptTarget, Pattern: p.Pattern,
			ReadLatencyNS: p.ReadLatencyNS, WriteLatencyNS: p.WriteLatencyNS,
			ReadEnergyPJ: p.ReadEnergyPJ, WriteEnergyPJ: p.WriteEnergyPJ,
			LeakagePowerMW: p.LeakagePowerMW, AreaMM2: p.AreaMM2,
			AreaEfficiency: p.AreaEfficiency, DensityMbPerMM2: p.DensityMbPerMM2,
			TotalPowerMW: p.TotalPowerMW, DynamicPowerMW: p.DynamicPowerMW,
			MemTimePerSec: p.MemTimePerSec, TaskLatencyS: p.TaskLatencyS,
			MeetsTaskRate: p.MeetsTaskRate, LifetimeYears: p.LifetimeYears,
			WordBits: p.WordBits, WriteBuffer: p.WriteBuffer, Pareto: p.Pareto,
		}
		if p.Fault != nil {
			sh.Fault = &shadowFault{Mode: p.Fault.Mode, Seed: p.Fault.Seed,
				RawBER: p.Fault.RawBER, EffectiveBER: p.Fault.EffectiveBER}
		}
		want, err := json.Marshal(sh)
		if err != nil {
			t.Fatal(err)
		}
		got := p.AppendJSON(nil)
		if !bytes.Equal(got, want) {
			t.Errorf("corpus %d: AppendJSON diverges from reflective marshal\n got %s\nwant %s", i, got, want)
		}
		// Reflective marshaling of DesignPoint itself — what the JSON body
		// reference (referenceJSON) encodes rows with — must agree too, so
		// the struct tags and the appenders describe one schema.
		viaReflection, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(viaReflection, want) {
			t.Errorf("corpus %d: reflective DesignPoint encoding diverges\n got %s\nwant %s", i, viaReflection, want)
		}
	}
}

// encoderStudy is a small multi-axis study exercising the axis columns and
// the fault block in real rows.
func encoderStudy(t *testing.T) *core.Results {
	t.Helper()
	cfg, err := Parse(strings.NewReader(`{
		"name": "row-encoder",
		"cells": [{"technology": "STT", "flavor": "Opt"}],
		"capacities_bytes": [1048576],
		"word_bits_axis": [128, 512],
		"write_buffers": [null, {"mask_latency": true, "buffer_latency_ns": 1.5}],
		"fault": {"modes": ["raw", "secded"], "seed": 3},
		"traffic": {"generic": {"read_gbs_lo": 1, "read_gbs_hi": 10,
			"write_gbs_lo": 0.01, "write_gbs_hi": 0.1, "points": 2}}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRowEncoderMatchesPointOf requires the reused streaming encoder to
// produce exactly json.Encoder.Encode(PointOf(m, study)) for every row of
// a multi-axis study.
func TestRowEncoderMatchesPointOf(t *testing.T) {
	res := encoderStudy(t)
	var enc RowEncoder
	var got, want bytes.Buffer
	jenc := json.NewEncoder(&want)
	for i := range res.Metrics {
		if err := enc.Encode(&got, &res.Metrics[i], res.Study); err != nil {
			t.Fatal(err)
		}
		if err := jenc.Encode(PointOf(res.Metrics[i], res.Study)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("RowEncoder stream diverges from PointOf encoding\n got %s\nwant %s",
			got.Bytes(), want.Bytes())
	}
}

// TestNDJSONRowAllocs is the streaming emit ratchet: once the encoder's
// buffer and label cache are warm, a row costs zero allocations.
func TestNDJSONRowAllocs(t *testing.T) {
	res := encoderStudy(t)
	var enc RowEncoder
	for i := range res.Metrics { // warm buffer + write-buffer label cache
		if err := enc.Encode(io.Discard, &res.Metrics[i], res.Study); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := range res.Metrics {
			if err := enc.Encode(io.Discard, &res.Metrics[i], res.Study); err != nil {
				t.Fatal(err)
			}
		}
	})
	perRow := allocs / float64(len(res.Metrics))
	if perRow != 0 {
		t.Errorf("NDJSON emit allocates %.2f per row, want 0", perRow)
	}
}

// queryBenchGrid runs the query-bench grid: four cells at two capacities
// and two targets under a 16×16 generic traffic sweep, 4,096 rows — the
// largest study the warm-replay benchmark renders.
const queryBenchConfig = `{
	"name": "query-bench",
	"cells": [{"technology": "STT", "flavor": "Opt"}, {"technology": "RRAM", "flavor": "Opt"},
		{"technology": "PCM", "flavor": "Opt"}, {"technology": "FeFET", "flavor": "Opt"}],
	"capacities_bytes": [2097152, 4194304],
	"opt_targets": ["ReadEDP", "Area"],
	"traffic": {"generic": {"read_gbs_lo": 0.1, "read_gbs_hi": 10,
		"write_gbs_lo": 0.001, "write_gbs_hi": 1, "points": 16}}
}`

func queryBenchGrid(tb testing.TB) *core.Results {
	tb.Helper()
	cfg, err := Parse(strings.NewReader(queryBenchConfig))
	if err != nil {
		tb.Fatal(err)
	}
	res, err := Run(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if len(res.Metrics) != 4096 {
		tb.Fatalf("query-bench grid has %d rows, want 4096", len(res.Metrics))
	}
	return res
}

// TestWriteJSONAllocs is the buffered-body emit ratchet: rendering the
// 4,096-row grid as JSON costs a fixed handful of allocations (the chunk
// buffer and row-encoder scratch), not a number that grows with the rows.
func TestWriteJSONAllocs(t *testing.T) {
	res := queryBenchGrid(t)
	allocs := testing.AllocsPerRun(5, func() {
		if err := WriteJSON(io.Discard, res); err != nil {
			t.Fatal(err)
		}
	})
	const maxAllocs = 8
	if allocs > maxAllocs {
		t.Errorf("WriteJSON of %d rows allocates %.0f times, want <= %d", len(res.Metrics), allocs, maxAllocs)
	}
}

// TestWriteNDJSONStreamedParity re-checks batch-vs-streamed parity on the
// RowEncoder path: WriteNDJSON output must equal concatenating RunStream
// emissions through a RowEncoder (the study service's streaming shape).
func TestWriteNDJSONStreamedParity(t *testing.T) {
	res := encoderStudy(t)
	var batch bytes.Buffer
	if err := WriteNDJSON(&batch, res); err != nil {
		t.Fatal(err)
	}
	cfg, err := Parse(strings.NewReader(`{
		"name": "row-encoder",
		"cells": [{"technology": "STT", "flavor": "Opt"}],
		"capacities_bytes": [1048576],
		"word_bits_axis": [128, 512],
		"write_buffers": [null, {"mask_latency": true, "buffer_latency_ns": 1.5}],
		"fault": {"modes": ["raw", "secded"], "seed": 3},
		"traffic": {"generic": {"read_gbs_lo": 1, "read_gbs_hi": 10,
			"write_gbs_lo": 0.01, "write_gbs_hi": 0.1, "points": 2}}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	study, err := cfg.Study()
	if err != nil {
		t.Fatal(err)
	}
	var streamed bytes.Buffer
	var enc RowEncoder
	if _, err := study.RunStream(context.Background(), func(pt core.PointResult) error {
		for i := range pt.Metrics {
			if err := enc.Encode(&streamed, &pt.Metrics[i], study); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(batch.Bytes(), streamed.Bytes()) {
		t.Fatal("streamed NDJSON diverges from batch WriteNDJSON")
	}
}

// The grid benchmarks report the emit cost of each study format over the
// 4,096-row query-bench grid.

func benchmarkWriteGrid(b *testing.B, write func(io.Writer, *core.Results) error) {
	res := queryBenchGrid(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := write(io.Discard, res); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteJSONGrid(b *testing.B)   { benchmarkWriteGrid(b, WriteJSON) }
func BenchmarkWriteNDJSONGrid(b *testing.B) { benchmarkWriteGrid(b, WriteNDJSON) }
func BenchmarkWriteCSVGrid(b *testing.B)    { benchmarkWriteGrid(b, WriteCombinedCSV) }

// BenchmarkExpandGrid reports the cost of expanding the query-bench study:
// parse, validation, space enumeration and the fingerprint over every
// point key.
func BenchmarkExpandGrid(b *testing.B) {
	body := []byte(queryBenchConfig)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Expand(body, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}
