package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestFloatJSONRoundTrip(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{1.5, "1.5"},
		{0, "0"},
		{math.Inf(1), "null"},
		{math.Inf(-1), "null"},
		{math.NaN(), "null"},
	}
	for _, tc := range cases {
		b, err := json.Marshal(Float(tc.in))
		if err != nil {
			t.Fatalf("marshal %v: %v", tc.in, err)
		}
		if string(b) != tc.want {
			t.Errorf("marshal %v = %s, want %s", tc.in, b, tc.want)
		}
	}
	var f Float
	if err := json.Unmarshal([]byte("null"), &f); err != nil || !math.IsInf(float64(f), 1) {
		t.Errorf("null should unmarshal to +Inf, got %v err %v", f, err)
	}
	if err := json.Unmarshal([]byte("2.25"), &f); err != nil || f != 2.25 {
		t.Errorf("number unmarshal = %v err %v", f, err)
	}
	if err := json.Unmarshal([]byte(`"x"`), &f); err == nil {
		t.Error("non-numeric value should fail")
	}
}

// TestWritersAgree checks the three batch writers describe the same study:
// JSON points == NDJSON rows, and the combined CSV contains exactly the
// tables WriteCSVs writes as files.
func TestWritersAgree(t *testing.T) {
	cfg, err := Parse(strings.NewReader(dnnConfig))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var jsonBuf, ndBuf, csvBuf bytes.Buffer
	if err := WriteJSON(&jsonBuf, res); err != nil {
		t.Fatal(err)
	}
	if err := WriteNDJSON(&ndBuf, res); err != nil {
		t.Fatal(err)
	}
	if err := WriteCombinedCSV(&csvBuf, res); err != nil {
		t.Fatal(err)
	}

	var body StudyResult
	if err := json.Unmarshal(jsonBuf.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Name != "dnn_study" {
		t.Errorf("name = %q", body.Name)
	}
	if len(body.Points) != len(res.Metrics) {
		t.Fatalf("points = %d, want %d", len(body.Points), len(res.Metrics))
	}
	ndLines := strings.Split(strings.TrimRight(ndBuf.String(), "\n"), "\n")
	if len(ndLines) != len(body.Points) {
		t.Fatalf("ndjson rows = %d, json points = %d", len(ndLines), len(body.Points))
	}
	for i, line := range ndLines {
		var pt DesignPoint
		if err := json.Unmarshal([]byte(line), &pt); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if pt != body.Points[i] {
			t.Errorf("row %d: ndjson %+v != json %+v", i, pt, body.Points[i])
		}
	}
	// One header per technology in the combined CSV.
	headers := strings.Count(csvBuf.String(), "Cell,BitsPerCell,CapacityBytes")
	if headers != 3 { // SRAM, STT, FeFET
		t.Errorf("combined CSV has %d technology tables, want 3", headers)
	}
}

// TestRunContextStreams checks the sweep-level streaming entry point
// delivers points and honors cancellation.
func TestRunContextStreams(t *testing.T) {
	cfg, err := Parse(strings.NewReader(dnnConfig))
	if err != nil {
		t.Fatal(err)
	}
	points := 0
	res, err := RunContext(context.Background(), cfg, func(pt core.PointResult) error {
		points += len(pt.Metrics)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if points != len(res.Metrics) {
		t.Errorf("streamed %d metrics, results hold %d", points, len(res.Metrics))
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, cfg, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled run err = %v", err)
	}
}

// referenceJSON renders the reference study body: reflective encoding of
// Result(res) through a json.Encoder indented with SetIndent("", "  "),
// the bytes WriteJSON must reproduce.
func referenceJSON(t *testing.T, res *core.Results) []byte {
	t.Helper()
	if err := res.EnsureFrontier(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(Result(res)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWriteJSONMatchesEncoder pins the single-pass JSON body writer to the
// reference encoding, byte for byte, over a corpus that exercises every
// shape the body can take: zero rows, the optional trailing blocks, the
// axis and fault columns, Pareto flags, non-finite floats and HTML-escaped
// names. At least one body crosses WriteJSON's flush boundary.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	run := func(body string) *core.Results {
		t.Helper()
		cfg, err := Parse(strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	empty := func(body string) *core.Results {
		t.Helper()
		cfg, err := Parse(strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		s, err := cfg.Study()
		if err != nil {
			t.Fatal(err)
		}
		return &core.Results{Study: s}
	}

	faulted := run(multiAxisConfig)
	faulted.Skipped = []string{"PCM-opt 3bpc @ 1MB: over <area> & budget"}
	faulted.FailedPoints = []core.FailedPoint{
		{Index: 3, Cell: "RRAM-opt", CapacityBytes: 1 << 20, Err: "characterization panic: <injected>"},
	}

	odd := run(dnnConfig)
	odd.Study.Name = `dnn <"study"> & co`
	odd.Metrics[0].Array.Cell.Name = "<b>SRAM & co</b>"
	odd.Metrics[0].Pattern.Name = "resnet <frame>\u2028"
	odd.Metrics[0].LifetimeYears = math.Inf(1)
	odd.Metrics[1].TaskLatencyS = math.NaN()
	odd.Metrics[1].Array.ReadLatencyNS = math.Inf(-1)

	wide := run(`{
		"name": "wide-frontier",
		"cells": [{"technology": "PCM", "flavor": "Opt"}, {"technology": "RRAM", "flavor": "Opt"},
			{"technology": "FeFET", "flavor": "Opt"}, {"technology": "STT", "flavor": "Opt"}],
		"capacities_bytes": [1048576, 2097152, 4194304, 8388608],
		"opt_targets": ["ReadEDP", "Area"],
		"pareto": {"metrics": ["read_latency_ns", "area_mm2", "total_power_mw"]},
		"traffic": {"fixed": [{"name": "a", "reads_per_sec": 1e6, "writes_per_sec": 1e4},
			{"name": "b", "reads_per_sec": 1e8, "writes_per_sec": 1e7},
			{"name": "c", "reads_per_sec": 1e7, "writes_per_sec": 1e5}]}
	}`)
	if err := wide.EnsureFrontier(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		res  *core.Results
	}{
		{"zero rows", empty(dnnConfig)},
		{"zero rows with selection", empty(multiAxisConfig)},
		{"axes, faults, frontier, skipped, failed", faulted},
		{"adaptive exploration", run(adaptiveRefConfig("adaptive_json_ref",
			[]string{`{"technology": "STT", "flavor": "Opt"}`, `{"technology": "RRAM", "flavor": "Opt"}`}, 6, ""))},
		{"non-finite and escaped", odd},
		{"frontier past the first bitmap word", wide},
	}
	if last := wide.Frontier[len(wide.Frontier)-1]; last < 64 {
		t.Fatalf("wide frontier ends at row %d; the corpus needs a flagged row past 63", last)
	}
	var all bytes.Buffer
	longest := 0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := referenceJSON(t, tc.res)
			var got bytes.Buffer
			if err := WriteJSON(&got, tc.res); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				i := 0
				for i < len(want) && i < got.Len() && want[i] == got.Bytes()[i] {
					i++
				}
				lo := max(i-200, 0)
				t.Fatalf("WriteJSON diverges from the reference at byte %d\n got ...%s\nwant ...%s",
					i, got.Bytes()[lo:min(i+200, got.Len())], want[lo:min(i+200, len(want))])
			}
			all.Write(want)
			longest = max(longest, len(want))
		})
	}
	// The corpus must actually reach every shape it claims to cover.
	for _, s := range []string{
		`"points": []`, `"skipped": [`, `"failed_points": [`, `"frontier": {`,
		`"pareto": true`, `"exploration": {`, `"fault": {`, `"word_bits": `,
		`"write_buffer": `, `": null`, `\u003cb\u003e`, `\u0026`, `\u2028`,
	} {
		if !bytes.Contains(all.Bytes(), []byte(s)) {
			t.Errorf("reference corpus never renders %s", s)
		}
	}
	if longest <= jsonChunk {
		t.Errorf("longest body is %d bytes; none crosses the %d-byte flush boundary", longest, jsonChunk)
	}
}
