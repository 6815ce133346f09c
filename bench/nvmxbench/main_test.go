package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite golden.json from the batch path")

// TestMain lets the test binary serve as the benchmark's child processes,
// which the quick-mode test starts by re-running this executable.
func TestMain(m *testing.M) {
	if raw := os.Getenv(childEnv); raw != "" {
		os.Exit(childMain(raw))
	}
	os.Exit(m.Run())
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	if v, err := percentile(samples, 99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(samples[:999], 99); err == nil {
		t.Error("p99 of 999 samples: want an error (only 9 beyond it)")
	}
	if v, err := percentile(samples[:20], 50); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if _, err := percentile(samples[:19], 50); err == nil {
		t.Error("p50 of 19 samples: want an error")
	}
	if v := nearestRank(samples[:50], 99); v != 50 {
		t.Errorf("nearest-rank p99 of 1..50 = %v, want 50", v)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(data, n=4).
	for _, tc := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{2, 4}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 12, 11, 30, 13, 9, 10.5}, [3]float64{10, 11, 13}},
	} {
		q1, q2, q3, err := quartiles(tc.data)
		if err != nil || [3]float64{q1, q2, q3} != tc.want {
			t.Errorf("quartiles(%v) = %v %v %v, %v; want %v", tc.data, q1, q2, q3, err, tc.want)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value: want an error")
	}
	s, err := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil || math.Abs(s-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, %v; want (8.25-2.75)/5.5 = 1", s, err)
	}
}

func TestRegressedBound(t *testing.T) {
	def := func(name string) metricDef {
		for _, d := range endToEnd {
			if d.name == name {
				return d
			}
		}
		t.Fatalf("no metric %s", name)
		return metricDef{}
	}
	p50, rate, setup := def("latency_p50_ms"), def("req_per_s"), def("setup_s")
	for _, tc := range []struct {
		d          metricDef
		base, head float64
		want       bool
	}{
		{p50, 10, 12.4, false},
		{p50, 10, 12.6, true},
		{p50, 10, 5, false},
		{rate, 100, 76, false},
		{rate, 100, 74, true},
		{rate, 100, 200, false},
		// setup_s allows 25% or 0.05 s, whichever is larger.
		{setup, 0.002, 0.04, false},
		{setup, 0.002, 0.06, true},
		{setup, 1, 1.2, false},
		{setup, 1, 1.3, true},
	} {
		if got := tc.d.regressed(tc.base, tc.head); got != tc.want {
			t.Errorf("%s: %v -> %v regressed = %v, want %v", tc.d.name, tc.base, tc.head, got, tc.want)
		}
	}
}

func TestGeneratorsAreSeeded(t *testing.T) {
	for _, w := range workloads {
		gens := map[string]func(int64, int) request{w.name: w.next}
		if w.write != nil {
			gens[w.name+"/write"] = w.write
		}
		for name, gen := range gens {
			seq := func(seed int64) []byte {
				var b bytes.Buffer
				for i := 0; i < 20; i++ {
					r := gen(seed, i)
					b.WriteString(r.path)
					b.Write(r.body)
					b.WriteByte('\n')
				}
				return b.Bytes()
			}
			if !bytes.Equal(seq(1), seq(1)) {
				t.Errorf("%s: seed 1 gave two different request sequences", name)
			}
			if bytes.Equal(seq(1), seq(2)) {
				t.Errorf("%s: seeds 1 and 2 gave the same request sequence", name)
			}
		}
	}
}

// TestWarmMixFormats checks warm-replay's format shares: half JSON, a
// quarter each NDJSON and CSV.
func TestWarmMixFormats(t *testing.T) {
	n := map[sweep.Format]int{}
	for _, m := range warmMix {
		n[m.format]++
	}
	if len(warmMix) != 24 || n[sweep.FormatJSON] != 12 || n[sweep.FormatNDJSON] != 6 || n[sweep.FormatCSV] != 6 {
		t.Errorf("warm mix of %d requests has formats %v, want 12 JSON, 6 NDJSON, 6 CSV", len(warmMix), n)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root
// describes the workloads and metrics this command runs and prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var listed, defined []string
	for _, w := range b.Workloads {
		listed = append(listed, w.Name)
	}
	for _, w := range workloads {
		defined = append(defined, w.name)
	}
	if !slices.Equal(listed, defined) {
		t.Errorf("workloads: BENCHMARK.json lists %v, the command runs %v", listed, defined)
	}
	want := func(section string, got []metric, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", section, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if m := (metric{d.name, d.unit, d.better, d.bound}); got[i] != m {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the command prints %+v", section, i, got[i], m)
			}
		}
	}
	want("end_to_end", b.EndToEnd, endToEnd)
	want("per_layer", b.PerLayer, perLayer())
}

// TestGolden checks golden.json against the batch path, and with -update
// rewrites it.
func TestGolden(t *testing.T) {
	sums := map[string]string{}
	for _, c := range warmConfigs {
		for _, f := range []sweep.Format{sweep.FormatJSON, sweep.FormatNDJSON, sweep.FormatCSV} {
			body, err := batchRender([]byte(c.body), f)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, f, err)
			}
			sum := sha256.Sum256(body)
			sums[c.name+"/"+string(f)] = hex.EncodeToString(sum[:])
		}
	}
	if *update {
		data, err := json.MarshalIndent(sums, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("golden.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for k, v := range sums {
		if golden[k] != v {
			t.Errorf("%s: batch path hashes to %s, golden.json has %s", k, v, golden[k])
		}
	}
	if len(golden) != len(sums) {
		t.Errorf("golden.json has %d entries, want %d", len(golden), len(sums))
	}
}

// TestQuick runs every workload in quick mode, untraced and traced, through
// the command's own entry point, and checks the result line. Workloads run
// in parallel, as many at a time as -parallel allows.
func TestQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("starts benchmark child processes")
	}
	dir := t.TempDir()
	t.Run("workloads", func(t *testing.T) {
		for _, w := range workloads {
			t.Run(w.name, func(t *testing.T) {
				t.Parallel()
				for _, trace := range []string{"0", "1"} {
					checkQuick(t, w.name, trace, dir)
				}
			})
		}
	})
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "run-") {
			t.Errorf("run directory %s left behind", e.Name())
		}
	}
}

func checkQuick(t *testing.T, workload, trace, dir string) {
	t.Helper()
	var out bytes.Buffer
	code := run([]string{"-quick", "-workload", workload, "-trace", trace, "-dir", dir}, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("trace %s: exit %d, last line not JSON: %v\n%s", trace, code, err, out.String())
	}
	if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("trace %s: exit %d, %+v", trace, code, res)
	}
	want := endToEnd
	if trace == "1" {
		want = perLayer()
	}
	var names []string
	for _, d := range want {
		names = append(names, d.name)
		if _, ok := res.Metrics[d.name]; !ok {
			t.Errorf("trace %s: metric %s missing", trace, d.name)
		}
	}
	for name := range res.Metrics {
		if !slices.Contains(names, name) {
			t.Errorf("trace %s: unexpected metric %s", trace, name)
		}
	}
}
