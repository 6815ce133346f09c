package main

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

func writeBench(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseBench(t *testing.T) {
	path := writeBench(t, "bench.txt", `goos: linux
BenchmarkCharacterize2MBSTT-8   	    1000	   1234.5 ns/op	      12 B/op	       3 allocs/op
BenchmarkCharacterize2MBSTT-8   	    1200	   1100.0 ns/op
BenchmarkStudyPipeline-8        	      10	 99999 ns/op
BenchmarkFig1PublicationSurvey  	       5	   500 ns/op
BenchmarkStorePutCold-8         	      20	  81234 ns/op	     40960 resident-B	   21345 B/op	      97 allocs/op
PASS
ok  	repro	1.234s
`)
	got, err := parseBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %v", len(got), got)
	}
	// Duplicate samples keep the fastest ns/op while retaining the allocs
	// column from the -benchmem sample.
	c := got["BenchmarkCharacterize2MBSTT"]
	if c.ns != 1100.0 {
		t.Errorf("min-aggregation failed: %+v", c)
	}
	if !c.hasAllocs || c.allocs != 3 {
		t.Errorf("allocs column lost across samples: %+v", c)
	}
	// No -N suffix also parses; no -benchmem columns means no alloc gate.
	if s := got["BenchmarkFig1PublicationSurvey"]; s.ns != 500 || s.hasAllocs {
		t.Errorf("suffix-free benchmark: %+v", s)
	}
	// A b.ReportMetric column between ns/op and the -benchmem columns
	// keeps the allocs/op gate.
	if s := got["BenchmarkStorePutCold"]; s.ns != 81234 || !s.hasAllocs || s.allocs != 97 {
		t.Errorf("benchmark with a custom metric column: %+v", s)
	}
}

func TestCompare(t *testing.T) {
	base := map[string]sample{
		"BenchmarkCharacterize2MBSTT": {ns: 1000},
		"BenchmarkStudyPipeline":      {ns: 2000},
		"BenchmarkFaultInjection":     {ns: 100}, // not gated by the match
		"BenchmarkRetired":            {ns: 50},  // absent from current
	}
	cur := map[string]sample{
		"BenchmarkCharacterize2MBSTT": {ns: 1150}, // +15%: within threshold
		"BenchmarkStudyPipeline":      {ns: 2600}, // +30%: regression
		"BenchmarkFaultInjection":     {ns: 900},  // 9x, but outside the gate
		"BenchmarkBrandNew":           {ns: 10},
	}
	gateRE := regexp.MustCompile(`Characterize|StudyPipeline`)
	regs := compare(base, cur, gateRE, 1.20, 1.20)
	if len(regs) != 1 {
		t.Fatalf("regressions = %+v, want exactly StudyPipeline", regs)
	}
	if regs[0].name != "BenchmarkStudyPipeline" || regs[0].ratio != 1.3 || regs[0].metric != "ns/op" {
		t.Errorf("regression = %+v", regs[0])
	}
	if regs := compare(base, cur, gateRE, 1.50, 1.20); len(regs) != 0 {
		t.Errorf("loose threshold should pass, got %+v", regs)
	}
}

func TestCompareAllocs(t *testing.T) {
	gateRE := regexp.MustCompile(`EvaluateBatch|NDJSON|LLC`)
	base := map[string]sample{
		"BenchmarkEvaluateBatch": {ns: 400, allocs: 0, hasAllocs: true},
		"BenchmarkNDJSONEmit":    {ns: 1000, allocs: 10, hasAllocs: true},
		"BenchmarkLLCSimulator":  {ns: 5000, allocs: 0, hasAllocs: true},
		"BenchmarkNoMem":         {ns: 100},
	}
	// Zero-alloc baselines are ratchets: a single new alloc fails.
	cur := map[string]sample{
		"BenchmarkEvaluateBatch": {ns: 410, allocs: 1, hasAllocs: true},
		"BenchmarkNDJSONEmit":    {ns: 1010, allocs: 11, hasAllocs: true}, // +10%: within
		"BenchmarkLLCSimulator":  {ns: 5100, allocs: 0, hasAllocs: true},
		"BenchmarkNoMem":         {ns: 105, allocs: 99, hasAllocs: true}, // baseline lacks column
	}
	regs := compare(base, cur, gateRE, 1.20, 1.20)
	if len(regs) != 1 || regs[0].name != "BenchmarkEvaluateBatch" || regs[0].metric != "allocs/op" {
		t.Fatalf("regressions = %+v, want the EvaluateBatch alloc ratchet only", regs)
	}
	// A big alloc regression trips even when ns/op stays flat.
	cur["BenchmarkEvaluateBatch"] = sample{ns: 400, allocs: 0, hasAllocs: true}
	cur["BenchmarkNDJSONEmit"] = sample{ns: 1000, allocs: 25, hasAllocs: true}
	regs = compare(base, cur, gateRE, 1.20, 1.20)
	if len(regs) != 1 || regs[0].name != "BenchmarkNDJSONEmit" || regs[0].ratio != 2.5 {
		t.Fatalf("regressions = %+v, want the NDJSONEmit 2.5x alloc regression", regs)
	}
}

func TestGateExitCodes(t *testing.T) {
	const fast = "BenchmarkStudyPipeline-8  10  1000 ns/op\n"
	const slow = "BenchmarkStudyPipeline-8  10  2000 ns/op\n"
	const lean = "BenchmarkStudyPipeline-8  10  1000 ns/op  128 B/op  0 allocs/op\n"
	const leaky = "BenchmarkStudyPipeline-8  10  1000 ns/op  4096 B/op  64 allocs/op\n"
	baseline := writeBench(t, "base.txt", fast)
	within := writeBench(t, "within.txt", fast)
	regressed := writeBench(t, "regressed.txt", slow)
	missing := filepath.Join(t.TempDir(), "does-not-exist.txt")

	cases := []struct {
		name          string
		baseline, cur string
		threshold     float64
		want          int
	}{
		{"within threshold", baseline, within, 1.20, 0},
		{"regression", baseline, regressed, 1.20, 1},
		// The first run on a fork/branch has no artifact to compare
		// against; the gate must degrade gracefully, not fail.
		{"missing baseline skips gate", missing, within, 1.20, 0},
		{"missing current is an error", baseline, missing, 1.20, 2},
		{"missing flags are an error", "", within, 1.20, 2},
		{"empty baseline gates nothing", writeBench(t, "empty.txt", "PASS\n"), within, 1.20, 0},
		{"alloc ratchet trips", writeBench(t, "lean.txt", lean), writeBench(t, "leaky.txt", leaky), 1.20, 1},
		{"alloc ratchet holds", writeBench(t, "lean2.txt", lean), writeBench(t, "lean3.txt", lean), 1.20, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := gate(tc.baseline, tc.cur, tc.threshold, 1.20, "StudyPipeline"); got != tc.want {
				t.Errorf("gate() = %d, want %d", got, tc.want)
			}
		})
	}
}
