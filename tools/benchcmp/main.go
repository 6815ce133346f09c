// Command benchcmp compares two `go test -bench` outputs and fails (exit 1)
// when any benchmark matching -match regressed past a threshold ratio — in
// ns/op, or (when both files carry -benchmem columns) in allocs/op. CI uses
// it to gate every commit's engine benchmarks against the previous commit's
// uploaded bench artifact on both time and allocation behavior.
//
// Usage:
//
//	benchcmp -baseline old.txt -current new.txt [-threshold 1.20]
//	         [-alloc-threshold 1.20] [-match 'Characterize|StudyPipeline']
//
// Benchmarks present in only one file are reported but never fail the
// gate (new benchmarks appear, stale ones retire), and a benchmark missing
// allocs/op on either side is gated on ns/op alone. When several samples of
// one benchmark exist (-count > 1), the fastest ns/op and lowest allocs/op
// are used on both sides, which filters scheduler noise on shared CI
// runners. A baseline of zero allocs/op is a ratchet: any current
// allocation on a gated benchmark fails.
//
// A missing baseline file is not a failure: the first run on a fresh
// fork/branch (or after artifact expiry) has nothing to compare against,
// so the gate reports that and passes. A missing *current* file is still
// an error — that means the benchmarks themselves didn't run.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// benchLine matches one benchmark result line, e.g.
//
//	BenchmarkCharacterize2MBSTT-8   1000   1234567 ns/op   12 B/op   3 allocs/op
//
// and allocsCol its allocs/op column, wherever it sits: b.ReportMetric
// columns (e.g. "12345 resident-B") may come between ns/op and the
// -benchmem columns.
var (
	benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)
	allocsCol = regexp.MustCompile(`\s([0-9.]+) allocs/op\b`)
)

// sample is one benchmark's best observation: fastest ns/op and, when the
// output carried -benchmem columns, lowest allocs/op.
type sample struct {
	ns        float64
	allocs    float64
	hasAllocs bool
}

// parseBench reads a bench output file into name -> best sample.
func parseBench(path string) (map[string]sample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]sample{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		s := sample{ns: ns}
		if a := allocsCol.FindStringSubmatch(sc.Text()); a != nil {
			if a, err := strconv.ParseFloat(a[1], 64); err == nil {
				s.allocs = a
				s.hasAllocs = true
			}
		}
		prev, ok := out[m[1]]
		if !ok {
			out[m[1]] = s
			continue
		}
		if s.ns < prev.ns {
			prev.ns = s.ns
		}
		if s.hasAllocs && (!prev.hasAllocs || s.allocs < prev.allocs) {
			prev.allocs = s.allocs
			prev.hasAllocs = true
		}
		out[m[1]] = prev
	}
	return out, sc.Err()
}

// regression is one gated benchmark that slowed (or allocated) past its
// threshold.
type regression struct {
	name      string
	metric    string // "ns/op" or "allocs/op"
	base, cur float64
	ratio     float64
}

// compare returns the regressions among benchmarks present in both sets
// and matching the gate expression. Time gates on nsThreshold; allocation
// counts, which are near-deterministic, gate on allocThreshold, with a
// zero-alloc baseline acting as a strict ratchet.
func compare(base, cur map[string]sample, gate *regexp.Regexp, nsThreshold, allocThreshold float64) []regression {
	var regs []regression
	for name, b := range base {
		c, ok := cur[name]
		if !ok || !gate.MatchString(name) {
			continue
		}
		if b.ns > 0 {
			if ratio := c.ns / b.ns; ratio > nsThreshold {
				regs = append(regs, regression{name: name, metric: "ns/op", base: b.ns, cur: c.ns, ratio: ratio})
			}
		}
		if b.hasAllocs && c.hasAllocs {
			switch {
			case b.allocs == 0 && c.allocs > 0:
				regs = append(regs, regression{name: name, metric: "allocs/op",
					base: 0, cur: c.allocs, ratio: c.allocs})
			case b.allocs > 0:
				if ratio := c.allocs / b.allocs; ratio > allocThreshold {
					regs = append(regs, regression{name: name, metric: "allocs/op",
						base: b.allocs, cur: c.allocs, ratio: ratio})
				}
			}
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].ratio != regs[j].ratio {
			return regs[i].ratio > regs[j].ratio
		}
		return regs[i].name < regs[j].name
	})
	return regs
}

// gate runs the comparison and returns the process exit code: 0 pass (or
// nothing to gate, including a missing baseline), 1 regression, 2 usage or
// I/O error. Messages go to stdout/stderr as in a normal run.
func gate(baseline, current string, threshold, allocThreshold float64, match string) int {
	if baseline == "" || current == "" {
		fmt.Fprintln(os.Stderr, "benchcmp: need -baseline and -current")
		return 2
	}
	gateRE, err := regexp.Compile(match)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		return 2
	}
	base, err := parseBench(baseline)
	if errors.Is(err, fs.ErrNotExist) {
		fmt.Printf("benchcmp: no baseline at %s (first run on this branch?); skipping gate\n",
			baseline)
		return 0
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		return 2
	}
	cur, err := parseBench(current)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		return 2
	}
	if len(base) == 0 {
		fmt.Println("benchcmp: baseline has no benchmark lines; nothing to gate")
		return 0
	}

	gated := 0
	var names []string
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c, ok := cur[name]
		if !ok || !gateRE.MatchString(name) {
			continue
		}
		gated++
		b := base[name]
		line := fmt.Sprintf("%-44s %12.0f -> %12.0f ns/op  (%+.1f%%)",
			name, b.ns, c.ns, (c.ns/b.ns-1)*100)
		if b.hasAllocs && c.hasAllocs {
			line += fmt.Sprintf("  %8.0f -> %8.0f allocs/op", b.allocs, c.allocs)
		}
		fmt.Println(line)
	}
	if gated == 0 {
		fmt.Printf("benchcmp: no benchmarks matched %q in both files; nothing to gate\n", match)
		return 0
	}

	regs := compare(base, cur, gateRE, threshold, allocThreshold)
	if len(regs) == 0 {
		fmt.Printf("benchcmp: %d gated benchmarks within %.0f%% of baseline (ns/op and allocs/op)\n",
			gated, (threshold-1)*100)
		return 0
	}
	fmt.Printf("\nbenchcmp: %d regression(s) beyond the threshold:\n", len(regs))
	for _, r := range regs {
		fmt.Printf("  %s: %.0f -> %.0f %s (%.2fx)\n", r.name, r.base, r.cur, r.metric, r.ratio)
	}
	return 1
}

func main() {
	baseline := flag.String("baseline", "", "baseline bench output file")
	current := flag.String("current", "", "current bench output file")
	threshold := flag.Float64("threshold", 1.20, "max allowed current/baseline ns/op ratio")
	allocThreshold := flag.Float64("alloc-threshold", 1.20,
		"max allowed current/baseline allocs/op ratio (0-alloc baselines ratchet strictly)")
	match := flag.String("match", "Characterize|StudyPipeline",
		"regexp selecting the benchmarks the gate applies to")
	flag.Parse()
	os.Exit(gate(*baseline, *current, *threshold, *allocThreshold, *match))
}
