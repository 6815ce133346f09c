package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareMain reads two files of run records written with -out, one per
// commit, and for every workload and end-to-end metric prints both medians,
// each side's spread, and whether the head's median is worse than the
// base's by more than the metric's bound. It exits 1 on any regression.
func compareMain(args []string, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: nvmxbench -compare BASE.jsonl HEAD.jsonl")
		return 2
	}
	base, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvmxbench:", err)
		return 1
	}
	head, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvmxbench:", err)
		return 1
	}
	regressions := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			bv, hv := values(base, w.name, d.name), values(head, w.name, d.name)
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			bm, hm := median(bv), median(hv)
			verdict := "ok"
			if d.regressed(bm, hm) {
				verdict = "REGRESSED"
				regressions++
			}
			fmt.Fprintf(stdout, "%-14s %-15s base %11.5g %-4s (n=%d, spread %s)  head %11.5g (n=%d, spread %s)  %+6.1f%%  %s\n",
				w.name, d.name, bm, d.unit, len(bv), spreadText(bv), hm, len(hv), spreadText(hv),
				100*(hm-bm)/bm, verdict)
		}
	}
	if regressions > 0 {
		return 1
	}
	return 0
}

func spreadText(v []float64) string {
	s, err := spread(v)
	if err != nil {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*s)
}

// values collects one metric of one workload's untraced runs.
func values(recs []runRecord, workload, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			out = append(out, m.Value)
		}
	}
	return out
}

func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}
