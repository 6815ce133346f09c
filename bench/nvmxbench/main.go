// Command nvmxbench is the repository benchmark. It drives the real study
// service (internal/server) over loopback HTTP with a seeded workload,
// checks every output, and prints the end-to-end metrics; with -trace 1 it
// instead replays the workload's first requests through each layer's public
// entry points and prints per-layer metrics from the spans.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh -workload cold-codesign [-seed 1] [-seconds 20] [-trace 0|1] [-quick] [-out FILE]
//	bash bench/run.sh -compare BASE.jsonl HEAD.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The command exits non-zero when
// any request fails or any output is wrong.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() {
	if raw := os.Getenv(childEnv); raw != "" {
		os.Exit(childMain(raw))
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	out      string
	dir      string
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("nvmxbench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "cold-codesign, warm-replay, query-mix or fabric-cold")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are drawn from")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the measured window in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced replay and prints per-layer metrics instead")
	fs.BoolVar(&o.quick, "quick", false, "about 50 operations (2 s for query-mix) instead of the window")
	fs.StringVar(&o.out, "out", "", "append the run's full record to this file as one JSON line")
	fs.StringVar(&o.dir, "dir", ".bench_build", "directory for store directories and trace files")
	compare := fs.Bool("compare", false, "compare two files of -out records: -compare BASE HEAD")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareMain(fs.Args(), stdout)
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(os.Stderr, "nvmxbench: -trace takes 0 or 1")
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "nvmxbench: -seconds must be positive")
		return 2
	}
	// An interrupted run stops its child processes, waits for them, and
	// removes its directory before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rec, err := runWorkload(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvmxbench:", err)
		return 1
	}
	for _, e := range rec.Errors {
		fmt.Fprintln(os.Stderr, "nvmxbench: failure:", e)
	}
	defs := endToEnd
	if rec.Trace {
		defs = perLayer()
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-44s %16.6g %s\n", d.name, rec.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(stdout, "samples %v, attempted %d, failed %d\n", rec.Samples, rec.Attempted, rec.Failed)
	if o.out != "" {
		if err := appendRecord(o.out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "nvmxbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvmxbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rec.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is everything one run measured, with the environment it ran in.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Quick     bool                   `json:"quick"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Samples   map[string]int         `json:"samples"`
	Errors    []string               `json:"errors,omitempty"`
	GoVersion string                 `json:"go_version"`
	// GOMAXPROCS is the measured processes' setting, not this one's.
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
}

// childTimeout bounds one child process, so a hung step cannot hang the run.
const childTimeout = 150 * time.Second

// runChild runs one step in a child process of this executable and decodes
// its answer into out. Cancelling ctx kills the child.
func runChild(ctx context.Context, spec childSpec, out any) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self)
	cmd.Env = append(os.Environ(), childEnv+"="+string(raw))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s step: %w", spec.Role, err)
	}
	if err := json.Unmarshal(stdout, out); err != nil {
		return fmt.Errorf("%s step answered %q: %w", spec.Role, stdout, err)
	}
	return nil
}

// setupRuns is how many processes only set up and stop, so that set-up time
// is a median of several: a cold set-up takes under a millisecond and single
// samples scatter by several times that. setupWarmups more run first and are
// not counted.
const (
	setupRuns    = 9
	setupWarmups = 2
)

// runWorkload runs one workload in a fresh directory under o.dir and
// removes the directory afterwards.
func runWorkload(ctx context.Context, o options) (*runRecord, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(o.dir, "run-")
	if err != nil {
		return nil, err
	}
	defer func() {
		os.RemoveAll(work)
		// Commit the deletion (and the discards it triggers on disks mounted
		// with online discard) before the next run starts.
		syscall.Sync()
	}()
	rec := &runRecord{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace == 1, Quick: o.quick,
		Metrics: map[string]metricValue{}, Samples: map[string]int{},
		GoVersion: runtime.Version(), GOMAXPROCS: procs, NumCPU: runtime.NumCPU(),
	}
	spec := childSpec{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Quick: o.quick}
	if rec.Trace {
		err = traced(ctx, w, o, spec, work, rec)
	} else {
		err = untraced(ctx, w, spec, work, rec)
	}
	if err != nil {
		return nil, err
	}
	rec.Correct = rec.Failed == 0
	return rec, nil
}

// primed runs the workload's priming step into dir, when it has one.
func primed(ctx context.Context, w workload, spec childSpec, dir string) error {
	if w.prime == nil {
		return nil
	}
	spec.Role, spec.Dir = "prime", dir
	return runChild(ctx, spec, &struct{}{})
}

func untraced(ctx context.Context, w workload, spec childSpec, work string, rec *runRecord) error {
	dir := filepath.Join(work, "store")
	if err := primed(ctx, w, spec, dir); err != nil {
		return err
	}
	var m measureOut
	ms := spec
	ms.Role, ms.Dir = "measure", dir
	if err := runChild(ctx, ms, &m); err != nil {
		return err
	}
	// Set-ups are sampled after the measured window, so that on every run they
	// follow the same steady work: right after an idle spell, or after the
	// teardown of a previous run, set-ups take up to three times longer for a
	// second or more. The first setupWarmups are discarded. A primed workload
	// sets up on the store the window left behind; the others on an empty
	// directory each.
	setups := []float64{m.SetupS}
	if !spec.Quick {
		setups = nil
		for k := 0; k < setupWarmups+setupRuns; k++ {
			s := spec
			s.Role, s.Dir = "setup", dir
			if w.prime == nil {
				s.Dir = filepath.Join(work, fmt.Sprintf("setup-%d", k))
			}
			var out setupOut
			if err := runChild(ctx, s, &out); err != nil {
				return err
			}
			if k >= setupWarmups {
				setups = append(setups, out.SetupS)
			}
		}
	}

	pct := percentile
	if spec.Quick {
		pct = func(s []float64, p int) (float64, error) { return nearestRank(s, p), nil }
	}
	p50, err := pct(m.LatencyMS, 50)
	if err != nil {
		return err
	}
	p99, err := pct(m.LatencyMS, 99)
	if err != nil {
		return err
	}
	values := map[string]float64{
		"setup_s":        median(setups),
		"latency_p50_ms": p50,
		"latency_p99_ms": p99,
		"req_per_s":      float64(len(m.LatencyMS)) / m.ElapsedS,
		"retained_mb":    m.RetainedMB,
	}
	for _, d := range endToEnd {
		rec.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	rec.Samples["latency"] = len(m.LatencyMS)
	rec.Samples["setup"] = len(setups)
	rec.Samples["writes"] = m.Writes
	rec.Attempted, rec.Failed, rec.Errors = m.Attempted, m.Failed, m.Errors
	return nil
}

func traced(ctx context.Context, w workload, o options, spec childSpec, work string, rec *runRecord) error {
	spec.Ops = filepath.Join(work, "ops.json")
	a := spec
	a.Role, a.Dir = "prefix", filepath.Join(work, "http")
	if err := primed(ctx, w, spec, a.Dir); err != nil {
		return err
	}
	var pa prefixOut
	if err := runChild(ctx, a, &pa); err != nil {
		return err
	}
	b := spec
	b.Role, b.Dir = "replay", filepath.Join(work, "replay")
	b.Trace = filepath.Join(o.dir, "trace-"+w.name+".json")
	if err := primed(ctx, w, spec, b.Dir); err != nil {
		return err
	}
	var rb replayOut
	if err := runChild(ctx, b, &rb); err != nil {
		return err
	}
	rb.Metrics["server.glue.ms_per_req"] = pa.HTTPMSPerReq - rb.ReplayMSPerReq
	rb.Metrics["trace.coverage"] = rb.ReplayMSPerReq / pa.HTTPMSPerReq
	rb.Metrics["loadgen.lag_max_ms"] = pa.LagMaxMS
	rb.Metrics["loadgen.write_p50_ms"] = pa.WriteP50MS
	for _, d := range perLayer() {
		rec.Metrics[d.name] = metricValue{Value: rb.Metrics[d.name], Unit: d.unit}
	}
	rec.Samples["ops"] = pa.Ops
	rec.Attempted = pa.Ops
	rec.Failed = pa.Failed + rb.Mismatches
	rec.Errors = append(pa.Errors, rb.Errors...)
	return nil
}

func appendRecord(path string, rec *runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
