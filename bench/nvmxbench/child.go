package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/internal/fabric"
	"repro/internal/nvsim"
	"repro/internal/query"
	"repro/internal/store"
)

// Every measured step runs in a child process of its own, one after
// another, so the process-global memo, exploration counters and store
// mirrors of one step never carry over into the next. The parent passes a
// childSpec in the environment and reads the child's JSON answer from its
// standard output.

const childEnv = "NVMXBENCH_CHILD"

// childSpec tells a child process what to do.
type childSpec struct {
	Role     string  `json:"role"` // prime, setup, measure, prefix or replay
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Quick    bool    `json:"quick"`
	Dir      string  `json:"dir"`             // the store directory
	Ops      string  `json:"ops,omitempty"`   // the traced run's operation log
	Trace    string  `json:"trace,omitempty"` // where the replay writes its spans
}

// Quick mode sizes: operations per closed-loop workload, and query-mix's
// window.
const (
	quickOps    = 50
	quickWindow = 2 * time.Second
)

// maxErrors caps how many failure messages a child reports.
const maxErrors = 5

// Every child runs the Go scheduler on one processor. The machines this
// benchmark runs on give a two-vCPU guest anywhere between one and two
// cores' worth of time, varying minute to minute, while one core's speed
// holds steady; measuring on one core keeps two runs comparable. The cost is
// that a gain from parallelism does not show here.
const procs = 1

// memoryLimit is the soft heap limit of every child. The cold workloads fill
// the engine memo to its cap (~1.2 GB) and, left at the default GC pacing,
// would grow to about 4 GB of resident memory; the limit keeps them near
// 2 GB at the price of more frequent collection, which the latencies include.
const memoryLimit = 2 << 30

// childMain runs one child role and prints its answer as JSON.
func childMain(raw string) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "nvmxbench child: bad spec:", err)
		return 2
	}
	w, err := findWorkload(spec.Workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvmxbench child:", err)
		return 2
	}
	runtime.GOMAXPROCS(procs)
	debug.SetMemoryLimit(memoryLimit)
	var out any
	switch spec.Role {
	case "prime":
		out, err = prime(w, spec)
	case "setup":
		out, err = setupOnly(w, spec)
	case "measure":
		out, err = measure(w, spec)
	case "prefix":
		out, err = prefix(w, spec)
	case "replay":
		out, err = replay(w, spec)
	default:
		err = fmt.Errorf("unknown role %q", spec.Role)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "nvmxbench %s %s: %v\n", spec.Role, spec.Workload, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "nvmxbench child:", err)
		return 1
	}
	return 0
}

// prime sends the workload's priming requests to a fresh service on an
// empty store and saves the memo snapshot, as a server does when it drains.
func prime(w workload, spec childSpec) (struct{}, error) {
	svc, err := startService(spec.Dir, false)
	if err != nil {
		return struct{}{}, err
	}
	defer svc.close()
	var buf bytes.Buffer
	for i, r := range w.prime(spec.Seed) {
		if sm := svc.send(r, i, time.Now(), &buf); sm.err != nil {
			return struct{}{}, fmt.Errorf("priming request %d: %w", i, sm.err)
		}
	}
	if err := svc.st.SaveMemo(); err != nil {
		return struct{}{}, err
	}
	// Flush the primed store to disk now, so its writeback does not land in
	// the measured window.
	syscall.Sync()
	return struct{}{}, nil
}

// setupOut reports one set-up.
type setupOut struct {
	SetupS float64 `json:"setup_s"`
}

// setupOnly starts the service and stops it again.
func setupOnly(w workload, spec childSpec) (setupOut, error) {
	svc, err := startService(spec.Dir, w.fabric)
	if err != nil {
		return setupOut{}, err
	}
	svc.close()
	return setupOut{SetupS: svc.setup.Seconds()}, nil
}

// measureOut reports one measured window.
type measureOut struct {
	SetupS float64 `json:"setup_s"`
	// LatencyMS holds the latency of every primary request that succeeded.
	LatencyMS  []float64 `json:"latency_ms"`
	ElapsedS   float64   `json:"elapsed_s"`
	RetainedMB float64   `json:"retained_mb"`
	Writes     int       `json:"writes"`
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"`
	Errors     []string  `json:"errors,omitempty"`
}

// window returns when a run stops sending and how many primary requests it
// may send (0 for no limit).
func window(w workload, spec childSpec, start time.Time) (time.Time, int) {
	switch {
	case !spec.Quick:
		return start.Add(time.Duration(spec.Seconds * float64(time.Second))), 0
	case w.write != nil:
		return start.Add(quickWindow), 0
	}
	return start.Add(time.Hour), quickOps
}

// measure runs the workload's load against a fresh service for the window,
// reads the retained heap, then checks the outputs.
func measure(w workload, spec childSpec) (measureOut, error) {
	svc, err := startService(spec.Dir, w.fabric)
	if err != nil {
		return measureOut{}, err
	}
	defer svc.close()
	next := func(i int) request { return w.next(spec.Seed, i) }

	var warm []sample
	if w.warmup > 0 && !spec.Quick {
		warm = svc.closedLoop(next, 0, time.Now().Add(w.warmup), 0)
	}
	start := time.Now()
	deadline, limit := window(w, spec, start)
	var writes []sample
	var wg sync.WaitGroup
	if w.write != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			writes = svc.openLoop(func(k int) request { return w.write(spec.Seed, k) }, start, deadline)
		}()
	}
	done := svc.closedLoop(next, len(warm), deadline, limit)
	elapsed := time.Since(start)
	wg.Wait()

	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them, so pooled buffers do not count.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out := measureOut{
		SetupS:     svc.setup.Seconds(),
		ElapsedS:   elapsed.Seconds(),
		RetainedMB: float64(ms.HeapInuse) / (1 << 20),
		Writes:     len(writes),
	}
	var errs []error
	for _, sm := range done {
		if sm.err != nil {
			errs = append(errs, sm.err)
			continue
		}
		out.LatencyMS = append(out.LatencyMS, sm.ms)
	}
	for _, sm := range slices.Concat(warm, writes) {
		if sm.err != nil {
			errs = append(errs, sm.err)
		}
	}
	out.Attempted = len(warm) + len(done) + len(writes)
	switch {
	case w.write != nil:
		errs = append(errs, checkQueries(svc, spec.Seed, spec.Dir)...)
		out.Attempted += numShapes
	case w.prime == nil:
		errs = append(errs, checkSamples(spec.Seed, next, done)...)
		out.Attempted += min(sampleChecks, len(out.LatencyMS))
	}
	out.Failed = len(errs)
	out.Errors = messages(errs)
	return out, nil
}

func messages(errs []error) []string {
	var out []string
	for _, err := range errs[:min(len(errs), maxErrors)] {
		out = append(out, err.Error())
	}
	return out
}

// loggedOp is one operation of a traced run's HTTP prefix, as the replay
// repeats it.
type loggedOp struct {
	Write bool   `json:"write,omitempty"` // the open-loop writer's k-th request
	I     int    `json:"i"`
	Sum   string `json:"sha256"`
}

func (op loggedOp) request(w workload, seed int64) request {
	if op.Write {
		return w.write(seed, op.I)
	}
	return w.next(seed, op.I)
}

// tracedOps caps a traced run's prefix on the closed-loop workloads; every
// prefix also stops after half of the run's seconds, leaving the other half
// to the replay. Query-mix runs its whole half, so that its open-loop writes
// interleave with the reads as they do untraced.
const tracedOps = 1000

// prefixOut reports the untraced HTTP half of a traced run.
type prefixOut struct {
	HTTPMSPerReq float64  `json:"http_ms_per_req"`
	LagMaxMS     float64  `json:"lag_max_ms"`
	WriteP50MS   float64  `json:"write_p50_ms"`
	Ops          int      `json:"ops"`
	Failed       int      `json:"failed"`
	Errors       []string `json:"errors,omitempty"`
}

// prefix sends the start of the workload over HTTP from one client and logs
// each operation with the hash of its body. Query-mix writes go out when due,
// between reads.
func prefix(w workload, spec childSpec) (prefixOut, error) {
	svc, err := startService(spec.Dir, w.fabric)
	if err != nil {
		return prefixOut{}, err
	}
	defer svc.close()
	start := time.Now()
	deadline := start.Add(time.Duration(spec.Seconds / 2 * float64(time.Second)))
	limit := tracedOps
	switch {
	case spec.Quick:
		deadline, limit = start.Add(quickWindow), quickOps
	case w.write != nil:
		limit = math.MaxInt
	}
	var (
		ops            []loggedOp
		svcMS, writeMS []float64
		lagMax         float64
		errs           []error
		buf            bytes.Buffer
		reads, written int
	)
	for len(ops) < limit && time.Now().Before(deadline) {
		op := loggedOp{I: reads}
		due := time.Now()
		if w.write != nil {
			if wdue := start.Add(time.Duration(written) * writePeriod); !wdue.After(due) {
				op, due = loggedOp{Write: true, I: written}, wdue
			}
		}
		if op.Write {
			written++
		} else {
			reads++
		}
		sm := svc.send(op.request(w, spec.Seed), op.I, due, &buf)
		if sm.err != nil {
			errs = append(errs, sm.err)
		}
		op.Sum = hex.EncodeToString(sm.sum[:])
		ops = append(ops, op)
		svcMS = append(svcMS, sm.ms-sm.lagMS)
		if w.write == nil || op.Write {
			writeMS = append(writeMS, sm.ms)
			lagMax = max(lagMax, sm.lagMS)
		}
	}
	if err := writeJSON(spec.Ops, ops); err != nil {
		return prefixOut{}, err
	}
	var total float64
	for _, v := range svcMS {
		total += v
	}
	return prefixOut{
		HTTPMSPerReq: total / float64(len(ops)),
		LagMaxMS:     lagMax,
		WriteP50MS:   median(writeMS),
		Ops:          len(ops),
		Failed:       len(errs),
		Errors:       messages(errs),
	}, nil
}

// replayOut reports the traced replay.
type replayOut struct {
	Metrics        map[string]float64 `json:"metrics"`
	ReplayMSPerReq float64            `json:"replay_ms_per_req"`
	Mismatches     int                `json:"mismatches"`
	Errors         []string           `json:"errors,omitempty"`
}

// replay repeats the prefix's operations through the layers on a fresh
// store, checks each body against the HTTP one, and reports per-layer
// numbers from the spans.
func replay(w workload, spec childSpec) (replayOut, error) {
	var ops []loggedOp
	data, err := os.ReadFile(spec.Ops)
	if err == nil {
		err = json.Unmarshal(data, &ops)
	}
	if err != nil {
		return replayOut{}, fmt.Errorf("reading the operation log: %w", err)
	}
	if len(ops) == 0 {
		return replayOut{}, fmt.Errorf("empty operation log")
	}
	st, err := store.Open(spec.Dir)
	if err != nil {
		return replayOut{}, err
	}
	rp := &replayer{st: st}
	if w.fabric {
		ws, urls := startWorkers(2)
		defer stopWorkers(ws)
		rp.pool = fabric.NewPoolOptions(urls, fabric.Options{})
		rp.pool.Start(st)
		defer rp.pool.Stop()
	}
	rp.ix = query.New(st)
	rp.gen = rp.ix.Refresh()

	memoHits0, memoMisses0 := nvsim.MemoStats()
	rp.t.t0 = time.Now()
	var errs []error
	var buf bytes.Buffer
	for n, op := range ops {
		r := op.request(w, spec.Seed)
		buf.Reset()
		if r.kind == "study" {
			err = rp.study(n, r, &buf)
		} else {
			err = rp.query(n, r, &buf)
		}
		if sum := sha256.Sum256(buf.Bytes()); err == nil && hex.EncodeToString(sum[:]) != op.Sum {
			err = fmt.Errorf("operation %d (%s): replay body differs from the HTTP body", n, r.path)
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	memoHits, memoMisses := nvsim.MemoStats()
	memoHits, memoMisses = memoHits-memoHits0, memoMisses-memoMisses0

	if spec.Trace != "" {
		if err := writeJSON(spec.Trace, map[string]any{
			"workload": w.name, "seed": spec.Seed, "spans": rp.t.spans,
		}); err != nil {
			return replayOut{}, err
		}
	}

	n := float64(len(ops))
	agg := aggregate(rp.t.spans)
	m := map[string]float64{}
	var layerNS int64
	for _, l := range layers {
		ls := agg[l]
		m[l+".ms_per_req"] = float64(ls.SelfNS) / 1e6 / n
		m[l+".calls_per_req"] = float64(ls.Calls) / n
		m[l+".alloc_kb_per_req"] = float64(ls.Alloc) / 1024 / n
		layerNS += ls.SelfNS
	}
	m["store.probe.hit_ratio"] = ratio(rp.hits, rp.probes)
	m["nvsim.characterize.memo_hit_ratio"] = ratio(memoHits, memoHits+memoMisses)
	m["nvsim.characterize.prefiltered_per_req"] = float64(rp.prefiltered) / n
	m["eval.evaluate.rows_per_req"] = float64(rp.rows) / n
	m["sweep.emit.bytes_per_req"] = float64(rp.emitted) / n
	h := st.Health()
	m["store.put.io_errors"] = float64(h.IOErrors)
	m["store.put.retries"] = float64(h.Retries)
	m["query.refresh.changed_ratio"] = ratio(rp.changed, rp.refreshes)
	m["query.query.rows_per_req"] = ratio(rp.queryRows, rp.queries)
	if rp.pool != nil {
		f := rp.pool.Snapshot()
		m["fabric.prefill.shards_per_req"] = float64(f.Shards) / n
		m["fabric.prefill.remote_hit_ratio"] = ratio(f.RemoteHits, f.RemoteHits+f.RemoteMisses)
	}
	return replayOut{
		Metrics:        m,
		ReplayMSPerReq: float64(layerNS) / 1e6 / n,
		Mismatches:     len(errs),
		Errors:         messages(errs),
	}, nil
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio[T int | int64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
