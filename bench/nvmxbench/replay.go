package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/fabric"
	"repro/internal/nvsim"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/sweep"
)

// The traced replay. It sends a workload's requests through the layers'
// public entry points in the order the server calls them, with a span
// around each call, and writes the bodies the server would have written.
// The traced run checks those bodies against the ones the same requests got
// over HTTP, so the replay cannot drift from the server unnoticed.

// span is one timed call into a layer.
type span struct {
	Name string `json:"name"`
	Req  int    `json:"req"`
	// Parent indexes the enclosing span; -1 marks a request's root.
	Parent int   `json:"parent"`
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
	// Alloc is the bytes allocated between the span's start and end, in
	// every goroutine.
	Alloc uint64 `json:"alloc_bytes"`
}

// tracer records spans in memory. Allocation counters are read outside the
// timed interval, so their cost lands in the parent span's self time, never
// in a layer's.
type tracer struct {
	t0    time.Time
	spans []span
	ms    runtime.MemStats
}

func (t *tracer) begin(name string, req, parent int) int {
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent})
	runtime.ReadMemStats(&t.ms)
	sp := &t.spans[len(t.spans)-1]
	sp.Alloc = t.ms.TotalAlloc
	sp.Start = time.Since(t.t0).Nanoseconds()
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	end := time.Since(t.t0).Nanoseconds()
	runtime.ReadMemStats(&t.ms)
	sp := &t.spans[i]
	sp.End = end
	sp.Alloc = t.ms.TotalAlloc - sp.Alloc
}

// replayer holds the layers a replay calls and the work counts it sees.
type replayer struct {
	t    tracer
	st   *store.Store
	ix   *query.Index
	pool *fabric.Pool
	gen  int64

	probes, hits, prefiltered, rows int
	emitted                         int64
	refreshes, changed, queryRows   int
	queries                         int
}

// study replays one study POST into w: sweep.Parse → Config.Study →
// Study.Space/Fingerprint → (fabric) Pool.Prefill → PointKey + Store.Get →
// PrefilterTargets/CharacterizeTargets per needed config → EvaluateBatch →
// Store.Put → Store.SaveStudy → Format.Write, mirroring core's two-phase
// plan and the server's handler.
func (rp *replayer) study(req int, r request, w io.Writer) error {
	root := rp.t.begin("request", req, -1)
	defer rp.t.end(root)

	sp := rp.t.begin("sweep.parse", req, root)
	cfg, err := sweep.Parse(bytes.NewReader(r.body))
	var eff []byte
	var study *core.Study
	if err == nil {
		eff, _ = json.Marshal(cfg)
		cfg.Cache = rp.st
		study, err = cfg.Study()
	}
	rp.t.end(sp)
	if err != nil {
		return err
	}

	sp = rp.t.begin("core.space", req, root)
	specs, err := study.Space()
	var fp string
	if err == nil {
		fp, err = study.Fingerprint()
	}
	rp.t.end(sp)
	if err != nil {
		return err
	}

	if rp.pool != nil {
		sp = rp.t.begin("fabric.prefill", req, root)
		rp.pool.Prefill(context.Background(), study, eff, rp.st, "")
		rp.t.end(sp)
	}

	sp = rp.t.begin("store.probe", req, root)
	keys := make([]string, len(specs))
	cached := make([]core.CachedPoint, len(specs))
	hit := make([]bool, len(specs))
	for i := range specs {
		keys[i] = study.PointKey(specs[i])
		cached[i], hit[i] = rp.st.Get(keys[i])
	}
	rp.t.end(sp)
	rp.probes += len(specs)

	// The plan: one characterization per unique (cell, capacity, word bits)
	// that some missing point needs, in first-use order.
	type charKey struct {
		cell     cell.Definition
		capacity int64
		wordBits int
	}
	type planned struct {
		arrays  []nvsim.Result
		errs    []error
		skipped []string
	}
	plan := map[charKey]*planned{}
	var order []charKey
	for i := range specs {
		if hit[i] {
			rp.hits++
			continue
		}
		k := charKey{specs[i].Cell, specs[i].CapacityBytes, specs[i].WordBits}
		if plan[k] == nil {
			plan[k] = &planned{}
			order = append(order, k)
		}
	}
	for _, k := range order {
		pc := plan[k]
		cfg := nvsim.Config{
			Cell: k.cell, CapacityBytes: k.capacity, WordBits: k.wordBits,
			MaxAreaMM2: study.MaxAreaMM2, MaxReadLatencyNS: study.MaxReadLatencyNS,
		}
		sp = rp.t.begin("nvsim.characterize", req, root)
		var pruned bool
		if pc.arrays, pc.errs, pruned = nvsim.PrefilterTargets(cfg, study.Targets); !pruned {
			pc.arrays, pc.errs = nvsim.CharacterizeTargets(cfg, study.Targets)
		}
		rp.t.end(sp)
		if pruned {
			rp.prefiltered++
		}
		for t, target := range study.Targets {
			if pc.errs[t] != nil {
				pc.skipped = append(pc.skipped, fmt.Sprintf("%s@%d/%s: %v",
					k.cell.Name, k.capacity, target, pc.errs[t]))
			}
		}
	}

	res := &core.Results{Study: study}
	for i := range specs {
		if hit[i] {
			res.Arrays = append(res.Arrays, cached[i].Arrays...)
			res.Metrics = append(res.Metrics, cached[i].Metrics...)
			res.Skipped = append(res.Skipped, cached[i].Skipped...)
			continue
		}
		pc := plan[charKey{specs[i].Cell, specs[i].CapacityBytes, specs[i].WordBits}]
		opts := study.Options
		opts.WriteBuffer, opts.Fault = specs[i].WriteBuffer, specs[i].Fault
		aStart, mStart := len(res.Arrays), len(res.Metrics)
		for t := range study.Targets {
			if pc.errs[t] != nil {
				continue
			}
			res.Arrays = append(res.Arrays, pc.arrays[t])
			sp = rp.t.begin("eval.evaluate", req, root)
			res.Metrics, err = eval.EvaluateBatch(pc.arrays[t], study.Patterns, opts, res.Metrics)
			rp.t.end(sp)
			if err != nil {
				return err
			}
		}
		rp.rows += len(res.Metrics) - mStart
		res.Skipped = append(res.Skipped, pc.skipped...)
		pt := core.CachedPoint{
			Arrays:  slices.Clone(res.Arrays[aStart:]),
			Metrics: slices.Clone(res.Metrics[mStart:]),
			Skipped: pc.skipped,
		}
		sp = rp.t.begin("store.put", req, root)
		rp.st.Put(keys[i], pt)
		rp.t.end(sp)
	}
	if len(res.Arrays) == 0 {
		return fmt.Errorf("study %q characterized no arrays", study.Name)
	}

	sp = rp.t.begin("store.manifest", req, root)
	err = rp.st.SaveStudy(store.StudyRecord{Fingerprint: fp, Name: study.Name, Config: eff, Points: len(specs)})
	rp.t.end(sp)
	if err != nil {
		return err
	}
	return rp.emit(req, root, r.format, res, w)
}

// query replays one query GET into w: Index.Refresh → Index.Query →
// Format.Write.
func (rp *replayer) query(req int, r request, w io.Writer) error {
	root := rp.t.begin("request", req, -1)
	defer rp.t.end(root)

	sp := rp.t.begin("query.refresh", req, root)
	gen := rp.ix.Refresh()
	rp.t.end(sp)
	rp.refreshes++
	if gen != rp.gen {
		rp.changed++
		rp.gen = gen
	}

	sp = rp.t.begin("query.query", req, root)
	resp, err := rp.ix.Query(r.query)
	rp.t.end(sp)
	if err != nil {
		return err
	}
	rp.queries++
	rp.queryRows += resp.Rows
	return rp.emit(req, root, r.format, resp.Results, w)
}

func (rp *replayer) emit(req, root int, f sweep.Format, res *core.Results, w io.Writer) error {
	cw := &countWriter{w: w}
	sp := rp.t.begin("sweep.emit", req, root)
	err := f.Write(cw, res)
	rp.t.end(sp)
	rp.emitted += cw.n
	return err
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// layerStats aggregates the replay's spans per layer.
type layerStats struct {
	SelfNS int64  `json:"self_ns"`
	Calls  int    `json:"calls"`
	Alloc  uint64 `json:"alloc_bytes"`
}

// aggregate sums each layer's self time (duration minus the time its child
// spans cover), call count and allocation. Request roots are left out: their
// self time is replay glue plus tracing overhead.
func aggregate(spans []span) map[string]layerStats {
	child := make([]int64, len(spans))
	for _, sp := range spans {
		if sp.Parent >= 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	out := map[string]layerStats{}
	for i, sp := range spans {
		if sp.Parent < 0 {
			continue
		}
		ls := out[sp.Name]
		ls.SelfNS += sp.End - sp.Start - child[i]
		ls.Calls++
		ls.Alloc += sp.Alloc
		out[sp.Name] = ls
	}
	return out
}
