package query

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/nvsim"
	"repro/internal/store"
	"repro/internal/sweep"
)

// Study configurations the tests seed stores with. alphaConfig declares
// only the mandatory axes; gridConfig declares word-bits and write-buffer
// axes so union-rendering across differently shaped studies is exercised.
const alphaConfig = `{
  "name": "alpha",
  "cells": [
    {"technology": "STT", "flavor": "Opt"},
    {"technology": "RRAM", "flavor": "Pess"}
  ],
  "capacities_bytes": [2097152, 4194304],
  "opt_targets": ["ReadEDP"],
  "traffic": {"fixed": [
    {"name": "read-heavy", "reads_per_sec": 1e7, "writes_per_sec": 1e5},
    {"name": "write-heavy", "reads_per_sec": 1e5, "writes_per_sec": 1e6}
  ]}
}`

const gridConfig = `{
  "name": "grid",
  "cells": [{"technology": "FeFET", "flavor": "Opt"}],
  "capacities_bytes": [2097152],
  "opt_targets": ["ReadEDP", "Area"],
  "word_bits_axis": [256, 512],
  "write_buffers": [null, {"mask_latency": true, "buffer_latency_ns": 1}],
  "traffic": {"fixed": [
    {"name": "mixed", "reads_per_sec": 1e6, "writes_per_sec": 1e5}
  ]}
}`

// seedStudy runs one configuration through the engine into the store and
// saves its manifest, returning the fingerprint and the run's results (the
// brute-force reference data).
func seedStudy(t *testing.T, st *store.Store, cfgJSON string) (string, *core.Results) {
	t.Helper()
	rec, res := runStudy(t, st, cfgJSON)
	if err := st.SaveStudy(rec); err != nil {
		t.Fatal(err)
	}
	return rec.Fingerprint, res
}

// runStudy runs one configuration through the engine into the store and
// returns the manifest seedStudy would save, with the run's results.
func runStudy(t *testing.T, st *store.Store, cfgJSON string) (store.StudyRecord, *core.Results) {
	t.Helper()
	cfg, err := sweep.Parse(strings.NewReader(cfgJSON))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = st
	cfg.Workers = 1
	s, err := cfg.Study()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := s.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	specs, err := s.Space()
	if err != nil {
		t.Fatal(err)
	}
	return store.StudyRecord{Fingerprint: fp, Name: s.Name, Config: []byte(cfgJSON), Points: len(specs)}, res
}

// alphaNamed is alphaConfig under another study name: a distinct study
// (the name is part of the fingerprint) whose points are alpha's.
func alphaNamed(name string) string {
	return strings.Replace(alphaConfig, `"name": "alpha"`, `"name": "`+name+`"`, 1)
}

// warmIndex seeds both test studies and builds an index, asserting that
// index construction and all subsequent queries do zero engine work.
func warmIndex(t *testing.T, dir string) (*Index, map[string]*core.Results) {
	t.Helper()
	nvsim.ResetMemo()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	refs := map[string]*core.Results{}
	fpA, resA := seedStudy(t, st, alphaConfig)
	fpG, resG := seedStudy(t, st, gridConfig)
	refs[fpA], refs[fpG] = resA, resG
	refs["alpha"], refs["grid"] = resA, resG

	nvsim.ResetMemo() // freeze the engine: any touch after this is a bug
	ix := New(st)
	ix.Refresh()
	t.Cleanup(func() {
		if h, m := nvsim.MemoStats(); h != 0 || m != 0 {
			t.Fatalf("query path touched the engine: memo hits=%d misses=%d", h, m)
		}
		nvsim.ResetMemo()
	})
	return ix, refs
}

func metricOf(t *testing.T, name string, m *eval.Metrics) float64 {
	t.Helper()
	v, ok := core.MetricValue(name, m)
	if !ok {
		t.Fatalf("unknown metric %q", name)
	}
	return v
}

func TestQueryAllRowsMatchesSources(t *testing.T) {
	ix, refs := warmIndex(t, t.TempDir())
	resp, err := ix.Query(Request{})
	if err != nil {
		t.Fatal(err)
	}
	want := len(refs["alpha"].Metrics) + len(refs["grid"].Metrics)
	if resp.Rows != want || len(resp.Results.Metrics) != want {
		t.Fatalf("all-rows query returned %d rows, want %d", resp.Rows, want)
	}
	if fps := strings.Split(resp.Studies, ","); len(fps) != 2 {
		t.Fatalf("sources = %q, want 2 fingerprints", resp.Studies)
	}
	// Study order is (name, fingerprint): alpha rows first, verbatim.
	for i, m := range refs["alpha"].Metrics {
		if resp.Results.Metrics[i].TotalPowerMW != m.TotalPowerMW {
			t.Fatalf("row %d differs from alpha source", i)
		}
	}
}

func TestQueryFiltersMatchBruteForce(t *testing.T) {
	ix, refs := warmIndex(t, t.TempDir())

	cases := []struct {
		name string
		req  Request
		keep func(*eval.Metrics) bool
	}{
		{"cell", Request{Cell: "STT-opt"},
			func(m *eval.Metrics) bool { return m.Array.Cell.Name == "STT-opt" }},
		{"technology", Request{Technology: "FeFET"},
			func(m *eval.Metrics) bool { return m.Array.Cell.Tech.String() == "FeFET" }},
		{"pattern", Request{Pattern: "write-heavy"},
			func(m *eval.Metrics) bool { return m.Pattern.Name == "write-heavy" }},
		{"target", Request{Target: "Area"},
			func(m *eval.Metrics) bool { return m.Array.Target.String() == "Area" }},
		{"capacity", Request{Capacity: 4194304},
			func(m *eval.Metrics) bool { return m.Array.CapacityBytes == 4194304 }},
		{"min power", Request{Min: map[string]float64{"total_power_mw": 5}},
			func(m *eval.Metrics) bool { return m.TotalPowerMW >= 5 }},
		{"max area", Request{Max: map[string]float64{"area_mm2": 2}},
			func(m *eval.Metrics) bool { return m.Array.AreaMM2 <= 2 }},
		{"range and axis", Request{Technology: "RRAM", Min: map[string]float64{"read_latency_ns": 0},
			Max: map[string]float64{"total_power_mw": 1e9}},
			func(m *eval.Metrics) bool { return m.Array.Cell.Tech.String() == "RRAM" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := ix.Query(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			var want []float64
			for _, src := range []string{"alpha", "grid"} {
				for i := range refs[src].Metrics {
					m := &refs[src].Metrics[i]
					if tc.keep(m) {
						want = append(want, m.TotalPowerMW)
					}
				}
			}
			if len(resp.Results.Metrics) != len(want) {
				t.Fatalf("filter kept %d rows, brute force keeps %d", len(resp.Results.Metrics), len(want))
			}
			for i := range want {
				if resp.Results.Metrics[i].TotalPowerMW != want[i] {
					t.Fatalf("row %d: power %v, want %v", i, resp.Results.Metrics[i].TotalPowerMW, want[i])
				}
			}
		})
	}
}

func TestQueryTopKMatchesBruteForce(t *testing.T) {
	ix, refs := warmIndex(t, t.TempDir())
	for _, metric := range []string{"total_power_mw", "read_latency_ns", "lifetime_years"} {
		for _, desc := range []bool{false, true} {
			resp, err := ix.Query(Request{Sort: metric, Desc: desc, Top: 3})
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Results.Metrics) != 3 {
				t.Fatalf("top-3 returned %d rows", len(resp.Results.Metrics))
			}
			// Brute force: stable sort all rows on the metric, NaN last.
			var all []eval.Metrics
			all = append(all, refs["alpha"].Metrics...)
			all = append(all, refs["grid"].Metrics...)
			sort.SliceStable(all, func(a, b int) bool {
				va, vb := metricOf(t, metric, &all[a]), metricOf(t, metric, &all[b])
				if math.IsNaN(vb) {
					return !math.IsNaN(va)
				}
				if math.IsNaN(va) {
					return false
				}
				if desc {
					return va > vb
				}
				return va < vb
			})
			for i := 0; i < 3; i++ {
				got := metricOf(t, metric, &resp.Results.Metrics[i])
				want := metricOf(t, metric, &all[i])
				if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("%s desc=%v rank %d: %v, want %v", metric, desc, i, got, want)
				}
			}
		}
	}
}

func TestQueryFrontierOfUnionMatchesBruteForce(t *testing.T) {
	ix, refs := warmIndex(t, t.TempDir())
	metrics := []string{"total_power_mw", "read_latency_ns"}
	resp, err := ix.Query(Request{Frontier: metrics})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Results.Frontier == nil {
		t.Fatal("frontier request produced no frontier")
	}

	// Brute force: the same union rows through core.ParetoFrontier directly.
	var union []eval.Metrics
	union = append(union, refs["alpha"].Metrics...)
	union = append(union, refs["grid"].Metrics...)
	ref := &core.Results{Study: core.NewStudy("ref"), Metrics: union}
	want, err := ref.ParetoFrontier(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results.Frontier) != len(want) {
		t.Fatalf("frontier size %d, want %d", len(resp.Results.Frontier), len(want))
	}
	for i := range want {
		if resp.Results.Frontier[i] != want[i] {
			t.Fatalf("frontier[%d] = %d, want %d", i, resp.Results.Frontier[i], want[i])
		}
	}
	// The synthetic study must declare the selection so writers render it.
	if got := resp.Results.Study.Pareto; len(got) != 2 {
		t.Fatalf("result study pareto = %v", got)
	}
}

func TestQueryStudySelectors(t *testing.T) {
	ix, refs := warmIndex(t, t.TempDir())

	// By name.
	resp, err := ix.Query(Request{Studies: []string{"grid"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results.Metrics) != len(refs["grid"].Metrics) {
		t.Fatalf("by-name rows = %d, want %d", len(resp.Results.Metrics), len(refs["grid"].Metrics))
	}
	// By fingerprint.
	resp2, err := ix.Query(Request{Studies: []string{resp.Studies}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp2.Results.Metrics) != len(resp.Results.Metrics) {
		t.Fatal("fingerprint selector disagrees with name selector")
	}
	// Unknown.
	if _, err := ix.Query(Request{Studies: []string{"nope"}}); !errors.Is(err, ErrUnknownStudy) {
		t.Fatalf("unknown study err = %v", err)
	}
}

func TestQueryValidation(t *testing.T) {
	ix, _ := warmIndex(t, t.TempDir())
	for _, req := range []Request{
		{Top: 3},                                     // top without sort
		{Top: -1, Sort: "total_power_mw"},            // negative top
		{Sort: "watts"},                              // unknown sort metric
		{Min: map[string]float64{"bogus": 1}},        // unknown range metric
		{Frontier: []string{"nope"}},                 // unknown frontier metric
		{Frontier: []string{"area_mm2", "area_mm2"}}, // duplicate frontier metric
	} {
		if _, err := ix.Query(req); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("request %+v err = %v, want ErrBadRequest", req, err)
		}
	}
}

func TestQueryUnionRendersWithSharedWriters(t *testing.T) {
	ix, _ := warmIndex(t, t.TempDir())
	resp, err := ix.Query(Request{Sort: "total_power_mw", Top: 5,
		Frontier: []string{"total_power_mw", "area_mm2"}})
	if err != nil {
		t.Fatal(err)
	}
	// The grid study declares word-bits and write-buffer axes, so the union
	// rows must render those columns in every format without error.
	for _, f := range sweep.Formats() {
		var buf bytes.Buffer
		if err := f.Write(&buf, resp.Results); err != nil {
			t.Fatalf("format %s: %v", f, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("format %s produced no body", f)
		}
	}
}

func TestLoadReplaysStoredStudyByteIdentical(t *testing.T) {
	dir := t.TempDir()
	nvsim.ResetMemo()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fp, ref := seedStudy(t, st, gridConfig)
	var want bytes.Buffer
	if err := sweep.WriteJSON(&want, ref); err != nil {
		t.Fatal(err)
	}

	// A fresh process: new store handle, cold engine, warm disk.
	nvsim.ResetMemo()
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ix := New(st2)
	res, found, err := ix.Load(fp)
	if err != nil || !found {
		t.Fatalf("Load(%s) = found=%v err=%v", fp, found, err)
	}
	var got bytes.Buffer
	if err := sweep.WriteJSON(&got, res); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("replayed study body differs from the original run")
	}
	if h, m := nvsim.MemoStats(); h != 0 || m != 0 {
		t.Fatalf("Load touched the engine: memo hits=%d misses=%d", h, m)
	}
	if _, found, _ := ix.Load("unknown"); found {
		t.Fatal("Load invented a study")
	}
	nvsim.ResetMemo()
}

func TestQueryEmptyStore(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ix := New(st)
	ix.Refresh()
	resp, err := ix.Query(Request{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rows != 0 || len(resp.Results.Metrics) != 0 {
		t.Fatalf("empty store returned %d rows", resp.Rows)
	}
	if got := ix.Studies(); len(got) != 0 {
		t.Fatalf("empty store lists %d studies", len(got))
	}
}

func TestQueryMemoryOnlyStore(t *testing.T) {
	nvsim.ResetMemo()
	st, err := store.Open("") // degraded/memory-only shape: no disk at all
	if err != nil {
		t.Fatal(err)
	}
	_, ref := seedStudy(t, st, alphaConfig)
	ix := New(st)
	ix.Refresh()
	resp, err := ix.Query(Request{Sort: "total_power_mw", Top: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results.Metrics) != 2 {
		t.Fatalf("memory-only query returned %d rows, want 2", len(resp.Results.Metrics))
	}
	if len(ref.Metrics) < 2 {
		t.Fatal("reference study too small")
	}
	nvsim.ResetMemo()
}

func TestQueryIncompleteStudy(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// A manifest whose points were never stored (interrupted run).
	cfg, err := sweep.Parse(strings.NewReader(alphaConfig))
	if err != nil {
		t.Fatal(err)
	}
	s, err := cfg.Study()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := s.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveStudy(store.StudyRecord{Fingerprint: fp, Name: "alpha",
		Config: []byte(alphaConfig), Points: 8}); err != nil {
		t.Fatal(err)
	}
	ix := New(st)
	ix.Refresh()

	// Excluded from the all-studies union...
	resp, err := ix.Query(Request{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rows != 0 {
		t.Fatalf("incomplete study leaked %d rows into the union", resp.Rows)
	}
	// ...but an explicit selection names the condition.
	if _, err := ix.Query(Request{Studies: []string{fp}}); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("explicit incomplete selection err = %v", err)
	}
	if _, found, err := ix.Load(fp); !found || !errors.Is(err, ErrIncomplete) {
		t.Fatalf("Load incomplete = found=%v err=%v", found, err)
	}
	sums := ix.Studies()
	if len(sums) != 1 || sums[0].Complete {
		t.Fatalf("summaries = %+v, want one incomplete", sums)
	}
	st2 := ix.Stats()
	if st2.Incomplete != 1 || st2.Studies != 0 {
		t.Fatalf("stats = %+v", st2)
	}
}

func TestGenerationStableUntilContentChanges(t *testing.T) {
	nvsim.ResetMemo()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	seedStudy(t, st, alphaConfig)
	ix := New(st)
	g1 := ix.Refresh()
	if g1 == 0 {
		t.Fatal("loading a study did not bump the generation")
	}
	// No change, no bump — cached responses stay valid.
	for i := 0; i < 3; i++ {
		if g := ix.Refresh(); g != g1 {
			t.Fatalf("no-op refresh moved generation %d -> %d", g1, g)
		}
	}
	// A new study moves it.
	seedStudy(t, st, gridConfig)
	if g := ix.Refresh(); g <= g1 {
		t.Fatalf("new study did not bump generation (%d -> %d)", g1, g)
	}
	nvsim.ResetMemo()
}

// syntheticIndex builds an index over hand-made rows, bypassing the store,
// so ranking meets keys real studies rarely produce: many duplicates and
// NaNs. Each row's Slowdown holds a unique row id; names repeat across
// studies so the (name, fingerprint) order needs its tiebreak.
func syntheticIndex(r *rand.Rand, studies int) *Index {
	ix := New(nil)
	keys := []float64{1, 2, 3, math.NaN()}
	techs := []cell.Technology{cell.STT, cell.RRAM}
	id := 0
	for s := 0; s < studies; s++ {
		var cp core.CachedPoint
		for n := r.IntN(12); n > 0; n-- {
			var m eval.Metrics
			m.TotalPowerMW = keys[r.IntN(len(keys))]
			m.Array.ReadLatencyNS = keys[r.IntN(len(keys))]
			m.Array.Cell.Tech = techs[r.IntN(len(techs))]
			m.Array.CapacityBytes = int64(1+r.IntN(2)) << 20
			m.Slowdown = float64(id)
			id++
			cp.Metrics = append(cp.Metrics, m)
		}
		name := fmt.Sprintf("s%d", r.IntN(3))
		fp := fmt.Sprintf("%016x", r.Uint64())
		rec := store.StudyRecord{Fingerprint: fp, Name: name}
		ix.entries[fp] = newEntry(rec, core.NewStudy(name), []core.CachedPoint{cp})
	}
	ix.reorder()
	return ix
}

// TestQueryTopKMatchesStableSort checks ranking against its definition —
// filter in base order, sort.SliceStable with NaN last, truncate — row for
// row, over random top-k sizes (beyond the row count too), sort senses,
// axis filters, metric bounds and study selections.
func TestQueryTopKMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	metrics := []string{"total_power_mw", "read_latency_ns"}
	for trial := 0; trial < 400; trial++ {
		ix := syntheticIndex(r, 1+r.IntN(5))
		req := Request{Sort: metrics[r.IntN(2)], Desc: r.IntN(2) == 1}
		sources := ix.order
		if r.IntN(3) == 0 {
			sources = nil
			for _, e := range ix.order {
				if r.IntN(2) == 0 {
					sources = append(sources, e)
					req.Studies = append(req.Studies, e.rec.Fingerprint)
				}
			}
			r.Shuffle(len(sources), func(i, j int) {
				sources[i], sources[j] = sources[j], sources[i]
				req.Studies[i], req.Studies[j] = req.Studies[j], req.Studies[i]
			})
			if len(sources) == 0 { // an empty selection selects every study
				sources = ix.order
			}
		}
		if r.IntN(3) == 0 {
			req.Technology = []string{"STT", "RRAM"}[r.IntN(2)]
		}
		if r.IntN(3) == 0 {
			req.Capacity = 1 << 20
		}
		if r.IntN(3) == 0 {
			req.Max = map[string]float64{metrics[r.IntN(2)]: 2}
		}
		if r.IntN(3) == 0 {
			req.Min = map[string]float64{metrics[r.IntN(2)]: 2}
		}

		// The definition, brute force.
		var want []*eval.Metrics
		for _, e := range sources {
			for _, m := range e.rows {
				if req.Technology != "" && m.Array.Cell.Tech.String() != req.Technology ||
					req.Capacity != 0 && m.Array.CapacityBytes != req.Capacity {
					continue
				}
				ok := true
				for name, lo := range req.Min {
					ok = ok && metricOf(t, name, m) >= lo
				}
				for name, hi := range req.Max {
					ok = ok && metricOf(t, name, m) <= hi
				}
				if ok {
					want = append(want, m)
				}
			}
		}
		sort.SliceStable(want, func(a, b int) bool {
			va, vb := metricOf(t, req.Sort, want[a]), metricOf(t, req.Sort, want[b])
			switch {
			case math.IsNaN(va):
				return false
			case math.IsNaN(vb):
				return true
			case req.Desc:
				return va > vb
			}
			return va < vb
		})
		req.Top = r.IntN(len(want) + 3) // 0 (no limit) through past the row count
		if req.Top > 0 && req.Top < len(want) {
			want = want[:req.Top]
		}

		resp, err := ix.Query(req)
		if err != nil {
			t.Fatal(err)
		}
		got := resp.Results.Metrics
		if len(got) != len(want) || resp.Rows != len(want) {
			t.Fatalf("trial %d %+v: %d rows, want %d", trial, req, len(got), len(want))
		}
		for i := range want {
			if got[i].Slowdown != want[i].Slowdown {
				t.Fatalf("trial %d %+v: rank %d is row %v, want row %v",
					trial, req, i, got[i].Slowdown, want[i].Slowdown)
			}
		}
	}
}

// TestQueryResultsDoNotAliasIndex scribbles over everything a Query or a
// Load hands out and checks that later answers and the store's own points
// are untouched: the index shares the store's points, so every result must
// be a copy.
func TestQueryResultsDoNotAliasIndex(t *testing.T) {
	dir := t.TempDir()
	nvsim.ResetMemo()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fp, _ := seedStudy(t, st, gridConfig)
	seedStudy(t, st, alphaConfig)
	cfg, err := sweep.Parse(strings.NewReader(gridConfig))
	if err != nil {
		t.Fatal(err)
	}
	s, err := cfg.Study()
	if err != nil {
		t.Fatal(err)
	}
	specs, err := s.Space()
	if err != nil {
		t.Fatal(err)
	}
	stored := func() []core.CachedPoint {
		var out []core.CachedPoint
		for _, spec := range specs {
			cp, ok := st.Get(s.PointKey(spec))
			if !ok {
				t.Fatal("stored point missing")
			}
			out = append(out, core.CachedPoint{
				Arrays:  append([]nvsim.Result(nil), cp.Arrays...),
				Metrics: append([]eval.Metrics(nil), cp.Metrics...),
				Skipped: append([]string(nil), cp.Skipped...),
			})
		}
		return out
	}
	ix := New(st)
	ix.Refresh()
	reqs := []Request{{}, {Sort: "total_power_mw", Top: 3}, {Sort: "area_mm2"},
		{Studies: []string{fp}, Frontier: []string{"total_power_mw", "read_latency_ns"}}}
	answer := func() []*core.Results {
		var out []*core.Results
		for _, req := range reqs {
			resp, err := ix.Query(req)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, resp.Results)
		}
		res, _, err := ix.Load(fp)
		if err != nil {
			t.Fatal(err)
		}
		return append(out, res)
	}
	wantPoints, want := stored(), answer()

	for _, res := range answer() {
		for i := range res.Metrics {
			res.Metrics[i].TotalPowerMW = -1
			res.Metrics[i].Array.AreaMM2 = -1
		}
		for i := range res.Arrays {
			res.Arrays[i].ReadLatencyNS = -1
		}
		for i := range res.Skipped {
			res.Skipped[i] = "scribbled"
		}
	}
	if got := answer(); !reflect.DeepEqual(got, want) {
		t.Fatal("modifying results changed later answers")
	}
	if !reflect.DeepEqual(stored(), wantPoints) {
		t.Fatal("modifying results changed the store's points")
	}
	nvsim.ResetMemo()
}
