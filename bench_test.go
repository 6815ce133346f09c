package nvmexplorer

// The benchmark harness: one bench per table and figure in the paper's
// evaluation (see DESIGN.md §3 for the experiment index). Each benchmark
// regenerates its experiment and prints the rows/series the paper reports
// once per run, so `go test -bench=. -benchmem` doubles as the full
// reproduction record (captured into bench_output.txt).
//
// A second group of micro-benchmarks times the substrates themselves
// (array characterization, graph kernels, the LLC simulator, fault
// injection, classifier training) so performance regressions in the
// engines are visible.

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/cell"
	"repro/internal/eval"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/nvsim"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/traffic"
)

var printOnce sync.Map

// benchExperiment runs one registered experiment per iteration and prints
// its tables the first time each experiment executes in this process.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := exp.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	// One engine, warmed before the timer, serves every iteration, as a
	// long-lived server's would.
	eng := nvsim.NewEngine()
	res, err := e.Run(eng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = e.Run(eng)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if _, done := printOnce.LoadOrStore(id, true); !done && res != nil {
		fmt.Printf("\n### %s — %s\n", id, e.Title)
		for _, t := range res.Tables {
			fmt.Println(t.String())
		}
	}
}

// --- one benchmark per paper table/figure ----------------------------------

func BenchmarkFig1PublicationSurvey(b *testing.B)  { benchExperiment(b, "fig1") }
func BenchmarkTableICellRanges(b *testing.B)       { benchExperiment(b, "table1") }
func BenchmarkFig3ArrayTentpoles(b *testing.B)     { benchExperiment(b, "fig3") }
func BenchmarkFig4TentpoleValidation(b *testing.B) { benchExperiment(b, "fig4") }
func BenchmarkFig5DNNArrays(b *testing.B)          { benchExperiment(b, "fig5") }
func BenchmarkFig6DNNPower(b *testing.B)           { benchExperiment(b, "fig6") }
func BenchmarkFig7IntermittentCrossover(b *testing.B) {
	benchExperiment(b, "fig7")
}
func BenchmarkTableIIPreferredTech(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkFig8GraphTraffic(b *testing.B)     { benchExperiment(b, "fig8") }
func BenchmarkFig9SpecLLC(b *testing.B)          { benchExperiment(b, "fig9") }
func BenchmarkFig10LLCArrays(b *testing.B)       { benchExperiment(b, "fig10") }
func BenchmarkFig11BackGatedFeFET(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12AreaEfficiency(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13MLCFaults(b *testing.B)       { benchExperiment(b, "fig13") }
func BenchmarkFig14WriteBuffering(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkTableIIIRelatedWork(b *testing.B)  { benchExperiment(b, "table3") }

// Extension study: SECDED ECC across MLC FeFET cell sizes.
func BenchmarkExtECCProtection(b *testing.B) { benchExperiment(b, "ecc") }

// --- substrate micro-benchmarks ---------------------------------------------

// BenchmarkCharacterize2MBSTT is the warm path: every iteration is a hit
// in an engine whose memo already holds the configuration.
func BenchmarkCharacterize2MBSTT(b *testing.B) {
	cfg := nvsim.Config{Cell: cell.MustTentpole(cell.STT, cell.Optimistic),
		CapacityBytes: 2 << 20, Target: nvsim.OptReadEDP}
	eng := nvsim.NewEngine()
	if _, err := eng.Characterize(cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Characterize(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCharacterizeTargetsCold measures one full engine pass answering
// every optimization target at once, on a fresh engine each iteration —
// the evaluate-once/select-per-target win in isolation. Compare
// against 8× BenchmarkCharacterize2MBSTTCold.
func BenchmarkCharacterizeTargetsCold(b *testing.B) {
	d := cell.MustTentpole(cell.STT, cell.Optimistic)
	targets := nvsim.OptTargets()
	for i := 0; i < b.N; i++ {
		rs, errs := nvsim.NewEngine().CharacterizeTargets(nvsim.Config{
			Cell: d, CapacityBytes: 2 << 20}, targets)
		for j := range errs {
			if errs[j] != nil {
				b.Fatal(errs[j])
			}
		}
		_ = rs
	}
}

// BenchmarkCharacterize2MBSTTCold is the single-target cold path: a fresh
// engine per iteration, so it measures a full enumerate+score+select pass.
func BenchmarkCharacterize2MBSTTCold(b *testing.B) {
	d := cell.MustTentpole(cell.STT, cell.Optimistic)
	for i := 0; i < b.N; i++ {
		if _, err := nvsim.NewEngine().Characterize(nvsim.Config{
			Cell: d, CapacityBytes: 2 << 20, Target: nvsim.OptReadEDP}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCharacterizeAll16MB(b *testing.B) {
	d := cell.MustTentpole(cell.FeFET, cell.Optimistic)
	for i := 0; i < b.N; i++ {
		if _, err := nvsim.CharacterizeAll(nvsim.Config{
			Cell: d, CapacityBytes: 16 << 20, Target: nvsim.OptReadLatency}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBFSSocialGraph(b *testing.B) {
	g, err := graph.RMAT(graph.DefaultRMAT(14, 16, 7))
	if err != nil {
		b.Fatal(err)
	}
	var s graph.Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.BFS(g, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPageRank(b *testing.B) {
	g, err := graph.RMAT(graph.DefaultRMAT(12, 16, 7))
	if err != nil {
		b.Fatal(err)
	}
	var s graph.Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.PageRank(g, 0.85, 1e-6, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLLCSimulator(b *testing.B) {
	p := cache.Profiles()[2] // mcf
	stream := p.Stream(100_000, 1)
	llc, err := cache.NewLLC(cache.StudyLLCBytes, cache.StudyWays, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		llc.Reset()
		llc.Run(stream)
	}
}

func BenchmarkFaultInjection(b *testing.B) {
	data := make([]byte, 1<<20)
	in := fault.NewInjector(1)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.Inject(data, 1e-4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClassifierTraining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, _, err := nn.ReferenceClassifier(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDNNTrafficModel(b *testing.B) {
	acc := traffic.NVDLA()
	net := nn.ALBERTBase()
	for i := 0; i < b.N; i++ {
		traffic.DNNTraffic(acc, &net, 60, 3, traffic.WeightsAndActs)
	}
}

func BenchmarkStudyPipeline(b *testing.B) {
	// Construction (cell lookups, pattern generation) is hoisted out of the
	// timed loop: the benchmark measures Run, not the builder.
	study := NewStudy("bench").
		AddTentpole(STT, Optimistic).
		AddTentpole(FeFET, Optimistic).
		AddCapacity(2 << 20).
		AddTarget(OptReadEDP).
		AddPattern(GenericSweep(1, 10, 0.001, 0.1, 3)...)
	study.Engine = NewEngine()
	if _, err := study.Run(); err != nil { // warm the engine
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := study.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// gridColdStudy is the planner's showcase shape: a write-buffer × fault
// grid whose 16 points share just 2 unique characterizations, so the plan
// pass characterizes twice and the evaluation pass fans the rest out as
// pure float math.
func gridColdStudy() *Study {
	s := NewStudy("grid-cold-bench").
		AddTentpole(STT, Optimistic).
		AddTentpole(FeFET, Optimistic).
		AddCapacity(2 << 20).
		AddTarget(OptReadEDP).
		AddPattern(GenericSweep(1, 10, 0.001, 0.1, 2)...)
	s.WriteBuffers = []*WriteBufferConfig{
		nil,
		{MaskLatency: true, BufferLatencyNS: 1},
		{TrafficReduction: 0.5},
		{MaskLatency: true, BufferLatencyNS: 1, TrafficReduction: 0.25},
	}
	s.Faults = []*FaultConfig{nil, {Mode: FaultRaw, Seed: 9, ProbeBytes: 256}}
	s.Workers = 1
	return s
}

// BenchmarkStudyGridCold measures a cold multi-axis grid per iteration:
// the engine is fresh, so the timing covers the plan pass (unique-
// config dedup + characterization) plus the batched evaluation/emission of
// every grid point.
func BenchmarkStudyGridCold(b *testing.B) {
	study := gridColdStudy()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		study.Engine = NewEngine()
		b.StartTimer()
		if _, err := study.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// adaptiveBenchStudy is the adaptive planner's benchmark grid: 2 cells ×
// 16 geometric capacities selecting on array read latency/energy, so
// refinement concentrates at small capacities and skips most of the axis.
func adaptiveBenchStudy(adaptive bool) *Study {
	s := NewStudy("adaptive-bench").
		AddTentpole(STT, Optimistic).
		AddTentpole(FeFET, Optimistic).
		AddTarget(OptReadEDP).
		AddPattern(TrafficPattern{Name: "p", ReadsPerSec: 1e6, WritesPerSec: 1e5})
	for i := 0; i < 16; i++ {
		s.AddCapacity(64 << 10 << i)
	}
	s.Pareto = []string{"read_latency_ns", "read_energy_pj"}
	if adaptive {
		s.Mode = ModeAdaptive
		s.Seed = 42
	}
	s.Workers = 1
	return s
}

// BenchmarkAdaptiveSweep measures one cold adaptive study per iteration:
// constraint pre-pass, Pareto-guided refinement rounds, and final assembly.
// Compare against BenchmarkExhaustivePrune (the same grid walked in full)
// for the planner's engine-work saving.
func BenchmarkAdaptiveSweep(b *testing.B) {
	study := adaptiveBenchStudy(true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		study.Engine = NewEngine()
		b.StartTimer()
		if _, err := study.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExhaustivePrune measures the same grid walked exhaustively with
// the cheap constraint pre-filter active: an area budget excludes the large
// half of the capacity axis before any engine work, so the timing covers
// the pre-filter plus characterization of only the feasible configs.
func BenchmarkExhaustivePrune(b *testing.B) {
	study := adaptiveBenchStudy(false)
	study.MaxAreaMM2 = 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		study.Engine = NewEngine()
		b.StartTimer()
		if _, err := study.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateBatch measures the zero-alloc analytical hot loop: one
// characterized array against a 9-pattern sweep per iteration.
func BenchmarkEvaluateBatch(b *testing.B) {
	arr, err := nvsim.Characterize(nvsim.Config{
		Cell: cell.MustTentpole(cell.STT, cell.Optimistic), CapacityBytes: 2 << 20,
		Target: nvsim.OptReadEDP})
	if err != nil {
		b.Fatal(err)
	}
	patterns := traffic.GenericSweep(0.1, 10, 0.001, 1, 3)
	opts := eval.Options{WriteBuffer: &eval.WriteBufferConfig{MaskLatency: true, BufferLatencyNS: 1}}
	dst := make([]eval.Metrics, 0, len(patterns))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = eval.EvaluateBatch(arr, patterns, opts, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNDJSONEmit measures the streaming row emitter: one Table II-
// shaped study rendered as NDJSON per iteration through the reused
// RowEncoder (the study service's per-row hot path).
func BenchmarkNDJSONEmit(b *testing.B) {
	res, err := tableIIStudy(nil).Run()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sweep.WriteNDJSON(io.Discard, res); err != nil {
			b.Fatal(err)
		}
	}
}

// tableIIStudy is the Table II-shaped sweep (the case-study cell set at the
// paper's 2MB working size under mixed traffic) used to measure the
// persistent store: cold vs warm latency for the same configuration.
func tableIIStudy(st *Store) *Study {
	s := NewStudy("warm-store-bench").AddCaseStudyCells().
		AddCapacity(2 << 20).
		AddTarget(OptReadEDP).
		AddPattern(GenericSweep(0.1, 10, 0.001, 1, 3)...)
	if st != nil {
		s.Cache = st
	}
	s.Workers = 1
	return s
}

// BenchmarkTableIISweepColdStore measures the no-reuse path: a fresh engine
// and store every iteration, so each run characterizes from scratch
// (the denominator of the EXPERIMENTS.md cold-vs-warm record).
func BenchmarkTableIISweepColdStore(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := OpenStore("") // memory-only: no disk writes in the timing
		if err != nil {
			b.Fatal(err)
		}
		s := tableIIStudy(st)
		s.Engine = NewEngine()
		b.StartTimer()
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIISweepDisk measures a cold Table II sweep writing through
// a fresh disk-backed store each iteration. With NVMX_BENCH_JOURNAL=1 the
// same run is wrapped in the write-ahead job journal (one job record up
// front, its removal at the end) — the shape every async job takes on a
// journaled server. Comparing the two
// settings with tools/benchcmp gates the journal's overhead on the hot
// path (the EXPERIMENTS.md budget is <5%).
func BenchmarkTableIISweepDisk(b *testing.B) {
	journal := os.Getenv("NVMX_BENCH_JOURNAL") == "1"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := OpenStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		s := tableIIStudy(st)
		s.Engine = NewEngine()
		b.StartTimer()
		var id string
		if journal {
			id = fmt.Sprintf("job-%d", i)
			if err := st.JournalJob(store.JobRecord{
				ID: id, Fingerprint: "bench", Name: s.Name, Format: "json",
				Config: []byte(`{"name":"bench"}`)}); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
		if journal {
			st.JournalDone(id)
		}
	}
}

// queryBenchConfig is the store-backed query benchmark's study: the case
// study cells at two capacities and two targets under a 16-point traffic
// sweep — 1024 result rows once evaluated, enough for stable sort/filter
// timings.
const queryBenchConfig = `{
  "name": "query-bench",
  "cells": [
    {"technology": "STT", "flavor": "Opt"},
    {"technology": "RRAM", "flavor": "Opt"},
    {"technology": "PCM", "flavor": "Opt"},
    {"technology": "FeFET", "flavor": "Opt"}
  ],
  "capacities_bytes": [2097152, 4194304],
  "opt_targets": ["ReadEDP", "Area"],
  "traffic": {"generic": {"read_gbs_lo": 0.1, "read_gbs_hi": 10,
    "write_gbs_lo": 0.001, "write_gbs_hi": 1, "points": 16}},
  "workers": 1
}`

// queryBenchIndex seeds a store with the benchmark study and builds a warm
// index over it (the one-time cost BenchmarkQueryColdIndex measures).
func queryBenchIndex(b *testing.B, dir string) (*query.Index, *store.Store) {
	b.Helper()
	st, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := sweep.Parse(strings.NewReader(queryBenchConfig))
	if err != nil {
		b.Fatal(err)
	}
	cfg.Cache = st
	s, err := cfg.Study()
	if err != nil {
		b.Fatal(err)
	}
	fp, err := s.Fingerprint()
	if err != nil {
		b.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		b.Fatal(err)
	}
	if err := st.SaveStudy(store.StudyRecord{Fingerprint: fp, Name: s.Name,
		Config: []byte(queryBenchConfig), Points: len(res.Arrays)}); err != nil {
		b.Fatal(err)
	}
	ix := query.New(st)
	ix.Refresh()
	return ix, st
}

// BenchmarkQueryWarm measures one filtered, sorted top-k query against a
// warm index — the steady-state cost of answering a design question from
// the store with zero engine work (asserted). This is the query layer's
// regression gate.
func BenchmarkQueryWarm(b *testing.B) {
	ix, st := queryBenchIndex(b, b.TempDir())
	req := query.Request{
		Technology: "RRAM",
		Max:        map[string]float64{"total_power_mw": 1e6},
		Sort:       "total_power_mw",
		Top:        10,
	}
	hits0, misses0 := st.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := ix.Query(req)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Rows != 10 {
			b.Fatalf("query returned %d rows, want 10", resp.Rows)
		}
	}
	b.StopTimer()
	if h, m := st.Stats(); h != hits0 || m != misses0 {
		b.Fatalf("warm query probed the store: %d hits, %d misses", h-hits0, m-misses0)
	}
}

// BenchmarkQueryFrontierWarm measures a frontier-of-union selection over
// every indexed row — the most expensive query shape (O(n²) dominance
// scan), still engine-free.
func BenchmarkQueryFrontierWarm(b *testing.B) {
	ix, _ := queryBenchIndex(b, b.TempDir())
	req := query.Request{Frontier: []string{"total_power_mw", "read_latency_ns"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Query(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryColdIndex measures index construction from a warm disk
// store across a simulated restart: manifest load, config re-expansion,
// point fetches, and the columnar shred — the one-time cost a process pays
// before queries go warm (the EXPERIMENTS.md cold-vs-warm query record).
func BenchmarkQueryColdIndex(b *testing.B) {
	dir := b.TempDir()
	queryBenchIndex(b, dir) // prime the store on disk
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		ix := query.New(st)
		ix.Refresh()
		if st := ix.Stats(); st.Studies != 1 {
			b.Fatalf("cold index loaded %d studies", st.Studies)
		}
	}
}

// refreshBenchConfig is a small study, named per copy: the copies are
// distinct studies (the name is part of the fingerprint) sharing two points.
const refreshBenchConfig = `{
  "name": %q,
  "cells": [{"technology": "STT", "flavor": "Opt"}, {"technology": "RRAM", "flavor": "Opt"}],
  "capacities_bytes": [2097152],
  "opt_targets": ["ReadEDP"],
  "traffic": {"fixed": [{"name": "mixed", "reads_per_sec": 1e6, "writes_per_sec": 1e5}]},
  "workers": 1
}`

// BenchmarkQueryRefreshUnchanged measures Index.Refresh over 128 stored
// studies when nothing is new — what every GET /v1/query pays before it
// scans. It should neither list the store nor allocate. One op is
// refreshesPerOp refreshes, so a short fixed -benchtime still times a
// window long enough to rise above timer noise (about 0.1 ms per op);
// at -benchtime=20x that window stays well under the index's 1 s relisting
// bound, so no op lists the store.
func BenchmarkQueryRefreshUnchanged(b *testing.B) {
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	for k := 0; k < 128; k++ {
		body := fmt.Sprintf(refreshBenchConfig, fmt.Sprintf("refresh-%03d", k))
		x, err := sweep.Expand([]byte(body), sweep.Overrides{}, st)
		if err != nil {
			b.Fatal(err)
		}
		res, err := x.Study.Run()
		if err != nil {
			b.Fatal(err)
		}
		rec, ok := x.Manifest(res)
		if !ok {
			b.Fatal("study failed points")
		}
		if err := st.SaveStudy(rec); err != nil {
			b.Fatal(err)
		}
	}
	ix := query.New(st)
	ix.Refresh()        // loads the studies
	gen := ix.Refresh() // and warms the unchanged path
	if n := ix.Stats().Studies; n != 128 {
		b.Fatalf("index loaded %d studies, want 128", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	const refreshesPerOp = 1000
	for i := 0; i < b.N; i++ {
		for j := 0; j < refreshesPerOp; j++ {
			if ix.Refresh() != gen {
				b.Fatal("unchanged refresh moved the generation")
			}
		}
	}
}

// BenchmarkTableIISweepWarmStore measures a repeated study against a warm
// disk-backed store across a simulated restart: each iteration reopens the
// store with a cold engine and an empty in-memory mirror, so the timing
// covers key hashing, disk reads, and gob decodes — and zero engine
// characterizations (asserted). The ratio to the cold benchmark above is
// the EXPERIMENTS.md cold-vs-warm speedup.
func BenchmarkTableIISweepWarmStore(b *testing.B) {
	b.ReportAllocs()
	dir := b.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tableIIStudy(st).Run(); err != nil {
		b.Fatal(err) // prime the store on disk
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		warm, err := OpenStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		s := tableIIStudy(warm)
		s.Engine = NewEngine()
		b.StartTimer()
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if es := s.Engine.Stats(); es.MemoHits != 0 || es.MemoMisses != 0 {
			b.Fatalf("warm iteration characterized: memo hits=%d misses=%d", es.MemoHits, es.MemoMisses)
		}
		b.StartTimer()
	}
}
