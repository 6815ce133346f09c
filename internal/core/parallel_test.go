package core

import (
	"reflect"
	"testing"

	"repro/internal/cell"
	"repro/internal/nvsim"
	"repro/internal/traffic"
)

// parallelStudy builds a study whose grid is large enough to exercise the
// worker pool, with a tight area budget so some (cell, capacity, target)
// points are skipped — Skipped ordering must survive parallel execution too.
func parallelStudy(workers int) *Study {
	s := NewStudy("parallel-equivalence")
	s.AddCaseStudyCells()
	s.AddCapacity(1<<20, 4<<20)
	s.AddTarget(nvsim.OptReadLatency, nvsim.OptReadEDP, nvsim.OptArea)
	s.AddPattern(traffic.GenericSweep(1, 10, 0.01, 0.1, 2)...)
	s.MaxAreaMM2 = 2.5
	s.Workers = workers
	return s
}

// TestParallelRunMatchesSequential runs the same study sequentially and
// with many workers, repeatedly, and requires identical Arrays, Metrics,
// and Skipped — order included.
func TestParallelRunMatchesSequential(t *testing.T) {
	seq, err := parallelStudy(1).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Skipped) == 0 {
		t.Fatal("test study skipped nothing; tighten MaxAreaMM2 so the Skipped path is covered")
	}
	for trial := 0; trial < 3; trial++ {
		par, err := parallelStudy(8).Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq.Arrays, par.Arrays) {
			t.Fatalf("trial %d: parallel Arrays diverge from sequential", trial)
		}
		if !reflect.DeepEqual(seq.Metrics, par.Metrics) {
			t.Fatalf("trial %d: parallel Metrics diverge from sequential", trial)
		}
		if !reflect.DeepEqual(seq.Skipped, par.Skipped) {
			t.Fatalf("trial %d: parallel Skipped diverge from sequential:\n%v\nvs\n%v",
				trial, seq.Skipped, par.Skipped)
		}
	}
}

// TestRunBatchesTargetsPerGridPoint confirms Run shares one engine
// evaluation across all targets of a grid point: a fresh-cache run of a
// study with T targets must record exactly one memo miss per (cell,
// capacity) pair, not T.
func TestRunBatchesTargetsPerGridPoint(t *testing.T) {
	s := NewStudy("memo-batch")
	s.Engine = nvsim.NewEngine()
	s.AddTentpole(cell.STT, cell.Optimistic)
	s.AddTentpole(cell.FeFET, cell.Optimistic)
	s.AddCapacity(1 << 20)
	s.AddTarget(nvsim.OptReadLatency, nvsim.OptReadEnergy, nvsim.OptReadEDP, nvsim.OptArea)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	st := s.Engine.Stats()
	if st.MemoMisses != 2 {
		t.Errorf("misses=%d, want 2 (one evaluation per grid point)", st.MemoMisses)
	}
	if st.MemoHits != 0 {
		t.Errorf("hits=%d, want 0 on a fresh cache", st.MemoHits)
	}
	// A repeated study is served entirely from the cache.
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if st = s.Engine.Stats(); st.MemoMisses != 2 || st.MemoHits != 2 {
		t.Errorf("after re-run: hits=%d misses=%d, want 2/2", st.MemoHits, st.MemoMisses)
	}
}
