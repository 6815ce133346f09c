package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cell"
	"repro/internal/traffic"
)

// TestRunStreamMatchesRun runs the same study through Run and through
// RunStream (both worker counts) and requires identical Results plus
// in-order, gap-free point emission covering the whole grid.
func TestRunStreamMatchesRun(t *testing.T) {
	want, err := parallelStudy(1).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		s := parallelStudy(workers)
		var indices []int
		var streamed int
		got, err := s.RunStream(context.Background(), func(pt PointResult) error {
			indices = append(indices, pt.Spec.Index)
			streamed += len(pt.Metrics)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(want.Arrays, got.Arrays) ||
			!reflect.DeepEqual(want.Metrics, got.Metrics) ||
			!reflect.DeepEqual(want.Skipped, got.Skipped) {
			t.Fatalf("workers=%d: RunStream results diverge from Run", workers)
		}
		grid := len(s.Cells) * len(s.Capacities)
		if len(indices) != grid {
			t.Fatalf("workers=%d: emitted %d points, want %d", workers, len(indices), grid)
		}
		for i, idx := range indices {
			if idx != i {
				t.Fatalf("workers=%d: emission out of order at %d: got index %d", workers, i, idx)
			}
		}
		if streamed != len(want.Metrics) {
			t.Fatalf("workers=%d: streamed %d metrics, want %d", workers, streamed, len(want.Metrics))
		}
	}
}

// TestRunStreamEmitError checks that an error returned by the callback
// aborts the run and propagates unchanged.
func TestRunStreamEmitError(t *testing.T) {
	sentinel := errors.New("stop here")
	for _, workers := range []int{1, 8} {
		calls := 0
		_, err := parallelStudy(workers).RunStream(context.Background(), func(PointResult) error {
			calls++
			if calls == 2 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err=%v, want sentinel", workers, err)
		}
		if calls != 2 {
			t.Fatalf("workers=%d: emit called %d times after error, want 2", workers, calls)
		}
	}
}

// TestRunStreamCancellation checks that a canceled context stops the run
// with a context error at any worker count.
func TestRunStreamCancellation(t *testing.T) {
	for _, workers := range []int{1, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // already canceled before the first point
		_, err := parallelStudy(workers).RunStream(ctx, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err=%v, want context.Canceled", workers, err)
		}
	}
}

// TestRunStreamMidRunCancel cancels from inside the emit callback, which is
// how an HTTP handler reacts to a client disconnect mid-stream.
func TestRunStreamMidRunCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	emitted := 0
	_, err := parallelStudy(4).RunStream(ctx, func(PointResult) error {
		emitted++
		if emitted == 1 {
			cancel()
		}
		return ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
}

// TestRunStreamCancelMidMerge cancels the context while the merge frontier
// is only partially delivered: the emit callback keeps returning nil (so
// only the context, not an emit error, stops the run), workers must stop
// picking up new grid points, and RunStream must report context.Canceled
// with the stream cut off gap-free at a prefix of the grid.
func TestRunStreamCancelMidMerge(t *testing.T) {
	s := NewStudy("mid-merge") // no engine, so no memo: each point costs real engine work
	// Distinct custom-named cells defeat memoization across points so the
	// remaining grid cannot race to completion before cancellation lands:
	// at ~0.5ms per cold point, 128 points are far more work than any
	// scheduling delay between cancel() and the workers noticing it.
	for i := 0; i < 64; i++ {
		d := cell.MustTentpole(cell.RRAM, cell.Optimistic)
		d.Name = fmt.Sprintf("midmerge-%d", i)
		s.AddCell(d)
	}
	s.AddCapacity(1<<20, 2<<20)
	s.AddPattern(traffic.Pattern{Name: "p", ReadsPerSec: 1e6})
	s.Workers = 2
	grid := 128

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var indices []int
	res, err := s.RunStream(ctx, func(pt PointResult) error {
		indices = append(indices, pt.Spec.Index)
		if len(indices) == 1 {
			cancel() // cancel mid-merge, but keep accepting deliveries
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (delivered %d of %d)", err, len(indices), grid)
	}
	if res != nil {
		t.Error("canceled run should not return results")
	}
	if len(indices) < 1 || len(indices) >= grid {
		t.Fatalf("delivered %d of %d points; cancellation should stop mid-grid", len(indices), grid)
	}
	for i, idx := range indices {
		if idx != i {
			t.Fatalf("delivery out of order at %d: index %d", i, idx)
		}
	}

	// The sequential path has the same contract, with fully deterministic
	// scheduling: the context is checked before every point.
	s.Workers = 1
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	delivered := 0
	res, err = s.RunStream(ctx2, func(PointResult) error {
		delivered++
		if delivered == 2 {
			cancel2()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("sequential: err = %v res = %v, want context.Canceled and nil", err, res)
	}
	if delivered != 2 {
		t.Fatalf("sequential: delivered %d points, want exactly 2", delivered)
	}
}

// TestRunStreamValidation mirrors Run's configuration errors.
func TestRunStreamValidation(t *testing.T) {
	s := NewStudy("empty")
	if _, err := s.RunStream(context.Background(), nil); err == nil {
		t.Error("no cells should error")
	}
	s.AddCaseStudyCells()
	if _, err := s.RunStream(context.Background(), nil); err == nil {
		t.Error("no capacities should error")
	}
}
