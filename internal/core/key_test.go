package core

import (
	"testing"

	"repro/internal/cell"
	"repro/internal/eval"
	"repro/internal/nvsim"
	"repro/internal/traffic"
)

// TestPointKeyerMatchesPointKey pins the keyer, which serializes a study's
// targets, constraints and patterns once, to PointKey's bytes on every
// point of a multi-axis study, and holds its per-point key to a single
// allocation.
func TestPointKeyerMatchesPointKey(t *testing.T) {
	s := NewStudy("keyer").
		AddTentpole(cell.RRAM, cell.Optimistic).
		AddTentpole(cell.FeFET, cell.Optimistic).
		AddCapacity(1<<20, 2<<20).
		AddTarget(nvsim.OptReadEDP, nvsim.OptArea).
		AddPattern(traffic.GenericSweep(0.1, 10, 0.001, 1, 8)...)
	s.MaxAreaMM2 = 2.5
	s.BitsPerCell = []int{1, 2}
	s.WordBitsAxis = []int{256, 512}
	s.WriteBuffers = []*eval.WriteBufferConfig{nil, {MaskLatency: true, BufferLatencyNS: 1.5}}
	s.Faults = []*eval.FaultConfig{{Mode: eval.FaultNone}, {Mode: eval.FaultSECDED, Seed: 100}}
	specs, err := s.Space()
	if err != nil {
		t.Fatal(err)
	}
	k := s.keyer()
	var b []byte
	for i := range specs {
		want := s.PointKey(specs[i])
		if got := k.key(&specs[i]); got != want {
			t.Fatalf("point %d: keyer key diverges from PointKey\n got %q\nwant %q", i, got, want)
		}
		b = k.append(b[:0], &specs[i])
		if string(b) != want {
			t.Fatalf("point %d: keyer append diverges from PointKey\n got %q\nwant %q", i, b, want)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { _ = k.key(&specs[len(specs)-1]) }); allocs != 1 {
		t.Errorf("a keyer key allocates %.0f times, want 1", allocs)
	}
}
