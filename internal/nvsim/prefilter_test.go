package nvsim

import (
	"testing"

	"repro/internal/cell"
)

// TestPrefilterMatchesEngineErrors is the byte-identity contract behind the
// planner's engine-skip: whenever the pre-filter prunes a configuration, its
// per-target errors must be exactly what CharacterizeTargets would have
// reported. The SRAM reference cell at 4 MB occupies well over 1 mm² of
// bare cell matrix, so a sub-mm² budget is provably unsatisfiable; a
// 1-byte array has no organization at all, which the engine reports with
// its other message.
func TestPrefilterMatchesEngineErrors(t *testing.T) {
	t.Parallel()
	d := cell.MustTentpole(cell.SRAM, cell.Reference)
	targets := []OptTarget{OptReadEDP, OptArea, OptTarget(99)}
	e := NewEngine()
	for _, cfg := range []Config{
		{Cell: d, CapacityBytes: 4 << 20, MaxAreaMM2: 0.9},
		{Cell: d, CapacityBytes: 1, MaxAreaMM2: 1e-12},
	} {
		pr, perrs, pruned := e.PrefilterTargets(cfg, targets)
		if !pruned {
			t.Fatalf("pre-filter did not prune %s at %dB under %gmm² (bound %.3g)",
				d.Name, cfg.CapacityBytes, cfg.MaxAreaMM2, cellMatrixAreaMM2(&cfg))
		}
		er, eerrs := CharacterizeTargets(cfg, targets)
		if len(pr) != len(er) || len(perrs) != len(eerrs) {
			t.Fatalf("shape mismatch: prefilter %d/%d, engine %d/%d",
				len(pr), len(perrs), len(er), len(eerrs))
		}
		for i := range eerrs {
			if eerrs[i] == nil || perrs[i] == nil {
				t.Fatalf("slot %d: expected errors on both paths, got prefilter=%v engine=%v",
					i, perrs[i], eerrs[i])
			}
			if perrs[i].Error() != eerrs[i].Error() {
				t.Errorf("slot %d error drifted:\nprefilter: %s\nengine:    %s",
					i, perrs[i], eerrs[i])
			}
		}
	}
	if st := e.Stats(); st.Prefiltered != 2 || st.MemoMisses != 0 {
		t.Errorf("engine stats %+v, want 2 prefiltered configs and no engine pass", st)
	}
}

// TestPrefilterInconclusive covers the cases the pre-filter must leave to
// the engine: no area budget, a satisfiable budget, and configurations that
// fail normalization.
func TestPrefilterInconclusive(t *testing.T) {
	t.Parallel()
	d := cell.MustTentpole(cell.STT, cell.Optimistic)
	e := NewEngine()
	if _, _, pruned := e.PrefilterTargets(Config{Cell: d, CapacityBytes: 1 << 20}, []OptTarget{OptReadEDP}); pruned {
		t.Error("pruned with no area budget")
	}
	if _, _, pruned := e.PrefilterTargets(Config{Cell: d, CapacityBytes: 1 << 20, MaxAreaMM2: 100}, []OptTarget{OptReadEDP}); pruned {
		t.Error("pruned under a generous area budget")
	}
	bad := d
	bad.AreaF2 = -1
	if _, _, pruned := e.PrefilterTargets(Config{Cell: bad, CapacityBytes: 1 << 20, MaxAreaMM2: 0.001}, []OptTarget{OptReadEDP}); pruned {
		t.Error("pruned a configuration that fails normalization")
	}
	if n := e.Stats().Prefiltered; n != 0 {
		t.Errorf("inconclusive checks counted %d prefiltered configs", n)
	}

	// The bound must never prune a configuration the engine can satisfy:
	// characterize unconstrained, then re-run with the achieved area as the
	// budget — feasible by construction, so the pre-filter must pass on it.
	r, err := Characterize(Config{Cell: d, CapacityBytes: 1 << 20, Target: OptArea})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, pruned := PrefilterTargets(Config{Cell: d, CapacityBytes: 1 << 20, MaxAreaMM2: r.AreaMM2}, []OptTarget{OptArea}); pruned {
		t.Errorf("pruned a satisfiable budget %.4fmm²", r.AreaMM2)
	}
}
