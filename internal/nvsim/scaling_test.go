package nvsim

import (
	"testing"

	"repro/internal/cell"
)

// Cross-cutting physical-scaling invariants of the array model: these pin
// the directions a circuit designer would expect, independent of the
// specific calibration constants.

func TestNodeScalingOfArrays(t *testing.T) {
	t.Parallel()
	// The same cell at a relaxed node must be physically larger and burn
	// more access energy (higher Vdd, longer wires).
	d22 := cell.MustTentpole(cell.STT, cell.Optimistic) // 22nm
	d45 := cell.Normalize(d22, 45)
	r22 := MustCharacterize(Config{Cell: d22, CapacityBytes: 4 << 20, Target: OptReadEDP})
	r45 := MustCharacterize(Config{Cell: d45, CapacityBytes: 4 << 20, Target: OptReadEDP})
	if r45.AreaMM2 <= r22.AreaMM2 {
		t.Errorf("45nm array (%.3fmm²) should exceed 22nm (%.3fmm²)", r45.AreaMM2, r22.AreaMM2)
	}
	if r45.ReadEnergyPJ <= r22.ReadEnergyPJ {
		t.Error("45nm reads should cost more energy than 22nm")
	}
	if r45.ReadLatencyNS <= r22.ReadLatencyNS {
		t.Error("45nm reads should be slower than 22nm")
	}
}

func TestWordWidthScaling(t *testing.T) {
	t.Parallel()
	// Wider accesses cost proportionally more energy but similar latency.
	d := cell.MustTentpole(cell.RRAM, cell.Optimistic)
	narrow := MustCharacterize(Config{Cell: d, CapacityBytes: 4 << 20,
		WordBits: 128, Target: OptReadEDP})
	wide := MustCharacterize(Config{Cell: d, CapacityBytes: 4 << 20,
		WordBits: 1024, Target: OptReadEDP})
	if wide.ReadEnergyPJ <= narrow.ReadEnergyPJ {
		t.Error("8x wider access should cost more energy")
	}
	ratio := wide.ReadEnergyPJ / narrow.ReadEnergyPJ
	if ratio < 2 || ratio > 16 {
		t.Errorf("energy ratio for 8x width = %.1f, want within [2,16]", ratio)
	}
	if wide.ReadLatencyNS > 2*narrow.ReadLatencyNS {
		t.Error("width should not dominate latency (parallel subarrays)")
	}
}

func TestCellAreaScaling(t *testing.T) {
	t.Parallel()
	// Shrinking only the cell footprint shrinks the array and, through the
	// wire model, speeds it up at iso-capacity.
	big := cell.MustTentpole(cell.FeFET, cell.Optimistic)
	big.AreaF2 = 64
	big.Name = "FeFET 64F²"
	small := cell.MustTentpole(cell.FeFET, cell.Optimistic) // 4F²
	rb := MustCharacterize(Config{Cell: big, CapacityBytes: 16 << 20, Target: OptReadLatency})
	rs := MustCharacterize(Config{Cell: small, CapacityBytes: 16 << 20, Target: OptReadLatency})
	if rs.AreaMM2 >= rb.AreaMM2 {
		t.Error("16x smaller cell should produce a smaller array")
	}
	if rs.ReadLatencyNS >= rb.ReadLatencyNS {
		t.Errorf("denser array should be faster: %.2f vs %.2f ns",
			rs.ReadLatencyNS, rb.ReadLatencyNS)
	}
	if rs.LeakagePowerMW >= rb.LeakagePowerMW {
		t.Error("denser array should leak less (less periphery area)")
	}
}

func TestSRAMLeakageDominatedByCells(t *testing.T) {
	t.Parallel()
	// SRAM's leakage must be dominated by the cell term: it should scale
	// nearly linearly with capacity.
	d := cell.MustTentpole(cell.SRAM, cell.Reference)
	r1 := MustCharacterize(Config{Cell: d, CapacityBytes: 2 << 20, Target: OptReadEDP})
	r2 := MustCharacterize(Config{Cell: d, CapacityBytes: 8 << 20, Target: OptReadEDP})
	ratio := r2.LeakagePowerMW / r1.LeakagePowerMW
	if ratio < 3.3 || ratio > 4.7 {
		t.Errorf("4x capacity changed SRAM leakage by %.2fx, want ~4x", ratio)
	}
}

func TestReadEnergyIncludesCellTerm(t *testing.T) {
	t.Parallel()
	// Doubling the cell's intrinsic read energy must raise the array read
	// energy by exactly wordBits x delta (the model is compositional).
	base := cell.MustTentpole(cell.STT, cell.Optimistic)
	bumped := base
	bumped.ReadEnergyPJ *= 2
	rb := MustCharacterize(Config{Cell: base, CapacityBytes: 2 << 20, Target: OptArea})
	rm := MustCharacterize(Config{Cell: bumped, CapacityBytes: 2 << 20, Target: OptArea})
	wantDelta := float64(rb.WordBits) * base.ReadEnergyPJ
	gotDelta := rm.ReadEnergyPJ - rb.ReadEnergyPJ
	if gotDelta < wantDelta*0.99 || gotDelta > wantDelta*1.01 {
		t.Errorf("cell-energy delta = %.2fpJ, want %.2fpJ", gotDelta, wantDelta)
	}
}
