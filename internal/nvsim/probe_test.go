package nvsim

import (
	"testing"

	"repro/internal/cell"
)

// TestProbe prints characterized arrays for manual calibration inspection.
// Run with: go test ./internal/nvsim/ -run TestProbe -v
func TestProbe(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("calibration probe")
	}
	for _, cap := range []int64{2 << 20, 16 << 20} {
		for _, d := range cell.CaseStudyCells() {
			r, err := Characterize(Config{Cell: d, CapacityBytes: cap, Target: OptReadEDP})
			if err != nil {
				t.Errorf("%s: %v", d.Name, err)
				continue
			}
			t.Logf("%s dens=%.1fMb/mm² rdE/b=%.3fpJ", r.String(), r.DensityMbPerMM2(), r.ReadEnergyPerBitPJ())
		}
		t.Log("----")
	}
}
