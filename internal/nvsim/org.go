package nvsim

import (
	"fmt"
	"iter"
	"math/bits"
)

// Organization describes one internal array floorplan candidate: how the
// capacity is split across banks, subarrays per bank, and the subarray
// geometry. NVSim explores the same axes when optimizing a memory layout.
type Organization struct {
	Banks     int // independent banks, each with its own decode/sense path
	Subarrays int // subarrays (mats) per bank
	Rows      int // wordlines per subarray
	Cols      int // bitlines per subarray (physical cells per row)
	MuxDegree int // column multiplexing: bitlines sharing one sense amp
}

// String renders the floorplan compactly, e.g. "4b x 8s x 1024r x 2048c /4".
func (o Organization) String() string {
	return fmt.Sprintf("%db x %ds x %dr x %dc /%d",
		o.Banks, o.Subarrays, o.Rows, o.Cols, o.MuxDegree)
}

// CellsTotal returns the number of physical cells the floorplan provides.
func (o Organization) CellsTotal() int64 {
	return int64(o.Banks) * int64(o.Subarrays) * int64(o.Rows) * int64(o.Cols)
}

// BitsPerSubAccess is the number of bits one subarray delivers per access
// for a cell storing bitsPerCell bits.
func (o Organization) BitsPerSubAccess(bitsPerCell int) int {
	return o.Cols / o.MuxDegree * bitsPerCell
}

// ActiveSubarrays is how many subarrays must fire in parallel to deliver
// wordBits bits per access. Returns 0 when the organization cannot supply
// the word at all.
func (o Organization) ActiveSubarrays(wordBits, bitsPerCell int) int {
	per := o.BitsPerSubAccess(bitsPerCell)
	if per <= 0 {
		return 0
	}
	n := (wordBits + per - 1) / per
	if n > o.Subarrays {
		return 0
	}
	return n
}

// Enumeration bounds. Power-of-two sweeps over each axis, mirroring NVSim's
// internal design-space walk.
const (
	minRows, maxRows = 64, 8192
	minCols, maxCols = 64, 8192
	maxBanks         = 64
	maxSubarrays     = 64
	maxMuxDegree     = 16
)

// nextPow2 rounds n up to the next power of two.
func nextPow2(n int64) int64 {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len64(uint64(n-1))
}

// organizations walks every organization able to hold capacityBits bits of
// data (rounded up to the next power of two) with cells storing bitsPerCell
// bits, and able to deliver wordBits per access. The order is
// deterministic; selection ties resolve to the earliest organization in it.
func organizations(capacityBits int64, bitsPerCell, wordBits int) iter.Seq[Organization] {
	return func(yield func(Organization) bool) {
		if capacityBits <= 0 || bitsPerCell <= 0 || wordBits <= 0 {
			return
		}
		cells := nextPow2((capacityBits + int64(bitsPerCell) - 1) / int64(bitsPerCell))
		for banks := 1; banks <= maxBanks; banks *= 2 {
			for subs := 1; subs <= maxSubarrays; subs *= 2 {
				for rows := minRows; rows <= maxRows; rows *= 2 {
					denom := int64(banks) * int64(subs) * int64(rows)
					cols := cells / denom
					if cols*denom != cells || cols < minCols || cols > maxCols {
						continue
					}
					for mux := 1; mux <= maxMuxDegree; mux *= 2 {
						o := Organization{Banks: banks, Subarrays: subs,
							Rows: rows, Cols: int(cols), MuxDegree: mux}
						if o.ActiveSubarrays(wordBits, bitsPerCell) != 0 && !yield(o) {
							return
						}
					}
				}
			}
		}
	}
}
