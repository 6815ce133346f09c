// Package units provides engineering-unit constants, conversions, and
// human-readable formatting shared by every layer of NVMExplorer-Go.
//
// Internally the framework uses a consistent unit system:
//
//   - time:     nanoseconds (ns)
//   - energy:   picojoules (pJ)
//   - power:    milliwatts (mW)
//   - area:     square millimeters (mm²) at array level, F² at cell level
//   - capacity: bytes (and bits where noted)
//
// Helpers here convert between these and SI-prefixed display strings.
package units

import (
	"fmt"
	"math"
)

// Capacity constants, in bytes.
const (
	KiB = 1 << 10
	MiB = 1 << 20
	GiB = 1 << 30
)

// Time constants, in nanoseconds.
const (
	Nanosecond  = 1.0
	Microsecond = 1e3
	Millisecond = 1e6
	Second      = 1e9
)

// SecondsPerDay is the number of seconds in one day, used by the
// intermittent-operation energy model.
const SecondsPerDay = 86400.0

// SecondsPerYear is the number of seconds in a (365-day) year, used by the
// memory-lifetime model.
const SecondsPerYear = 365 * SecondsPerDay

// siPrefix holds one engineering prefix step.
type siPrefix struct {
	exp    float64
	symbol string
}

var prefixes = []siPrefix{
	{1e18, "E"}, {1e15, "P"}, {1e12, "T"}, {1e9, "G"}, {1e6, "M"},
	{1e3, "k"}, {1, ""}, {1e-3, "m"}, {1e-6, "µ"}, {1e-9, "n"},
	{1e-12, "p"}, {1e-15, "f"}, {1e-18, "a"},
}

// SI formats v with an engineering SI prefix and the given base unit, e.g.
// SI(2.5e-9, "J") == "2.50nJ". Zero, NaN, and Inf are rendered literally.
func SI(v float64, unit string) string {
	if v == 0 {
		return "0" + unit
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Sprintf("%v%s", v, unit)
	}
	av := math.Abs(v)
	for _, p := range prefixes {
		if av >= p.exp {
			return fmt.Sprintf("%.3g%s%s", v/p.exp, p.symbol, unit)
		}
	}
	return fmt.Sprintf("%.3g%s", v, unit)
}

// Bytes formats a byte count using binary prefixes: 2097152 -> "2MiB".
func Bytes(n int64) string {
	switch {
	case n >= GiB && n%GiB == 0:
		return fmt.Sprintf("%dGiB", n/GiB)
	case n >= MiB && n%MiB == 0:
		return fmt.Sprintf("%dMiB", n/MiB)
	case n >= KiB && n%KiB == 0:
		return fmt.Sprintf("%dKiB", n/KiB)
	case n >= GiB:
		return fmt.Sprintf("%.2fGiB", float64(n)/GiB)
	case n >= MiB:
		return fmt.Sprintf("%.2fMiB", float64(n)/MiB)
	case n >= KiB:
		return fmt.Sprintf("%.2fKiB", float64(n)/KiB)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// NSToString renders a latency held in nanoseconds: 12500 -> "12.5µs".
func NSToString(ns float64) string { return SI(ns*1e-9, "s") }

// PJToString renders an energy held in picojoules.
func PJToString(pj float64) string { return SI(pj*1e-12, "J") }

// MWToString renders a power held in milliwatts.
func MWToString(mw float64) string { return SI(mw*1e-3, "W") }

// MbPerMM2 computes storage density in megabits per mm² from a capacity in
// bytes and a total area in mm². Returns 0 when the area is non-positive.
func MbPerMM2(capacityBytes int64, areaMM2 float64) float64 {
	if areaMM2 <= 0 {
		return 0
	}
	return float64(capacityBytes) * 8 / 1e6 / areaMM2
}
