// Package eval is NVMExplorer-Go's analytical evaluation engine
// (Section II-B): it combines characterized memory arrays (internal/nvsim)
// with application traffic (internal/traffic) to produce the application-
// and system-level metrics the paper's studies filter and rank —
// performance (a long-pole, bandwidth-driven model), operating power,
// energy per inference, memory lifetime, and intermittent-operation energy.
package eval

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/nvsim"
	"repro/internal/traffic"
	"repro/internal/units"
)

// WearLevelingEfficiency derates ideal wear leveling when projecting
// lifetime: writes do not spread perfectly evenly across the array.
const WearLevelingEfficiency = 0.9

// Metrics are the application-level results for one (array, traffic) pair —
// one point in the paper's scatter views.
type Metrics struct {
	Array   nvsim.Result
	Pattern traffic.Pattern

	// Power (mW).
	DynamicPowerMW float64
	LeakagePowerMW float64
	RefreshPowerMW float64 // retention-scrub rewrite stream (retention.go)
	TotalPowerMW   float64

	// Performance. MemoryTimePerSec is the aggregated access latency per
	// second of wall-clock execution (the paper's long-pole model): above
	// 1.0 the memory cannot keep up and the application slows down.
	MemoryTimePerSec float64
	Slowdown         float64 // max(1, MemoryTimePerSec)
	TaskLatencyS     float64 // aggregated memory latency per task (frame/inference)
	MeetsTaskRate    bool    // TaskLatencyS fits the task period, and bandwidth holds

	// Energy per task (mJ), when the pattern is task-shaped.
	EnergyPerTaskMJ float64

	// Reliability.
	LifetimeYears float64 // endurance-limited lifetime under this write rate

	// Provenance of the per-point evaluation knobs: the write-buffer
	// configuration actually applied (nil = none) and the storage-fault
	// summary (nil = evaluated fault-free). Both are stamped by Evaluate so
	// multi-axis studies can report which axis value produced each row.
	WriteBuffer *WriteBufferConfig
	Fault       *FaultSummary
}

// String renders one result row.
func (m *Metrics) String() string {
	return fmt.Sprintf("%s | %s: %s total (%s dyn), long-pole %.3f, lifetime %.3gy",
		m.Array.Cell.Name, m.Pattern.Name, units.MWToString(m.TotalPowerMW),
		units.MWToString(m.DynamicPowerMW), m.MemoryTimePerSec, m.LifetimeYears)
}

// Options tunes an evaluation. In a core.Study these act as the study-wide
// defaults; per-point axis values (write-buffer and fault axes) override
// them for individual grid points.
type Options struct {
	// WriteBuffer, when non-nil, interposes the Section V-D write cache:
	// masking write latency behind a fast buffer and/or coalescing write
	// traffic before it reaches the eNVM.
	WriteBuffer *WriteBufferConfig
	// Fault, when non-nil and not FaultNone, evaluates the point under the
	// storage-fault model (see fault.go): BER, optional SECDED protection,
	// and a seed-deterministic injection probe.
	Fault *FaultConfig
}

// WriteBufferConfig models the illustrative write cache of Section V-D: it
// holds write requests, writes back when full, and allows in-place updates
// for re-written addresses.
type WriteBufferConfig struct {
	// MaskLatency hides the eNVM write pulse from the application: the
	// effective write latency becomes the buffer's (SRAM-class) latency.
	MaskLatency bool
	// BufferLatencyNS is the buffer's write latency seen when masking.
	BufferLatencyNS float64
	// TrafficReduction is the fraction of writes absorbed by in-place
	// updates in the buffer (0 = pure store buffer, 0.5 = half the writes
	// never reach the eNVM).
	TrafficReduction float64
}

// Label renders the configuration as the compact tag multi-axis study rows
// use to identify which write-buffer axis value they were evaluated under.
// A nil receiver labels the no-buffer point.
func (w *WriteBufferConfig) Label() string {
	if w == nil {
		return "none"
	}
	var parts []string
	if w.MaskLatency {
		parts = append(parts, fmt.Sprintf("mask(%gns)", w.BufferLatencyNS))
	}
	if w.TrafficReduction > 0 {
		parts = append(parts, fmt.Sprintf("coalesce(%.2f)", w.TrafficReduction))
	}
	if len(parts) == 0 {
		return "passthrough"
	}
	return strings.Join(parts, "+")
}

// Validate checks the configuration.
func (w *WriteBufferConfig) Validate() error {
	if w.TrafficReduction < 0 || w.TrafficReduction >= 1 {
		return fmt.Errorf("eval: write-buffer traffic reduction %.2f outside [0,1)", w.TrafficReduction)
	}
	if w.MaskLatency && w.BufferLatencyNS <= 0 {
		return fmt.Errorf("eval: masking requires a positive buffer latency")
	}
	return nil
}

// Evaluate applies the analytical model to one array and one traffic
// pattern.
func Evaluate(array nvsim.Result, p traffic.Pattern, opts Options) (Metrics, error) {
	p = p.Derive()
	if err := p.Validate(); err != nil {
		return Metrics{}, err
	}
	readsPerSec, writesPerSec := p.ReadsPerSec, p.WritesPerSec
	writeLatNS := array.WriteLatencyNS
	writeEnergyPJ := array.WriteEnergyPJ
	effWriteLatNS := writeLatNS

	if wb := opts.WriteBuffer; wb != nil {
		if err := wb.Validate(); err != nil {
			return Metrics{}, err
		}
		writesPerSec *= 1 - wb.TrafficReduction
		if wb.MaskLatency {
			effWriteLatNS = wb.BufferLatencyNS
		}
	}
	// ECC storage overhead: SECDED moves 72 bits per 64 data bits, scaling
	// access energy and the cell-wearing write stream (fault.go).
	eccFactor := opts.Fault.eccFactor()

	m := Metrics{Array: array, Pattern: p, WriteBuffer: opts.WriteBuffer}

	// Power: dynamic access energy plus standing leakage plus any
	// retention-scrub stream. pJ/s -> mW: 1 pJ/s = 1e-12 W = 1e-9 mW.
	m.DynamicPowerMW = (readsPerSec*array.ReadEnergyPJ + writesPerSec*writeEnergyPJ) * eccFactor * 1e-9
	m.LeakagePowerMW = array.LeakagePowerMW
	m.RefreshPowerMW = RefreshPowerMW(array)
	m.TotalPowerMW = m.DynamicPowerMW + m.LeakagePowerMW + m.RefreshPowerMW

	// Performance: long-pole aggregated access latency per second of
	// execution (Section II-B). Accesses are aggregated serially — the
	// model's purpose is to flag memories that cause application slowdown,
	// not to predict pipelined throughput.
	m.MemoryTimePerSec = (readsPerSec*array.ReadLatencyNS + writesPerSec*effWriteLatNS) * 1e-9
	m.Slowdown = math.Max(1, m.MemoryTimePerSec)

	// Task-level view.
	if p.TasksPerSec > 0 || p.ReadsPerTask+p.WritesPerTask > 0 {
		writesPerTask := p.WritesPerTask
		if wb := opts.WriteBuffer; wb != nil {
			writesPerTask *= 1 - wb.TrafficReduction
		}
		m.TaskLatencyS = (p.ReadsPerTask*array.ReadLatencyNS + writesPerTask*effWriteLatNS) * 1e-9
		m.EnergyPerTaskMJ = (p.ReadsPerTask*array.ReadEnergyPJ + writesPerTask*writeEnergyPJ) * eccFactor * 1e-9
		if p.TasksPerSec > 0 {
			m.MeetsTaskRate = m.TaskLatencyS <= 1/p.TasksPerSec && m.MemoryTimePerSec <= 1
		} else {
			m.MeetsTaskRate = true
		}
	} else {
		m.MeetsTaskRate = m.MemoryTimePerSec <= 1
	}

	m.LifetimeYears = lifetimeYears(array, writesPerSec*eccFactor)
	if err := applyFault(&m, opts.Fault); err != nil {
		return Metrics{}, err
	}
	return m, nil
}

// MustEvaluate panics on error; for experiment tables and tests.
func MustEvaluate(array nvsim.Result, p traffic.Pattern, opts Options) Metrics {
	m, err := Evaluate(array, p, opts)
	if err != nil {
		panic(err)
	}
	return m
}

// lifetimeYears projects the endurance-limited memory lifetime under
// continuous operation at the given write rate (Section II-B: "memory
// lifetime is extrapolated by comparing the average reported endurance to
// the write access pattern"), including the retention-scrub write stream.
// Volatile arrays and scrub-free, write-free cases live forever.
func lifetimeYears(array nvsim.Result, writesPerSec float64) float64 {
	if math.IsInf(array.Cell.EnduranceCycles, 1) {
		return math.Inf(1)
	}
	totalBits := float64(array.CapacityBytes) * 8
	writtenBitsPerSec := (writesPerSec + ScrubWritesPerSec(array)) * float64(array.WordBits)
	if writtenBitsPerSec <= 0 {
		return math.Inf(1)
	}
	cellWritesPerSec := writtenBitsPerSec / totalBits // average per-cell write rate
	seconds := array.Cell.EnduranceCycles / cellWritesPerSec * WearLevelingEfficiency
	return seconds / units.SecondsPerYear
}

// EvaluateBatch runs the analytical model over one array and many traffic
// patterns, appending one Metrics per pattern to dst (which may be nil or a
// preallocated buffer) and returning the extended slice. It produces
// bit-identical Metrics to calling Evaluate per pattern, but hoists every
// pattern-invariant term out of the inner loop: write-buffer validation and
// derations, the ECC energy/traffic factor, the retention scrub and refresh
// terms, the lifetime denominators, and — because the fault view depends
// only on the cell — a single seeded injection probe shared by every
// pattern's FaultSummary. With a warm dst capacity and no fault mode the
// per-pattern cost is pure float math with zero allocations.
//
// On error the slice extended so far is returned with the error: the number
// of Metrics appended for this call identifies the failing pattern.
func EvaluateBatch(array nvsim.Result, patterns []traffic.Pattern, opts Options, dst []Metrics) ([]Metrics, error) {
	writeLatNS := array.WriteLatencyNS
	writeEnergyPJ := array.WriteEnergyPJ
	effWriteLatNS := writeLatNS
	writeFactor := 1.0
	if wb := opts.WriteBuffer; wb != nil {
		if err := wb.Validate(); err != nil {
			return dst, err
		}
		writeFactor = 1 - wb.TrafficReduction
		if wb.MaskLatency {
			effWriteLatNS = wb.BufferLatencyNS
		}
	}
	// ECC storage overhead: SECDED moves 72 bits per 64 data bits, scaling
	// access energy and the cell-wearing write stream (fault.go).
	eccFactor := opts.Fault.eccFactor()

	// Array-invariant power and lifetime terms.
	leakMW := array.LeakagePowerMW
	refreshMW := RefreshPowerMW(array)
	scrubWPS := ScrubWritesPerSec(array)
	infEndurance := math.IsInf(array.Cell.EnduranceCycles, 1)
	totalBits := float64(array.CapacityBytes) * 8
	wordBits := float64(array.WordBits)

	// One fault summary serves the whole batch: the probe is seeded from the
	// point's config and reads only the cell, so every pattern of this array
	// evaluates to the identical summary Evaluate would attach.
	var faultSum *FaultSummary
	if f := opts.Fault; f != nil && f.Mode != FaultNone {
		if err := f.Validate(); err != nil {
			return dst, err
		}
		var err error
		if faultSum, err = f.summary(array.Cell); err != nil {
			return dst, err
		}
	}

	for i := range patterns {
		p := patterns[i].Derive()
		if err := p.Validate(); err != nil {
			return dst, err
		}
		readsPerSec := p.ReadsPerSec
		writesPerSec := p.WritesPerSec * writeFactor

		m := Metrics{Array: array, Pattern: p, WriteBuffer: opts.WriteBuffer}
		m.DynamicPowerMW = (readsPerSec*array.ReadEnergyPJ + writesPerSec*writeEnergyPJ) * eccFactor * 1e-9
		m.LeakagePowerMW = leakMW
		m.RefreshPowerMW = refreshMW
		m.TotalPowerMW = m.DynamicPowerMW + m.LeakagePowerMW + m.RefreshPowerMW

		m.MemoryTimePerSec = (readsPerSec*array.ReadLatencyNS + writesPerSec*effWriteLatNS) * 1e-9
		m.Slowdown = math.Max(1, m.MemoryTimePerSec)

		if p.TasksPerSec > 0 || p.ReadsPerTask+p.WritesPerTask > 0 {
			writesPerTask := p.WritesPerTask * writeFactor
			m.TaskLatencyS = (p.ReadsPerTask*array.ReadLatencyNS + writesPerTask*effWriteLatNS) * 1e-9
			m.EnergyPerTaskMJ = (p.ReadsPerTask*array.ReadEnergyPJ + writesPerTask*writeEnergyPJ) * eccFactor * 1e-9
			if p.TasksPerSec > 0 {
				m.MeetsTaskRate = m.TaskLatencyS <= 1/p.TasksPerSec && m.MemoryTimePerSec <= 1
			} else {
				m.MeetsTaskRate = true
			}
		} else {
			m.MeetsTaskRate = m.MemoryTimePerSec <= 1
		}

		// lifetimeYears with its array-invariant pieces hoisted.
		m.LifetimeYears = math.Inf(1)
		if !infEndurance {
			writtenBitsPerSec := (writesPerSec*eccFactor + scrubWPS) * wordBits
			if writtenBitsPerSec > 0 {
				cellWritesPerSec := writtenBitsPerSec / totalBits
				seconds := array.Cell.EnduranceCycles / cellWritesPerSec * WearLevelingEfficiency
				m.LifetimeYears = seconds / units.SecondsPerYear
			}
		}
		m.Fault = faultSum
		dst = append(dst, m)
	}
	return dst, nil
}
