package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/eval"
)

// Pareto-frontier selection over a completed study — the dashboard's
// "identify the design points of interest" operation (the paper's Fig 8/9
// narrative filters thousands of sweep points down to the handful that are
// not dominated on the metrics the designer cares about). A frontier is
// selected over any subset of the named result metrics; each metric has a
// fixed optimization sense (power and latency minimize, lifetime and
// density maximize), and a point survives iff no other point is at least as
// good on every selected metric and strictly better on one.

// paretoMetric is one selectable frontier dimension.
type paretoMetric struct {
	get func(*eval.Metrics) float64
	// maximize inverts the sense (lifetime, density); the default minimizes.
	maximize bool
}

// paretoMetrics maps the JSON/CLI metric names — the same names the
// DesignPoint row fields use — to their accessors.
var paretoMetrics = map[string]paretoMetric{
	"total_power_mw":     {get: func(m *eval.Metrics) float64 { return m.TotalPowerMW }},
	"dynamic_power_mw":   {get: func(m *eval.Metrics) float64 { return m.DynamicPowerMW }},
	"leakage_power_mw":   {get: func(m *eval.Metrics) float64 { return m.LeakagePowerMW }},
	"mem_time_per_sec":   {get: func(m *eval.Metrics) float64 { return m.MemoryTimePerSec }},
	"task_latency_s":     {get: func(m *eval.Metrics) float64 { return m.TaskLatencyS }},
	"energy_per_task_mj": {get: func(m *eval.Metrics) float64 { return m.EnergyPerTaskMJ }},
	"read_latency_ns":    {get: func(m *eval.Metrics) float64 { return m.Array.ReadLatencyNS }},
	"write_latency_ns":   {get: func(m *eval.Metrics) float64 { return m.Array.WriteLatencyNS }},
	"read_energy_pj":     {get: func(m *eval.Metrics) float64 { return m.Array.ReadEnergyPJ }},
	"write_energy_pj":    {get: func(m *eval.Metrics) float64 { return m.Array.WriteEnergyPJ }},
	"area_mm2":           {get: func(m *eval.Metrics) float64 { return m.Array.AreaMM2 }},
	"lifetime_years":     {get: func(m *eval.Metrics) float64 { return m.LifetimeYears }, maximize: true},
	"density_mb_per_mm2": {get: func(m *eval.Metrics) float64 { return m.Array.DensityMbPerMM2() }, maximize: true},
}

// ParetoMetricNames lists the selectable frontier metrics, sorted.
func ParetoMetricNames() []string {
	names := make([]string, 0, len(paretoMetrics))
	for n := range paretoMetrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// MetricNames lists the named result metrics, sorted. These are the same
// names usable for Pareto selection, and the query layer's sort/filter
// vocabulary.
func MetricNames() []string { return ParetoMetricNames() }

// MetricValue reads one named metric off a result row. The bool reports
// whether the name is known. Query-layer sorting and range filtering go
// through this accessor so metric names mean exactly what frontier
// selection means by them.
func MetricValue(name string, m *eval.Metrics) (float64, bool) {
	def, ok := paretoMetrics[name]
	if !ok {
		return 0, false
	}
	return def.get(m), true
}

// ValidateParetoMetrics checks a frontier selection: only known metric
// names, no duplicates. An empty selection is valid (no frontier).
func ValidateParetoMetrics(names []string) error {
	seen := map[string]bool{}
	for _, n := range names {
		if _, ok := paretoMetrics[n]; !ok {
			return fmt.Errorf("core: unknown pareto metric %q (want one of %v)",
				n, ParetoMetricNames())
		}
		if seen[n] {
			return fmt.Errorf("core: duplicate pareto metric %q", n)
		}
		seen[n] = true
	}
	return nil
}

// ParetoFrontier returns the indices into r.Metrics (ascending) of the
// evaluations not dominated on the named metrics. Maximized metrics
// (lifetime, density) are negated internally, so "dominates" always means
// at-least-as-good everywhere and strictly better somewhere. NaN values
// rank worst.
func (r *Results) ParetoFrontier(metrics []string) ([]int, error) {
	if len(metrics) == 0 {
		return nil, fmt.Errorf("core: pareto selection needs at least one metric")
	}
	if err := ValidateParetoMetrics(metrics); err != nil {
		return nil, err
	}
	n := len(r.Metrics)
	vals := make([][]float64, n)
	for i := range r.Metrics {
		row := make([]float64, len(metrics))
		for k, name := range metrics {
			def := paretoMetrics[name]
			v := def.get(&r.Metrics[i])
			if def.maximize {
				v = -v
			}
			if math.IsNaN(v) {
				v = math.Inf(1)
			}
			row[k] = v
		}
		vals[i] = row
	}
	dominates := func(a, b []float64) bool {
		strict := false
		for k := range a {
			if a[k] > b[k] {
				return false
			}
			if a[k] < b[k] {
				strict = true
			}
		}
		return strict
	}
	var front []int
	for i := 0; i < n; i++ {
		dominated := false
		for j := 0; j < n && !dominated; j++ {
			if j != i && dominates(vals[j], vals[i]) {
				dominated = true
			}
		}
		if !dominated {
			front = append(front, i)
		}
	}
	return front, nil
}

// SelectPareto computes the frontier on the named metrics, stores it on the
// Results (so scatter views and writers highlight it), and returns it.
func (r *Results) SelectPareto(metrics ...string) ([]int, error) {
	front, err := r.ParetoFrontier(metrics)
	if err != nil {
		return nil, err
	}
	r.Frontier = front
	return front, nil
}

// EnsureFrontier computes the frontier declared by the study's Pareto
// field, if one is declared and not yet computed. Writers call this so the
// same configuration renders identically no matter which entry point ran
// the study.
func (r *Results) EnsureFrontier() error {
	if r.Frontier != nil || len(r.Study.Pareto) == 0 {
		return nil
	}
	_, err := r.SelectPareto(r.Study.Pareto...)
	return err
}

// frontierSet returns the selected frontier as a membership set over
// Metrics indices (empty when no selection ran).
func (r *Results) frontierSet() map[int]bool {
	set := make(map[int]bool, len(r.Frontier))
	for _, i := range r.Frontier {
		set[i] = true
	}
	return set
}
