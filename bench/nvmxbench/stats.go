package main

import (
	"fmt"
	"slices"
)

// minTail is how many samples must lie beyond a reported percentile: a p99
// needs at least 1000 samples, a p50 at least 20.
const minTail = 10

// percentile returns the p-th percentile (0 < p < 100) of samples by the
// nearest-rank method. It refuses a percentile with fewer than minTail
// samples beyond it, so a tail figure always rests on a tail.
func percentile(samples []float64, p int) (float64, error) {
	n := len(samples)
	if n == 0 || n-rank(n, p) < minTail {
		return 0, fmt.Errorf("p%d of %d samples: need %d beyond it", p, n, minTail)
	}
	return nearestRank(samples, p), nil
}

// nearestRank is the p-th percentile without the tail rule; quick runs,
// which are too short for it, report it.
func nearestRank(samples []float64, p int) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	return sorted[max(rank(len(sorted), p), 1)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples,
// ceil(p/100 × n), in integers so that p99 of 1000 is exactly rank 990.
func rank(n, p int) int { return (p*n + 99) / 100 }

// quartiles returns the first, second and third quartiles of values by the
// method of Python's statistics.quantiles(values, n=4) (exclusive), the rule
// the benchmark's spread checks are stated in. It needs two values.
func quartiles(values []float64) (q1, q2, q3 float64, err error) {
	n := len(values)
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 values, got %d", n)
	}
	d := slices.Clone(values)
	slices.Sort(d)
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2], nil
}

// spread is the distance between the first and third quartiles as a share of
// the median.
func spread(values []float64) (float64, error) {
	q1, q2, q3, err := quartiles(values)
	if err != nil {
		return 0, err
	}
	if q2 == 0 {
		return 0, fmt.Errorf("spread of values with median 0")
	}
	return (q3 - q1) / q2, nil
}

// median returns the middle value (the mean of the two middle ones for an
// even count).
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	d := slices.Clone(values)
	slices.Sort(d)
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// metricDef is one reported metric. End-to-end metrics carry the bound by
// which a change may worsen their median, as a share of the base median;
// floor is an absolute allowance in the metric's unit that applies when it is
// larger than the share.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	floor  float64
}

// regressed reports whether head is worse than base by more than the metric
// allows.
func (d metricDef) regressed(base, head float64) bool {
	allow := max(d.bound*base, d.floor)
	if d.better == "higher" {
		return head < base-allow
	}
	return head > base+allow
}

// endToEnd lists the metrics every untraced run prints, whatever the workload.
// The latency metrics describe the workload's primary request: the study
// POST on cold-codesign, warm-replay and fabric-cold, and the query GET on
// query-mix.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, floor: 0.05},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "latency_p99_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "req_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "retained_mb", unit: "MB", better: "lower", bound: 0.1},
}

// layers lists the traced layers in the order the server calls them. Each
// reports ms_per_req (self time), calls_per_req and alloc_kb_per_req.
var layers = []string{
	"sweep.parse", "core.space", "fabric.prefill", "store.probe",
	"nvsim.characterize", "eval.evaluate", "sweep.emit", "store.put",
	"store.manifest", "query.refresh", "query.query",
}

// layerExtras lists the per-layer metrics beyond the three every layer has.
var layerExtras = []metricDef{
	{name: "store.probe.hit_ratio", unit: "ratio", better: "higher"},
	{name: "nvsim.characterize.memo_hit_ratio", unit: "ratio", better: "higher"},
	{name: "nvsim.characterize.prefiltered_per_req", unit: "configs/req", better: "higher"},
	{name: "eval.evaluate.rows_per_req", unit: "rows/req", better: "lower"},
	{name: "sweep.emit.bytes_per_req", unit: "B/req", better: "lower"},
	{name: "store.put.io_errors", unit: "count", better: "lower"},
	{name: "store.put.retries", unit: "count", better: "lower"},
	{name: "query.refresh.changed_ratio", unit: "ratio", better: "lower"},
	{name: "query.query.rows_per_req", unit: "rows/req", better: "lower"},
	{name: "fabric.prefill.shards_per_req", unit: "shards/req", better: "lower"},
	{name: "fabric.prefill.remote_hit_ratio", unit: "ratio", better: "higher"},
	{name: "server.glue.ms_per_req", unit: "ms/req", better: "lower"},
	{name: "trace.coverage", unit: "ratio", better: "higher"},
	{name: "loadgen.lag_max_ms", unit: "ms", better: "lower"},
	{name: "loadgen.write_p50_ms", unit: "ms", better: "lower"},
}

// perLayer lists every metric a traced run prints.
func perLayer() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out,
			metricDef{name: l + ".ms_per_req", unit: "ms/req", better: "lower"},
			metricDef{name: l + ".calls_per_req", unit: "calls/req", better: "lower"},
			metricDef{name: l + ".alloc_kb_per_req", unit: "KB/req", better: "lower"})
	}
	return append(out, layerExtras...)
}
