package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/url"
	"strconv"
	"time"

	"repro/internal/cell"
	"repro/internal/query"
	"repro/internal/sweep"
)

// request is one generated operation: a study POST or a query GET. Requests
// are pure functions of (workload, seed, index), so two commits, and the
// HTTP and replay halves of a traced run, see the same inputs.
type request struct {
	kind   string // "study" or "query"
	path   string // URL path with its query string
	body   []byte // study configuration (POST)
	format sweep.Format
	// golden keys a warm-replay response into the golden table as
	// "<config>/<format>"; empty elsewhere.
	golden string
	// query is the question a GET asks, in the form query.Index answers.
	query query.Request
}

// workload is one traffic mix.
type workload struct {
	name string
	// fabric fronts the service with two in-process workers.
	fabric bool
	// prime lists the requests a separate process sends to an empty store
	// before the measured process opens it; nil starts from an empty store.
	prime func(seed int64) []request
	// next is the i-th primary request; the latency metrics describe it.
	next func(seed int64, i int) request
	// write, when set, is the k-th request of an open-loop writer that
	// sends one request every writePeriod beside the closed-loop client.
	write func(seed int64, k int) request
	// warmup is how long the closed-loop client sends, uncounted, before
	// the measured window opens.
	warmup time.Duration
}

// coldWarmup lets a cold workload's process reach its steady size before the
// window opens. For its first 4–7 s the engine memo fills and the heap grows
// to the soft memory limit, the kernel spends half the time handing out
// fresh pages, and studies take two to four times longer than afterwards. A
// server pays that once, and its length varies from run to run.
const coldWarmup = 8 * time.Second

// writePeriod spaces the open-loop writes of query-mix.
const writePeriod = 250 * time.Millisecond

// primedStudies is how many codesign1 studies query-mix starts with.
const primedStudies = 128

var workloads = []workload{
	// Every study is new, so each of its 8 characterizations misses the memo
	// and each point misses the store: the engine, the store's write path and
	// the memo's memory do the work.
	{
		name:   "cold-codesign",
		next:   coldStudy,
		warmup: coldWarmup,
	},
	// Six paper-shaped studies replayed from a primed store: cache probe and
	// output formatting do the work, the engine none.
	{
		name: "warm-replay",
		prime: func(int64) []request {
			var out []request
			for _, c := range warmConfigs {
				out = append(out, studyRequest([]byte(c.body), sweep.FormatJSON))
			}
			return out
		},
		next: warmStudy,
	},
	// Seeded queries over 128 stored studies beside an open-loop writer: the
	// index refresh, scans and the manifest path do the work.
	{
		name: "query-mix",
		prime: func(seed int64) []request {
			out := make([]request, primedStudies)
			for k := range out {
				out[k] = codesign1Study(seed, k)
			}
			return out
		},
		next:  queryRead,
		write: func(seed int64, k int) request { return codesign1Study(seed, primedStudies+k) },
	},
	// The cold-codesign stream through a coordinator with two in-process
	// workers: what it adds to cold-codesign is the fabric's overhead.
	{
		name:   "fabric-cold",
		fabric: true,
		next:   coldStudy,
		warmup: coldWarmup,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Random streams. Every generated value comes from a PCG stream keyed by the
// seed and one of these offsets plus an index, so each request is drawn
// independently of how many others were generated before it.
const (
	streamStudy   = 0
	streamQuery   = 1 << 40
	streamWrite   = 2 << 40
	streamSample  = 3 << 40
	streamCompare = 4 << 40
)

func rng(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// studyRequest wraps a configuration body as a study POST.
func studyRequest(body []byte, f sweep.Format) request {
	return request{kind: "study", path: "/v1/studies?format=" + string(f), body: body, format: f}
}

// codesignTechs are the technologies a co-design study draws new cells of.
var codesignTechs = []cell.Technology{cell.STT, cell.RRAM, cell.PCM, cell.FeFET}

// codesignConfig is the shared shape of the co-design studies: each cell at
// 2 MB and 4 MB, targeting ReadEDP and Area under four generic traffic
// patterns (a 2×2 read/write grid), which is 8 rows per (cell, capacity)
// point.
func codesignConfig(name string, cells []sweep.CellRef, custom []sweep.CustomCell) []byte {
	cfg := sweep.Config{
		Name:            name,
		Cells:           cells,
		CustomCells:     custom,
		CapacitiesBytes: []int64{2 << 20, 4 << 20},
		OptTargets:      []string{"ReadEDP", "Area"},
		Traffic: sweep.TrafficConfig{Generic: &sweep.GenericTraffic{
			ReadGBsLo: 0.1, ReadGBsHi: 10, WriteGBsLo: 0.001, WriteGBsHi: 1, Points: 2,
		}},
	}
	body, err := json.Marshal(cfg)
	if err != nil {
		panic(err) // a static struct of plain values always marshals
	}
	return body
}

// coldStudy is a co-design study of four new custom cells, one each of STT,
// RRAM, PCM and FeFET: 8 unique characterizations and 64 rows, as NDJSON.
func coldStudy(seed int64, i int) request {
	r := rng(seed, streamStudy+uint64(i))
	name := fmt.Sprintf("cold-%d-%d", seed, i)
	custom := make([]sweep.CustomCell, len(codesignTechs))
	for j, t := range codesignTechs {
		custom[j] = customCell(r, t, name+"-"+t.String())
	}
	return studyRequest(codesignConfig(name, []sweep.CellRef{}, custom), sweep.FormatNDJSON)
}

// codesign1Study is one new custom cell beside the optimistic STT, RRAM and
// FeFET tentpoles, as JSON: the shape query-mix stores and queries.
func codesign1Study(seed int64, k int) request {
	r := rng(seed, streamWrite+uint64(k))
	name := fmt.Sprintf("qm-%d-%d", seed, k)
	t := codesignTechs[r.IntN(len(codesignTechs))]
	refs := []sweep.CellRef{
		{Technology: "STT", Flavor: "Opt"},
		{Technology: "RRAM", Flavor: "Opt"},
		{Technology: "FeFET", Flavor: "Opt"},
	}
	custom := []sweep.CustomCell{customCell(r, t, name+"-"+t.String())}
	return studyRequest(codesignConfig(name, refs, custom), sweep.FormatJSON)
}

// customCell draws a cell of technology t with every parameter inside the
// paper's Table I range for t. Parameters Table I leaves blank keep the
// optimistic tentpole's value. Values keep four significant digits so the
// configurations stay readable.
func customCell(r *rand.Rand, t cell.Technology, name string) sweep.CustomCell {
	var row cell.TableIRow
	for _, x := range cell.TableI() {
		if x.Tech == t {
			row = x
		}
	}
	base := cell.MustTentpole(t, cell.Optimistic)
	lin := func(lo, hi, def float64) float64 {
		if lo <= 0 || hi <= 0 {
			return def
		}
		return round4(lo + (hi-lo)*r.Float64())
	}
	logu := func(lo, hi, def float64) float64 {
		if lo <= 0 || hi <= 0 || math.IsInf(hi, 1) {
			return def
		}
		return round4(lo * math.Pow(hi/lo, r.Float64()))
	}
	return sweep.CustomCell{
		Name:           name,
		Technology:     t.String(),
		AreaF2:         lin(row.AreaF2Lo, row.AreaF2Hi, base.AreaF2),
		NodeNM:         lin(row.NodeLo, row.NodeHi, base.NodeNM),
		ReadLatencyNS:  logu(row.ReadNSLo, row.ReadNSHi, base.ReadLatencyNS),
		WriteLatencyNS: logu(row.WriteNSLo, row.WriteNSHi, base.WriteLatencyNS),
		ReadEnergyPJ:   logu(row.ReadPJLo, row.ReadPJHi, base.ReadEnergyPJ),
		WriteEnergyPJ:  logu(row.WritePJLo, row.WritePJHi, base.WriteEnergyPJ),
		Endurance:      logu(row.EnduranceLo, row.EndurHi, base.EnduranceCycles),
		RetentionS:     logu(row.RetentionLo, row.RetentHi, base.RetentionS),
	}
}

func round4(v float64) float64 {
	f, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'g', 4, 64), 64)
	return f
}

// warmConfig is one of warm-replay's fixed studies.
type warmConfig struct {
	name string
	body string
}

// warmConfigs are paper-shaped studies: the Table II cell set, Fig 8 graph
// traffic with a three-metric frontier, the Fig 14 write-buffer axis, the
// Fig 13 bits-per-cell × fault/SECDED axes, ResNet18 DNN traffic over three
// targets, and the 4×2×2×16 query-bench grid (256 rows).
var warmConfigs = []warmConfig{
	{"table2", `{"name": "table2-2mb",
  "cells": [{"technology": "SRAM", "flavor": "Ref"},
    {"technology": "PCM", "flavor": "Opt"}, {"technology": "PCM", "flavor": "Pess"},
    {"technology": "STT", "flavor": "Opt"}, {"technology": "STT", "flavor": "Pess"},
    {"technology": "RRAM", "flavor": "Opt"}, {"technology": "RRAM", "flavor": "Pess"},
    {"technology": "FeFET", "flavor": "Opt"}, {"technology": "FeFET", "flavor": "Pess"},
    {"technology": "RRAM", "flavor": "Ref"}],
  "capacities_bytes": [2097152],
  "traffic": {"generic": {"read_gbs_lo": 0.1, "read_gbs_hi": 10,
    "write_gbs_lo": 0.001, "write_gbs_hi": 1, "points": 3}}}`},
	{"fig8", `{"name": "fig8-pagerank-8mb",
  "cells": [{"technology": "SRAM", "flavor": "Ref"},
    {"technology": "PCM", "flavor": "Opt"}, {"technology": "STT", "flavor": "Opt"},
    {"technology": "RRAM", "flavor": "Opt"}, {"technology": "FeFET", "flavor": "Opt"}],
  "capacities_bytes": [8388608],
  "traffic": {"fixed": [
    {"name": "PageRank-Facebook", "reads_per_sec": 3.1e7, "writes_per_sec": 1.2e6},
    {"name": "PageRank-Wikipedia", "reads_per_sec": 8.4e7, "writes_per_sec": 2.6e6},
    {"name": "BFS-Facebook", "reads_per_sec": 1.9e7, "writes_per_sec": 4.0e5}]},
  "pareto": {"metrics": ["total_power_mw", "mem_time_per_sec", "lifetime_years"]}}`},
	{"fig14", `{"name": "fig14-write-buffer-16mb",
  "cells": [{"technology": "PCM", "flavor": "Opt"}, {"technology": "STT", "flavor": "Opt"},
    {"technology": "RRAM", "flavor": "Opt"}, {"technology": "FeFET", "flavor": "Opt"}],
  "capacities_bytes": [16777216],
  "write_buffers": [null,
    {"mask_latency": true, "buffer_latency_ns": 1.5, "traffic_reduction": 0.5},
    {"mask_latency": false, "buffer_latency_ns": 0, "traffic_reduction": 0.75}],
  "traffic": {"generic": {"read_gbs_lo": 0.1, "read_gbs_hi": 10,
    "write_gbs_lo": 0.01, "write_gbs_hi": 1, "points": 4}}}`},
	{"fig13", `{"name": "fig13-mlc-faults",
  "cells": [{"technology": "PCM", "flavor": "Opt"}, {"technology": "RRAM", "flavor": "Opt"},
    {"technology": "FeFET", "flavor": "Opt"}],
  "bits_per_cell": [1, 2, 3],
  "capacities_bytes": [2097152],
  "fault": {"modes": ["none", "raw", "secded"], "seed": 13},
  "traffic": {"generic": {"read_gbs_lo": 0.1, "read_gbs_hi": 10,
    "write_gbs_lo": 0.001, "write_gbs_hi": 1, "points": 2}}}`},
	{"dnn", `{"name": "dnn-resnet18",
  "cells": [{"technology": "SRAM", "flavor": "Ref"},
    {"technology": "PCM", "flavor": "Opt"}, {"technology": "STT", "flavor": "Opt"},
    {"technology": "RRAM", "flavor": "Opt"}, {"technology": "FeFET", "flavor": "Opt"}],
  "capacities_bytes": [4194304],
  "opt_targets": ["ReadEDP", "ReadLatency", "Area"],
  "traffic": {"dnn": {"network": "ResNet18", "fps": 60, "tasks": 1, "activations": false}}}`},
	{"querybench", `{"name": "query-bench",
  "cells": [{"technology": "STT", "flavor": "Opt"}, {"technology": "RRAM", "flavor": "Opt"},
    {"technology": "PCM", "flavor": "Opt"}, {"technology": "FeFET", "flavor": "Opt"}],
  "capacities_bytes": [2097152, 4194304],
  "opt_targets": ["ReadEDP", "Area"],
  "traffic": {"generic": {"read_gbs_lo": 0.1, "read_gbs_hi": 10,
    "write_gbs_lo": 0.001, "write_gbs_hi": 1, "points": 16}}}`},
}

// warmMix is one block of warm-replay requests: JSON, NDJSON and CSV 12, 6
// and 6 times. The mix is chosen so that both reported percentiles fall
// well inside one request type's latency cluster, not on the edge between
// two, where a small shift would move the percentile by a whole cluster:
// ten requests are faster than Table II as JSON, so the median lies among
// its four, and the 256-row query-bench grid as JSON is the slowest eighth,
// so p99 lies in its slowest 8%. That grid's own latencies fall in two
// groups about 20 ms apart, the slower one holding 15–30% of them; with the
// grid as a twelfth of the mix, p99 sat at their boundary and moved by up
// to 30% between runs of one seed. At one in six, a slow machine left too
// few requests in the window for a p99.
var warmMix = []struct {
	config int // index into warmConfigs
	format sweep.Format
}{
	{0, sweep.FormatJSON}, {0, sweep.FormatJSON}, {0, sweep.FormatJSON}, {0, sweep.FormatJSON},
	{1, sweep.FormatNDJSON}, {1, sweep.FormatCSV}, {1, sweep.FormatCSV},
	{2, sweep.FormatJSON}, {2, sweep.FormatJSON}, {2, sweep.FormatNDJSON}, {2, sweep.FormatCSV},
	{3, sweep.FormatJSON}, {3, sweep.FormatJSON}, {3, sweep.FormatJSON}, {3, sweep.FormatNDJSON},
	{4, sweep.FormatNDJSON}, {4, sweep.FormatNDJSON}, {4, sweep.FormatCSV}, {4, sweep.FormatCSV},
	{5, sweep.FormatJSON}, {5, sweep.FormatJSON}, {5, sweep.FormatJSON},
	{5, sweep.FormatNDJSON}, {5, sweep.FormatCSV},
}

// warmStudy is warm-replay's i-th request. Every block of len(warmMix)
// consecutive requests sends each warmMix entry once, in a seeded order, so
// the mix is exact whatever the seed and only the order varies.
func warmStudy(seed int64, i int) request {
	perm := rng(seed, streamStudy+uint64(i/len(warmMix))).Perm(len(warmMix))
	m := warmMix[perm[i%len(warmMix)]]
	c := warmConfigs[m.config]
	req := studyRequest([]byte(c.body), m.format)
	req.golden = c.name + "/" + string(m.format)
	return req
}

// Query shapes, each a quarter of query-mix's reads.
const (
	shapeTechTopK = iota
	shapeBoundTopK
	shapeCapTargetDesc
	shapeStudyFrontier
	numShapes
)

// queryRead is query-mix's i-th read.
func queryRead(seed int64, i int) request {
	r := rng(seed, streamQuery+uint64(i))
	return queryOfShape(r, seed, r.IntN(numShapes))
}

// queryOfShape draws one query of a shape. Sort keys and bounds are drawn
// from small fixed menus so every shape returns rows.
func queryOfShape(r *rand.Rand, seed int64, shape int) request {
	sortBy := []string{"total_power_mw", "read_latency_ns", "read_energy_pj", "area_mm2"}
	tops := []int{5, 10, 20}
	v := url.Values{}
	var q query.Request
	switch shape {
	case shapeTechTopK:
		q.Technology = codesignTechs[r.IntN(len(codesignTechs))].String()
		q.Sort = sortBy[r.IntN(len(sortBy))]
		q.Top = tops[r.IntN(len(tops))]
		v.Set("technology", q.Technology)
	case shapeBoundTopK:
		bounds := []struct {
			metric string
			max    float64
		}{{"read_latency_ns", 5}, {"area_mm2", 1}, {"total_power_mw", 50}}
		b := bounds[r.IntN(len(bounds))]
		q.Max = map[string]float64{b.metric: b.max}
		q.Sort = sortBy[r.IntN(len(sortBy))]
		q.Top = tops[r.IntN(len(tops))]
		v.Set("max_"+b.metric, strconv.FormatFloat(b.max, 'g', -1, 64))
	case shapeCapTargetDesc:
		q.Capacity = []int64{2 << 20, 4 << 20}[r.IntN(2)]
		q.Target = []string{"ReadEDP", "Area"}[r.IntN(2)]
		q.Sort = "density_mb_per_mm2"
		q.Desc = true
		q.Top = tops[r.IntN(len(tops))]
		v.Set("capacity", strconv.FormatInt(q.Capacity, 10))
		v.Set("target", q.Target)
		v.Set("order", "desc")
	case shapeStudyFrontier:
		q.Studies = []string{fmt.Sprintf("qm-%d-%d", seed, r.IntN(primedStudies))}
		q.Frontier = []string{"total_power_mw", "mem_time_per_sec"}
		v.Set("study", q.Studies[0])
		v.Set("frontier", "total_power_mw,mem_time_per_sec")
	}
	if q.Sort != "" {
		v.Set("sort", q.Sort)
		v.Set("top", strconv.Itoa(q.Top))
	}
	return request{kind: "query", path: "/v1/query?" + v.Encode(), format: sweep.FormatJSON, query: q}
}
