// Package core is NVMExplorer-Go's top-level design-space-exploration API:
// the Configure → Evaluate → Explore pipeline of Figure 2. A Study gathers
// the cross-stack configuration (cells, array provisioning, optimization
// targets, and application traffic), Run characterizes every array and
// evaluates it against every traffic pattern, and Results offers the
// filter/rank/tabulate operations the paper's case studies perform on the
// dashboard.
package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/cell"
	"repro/internal/eval"
	"repro/internal/nvsim"
	"repro/internal/traffic"
	"repro/internal/viz"
)

// Study is one configured design-space exploration. Cells and Capacities
// are the two mandatory axes; the optional axis fields widen the grid, and
// their cross product — the study's DesignSpace — is enumerated in exactly
// one place, Study.Space (space.go).
type Study struct {
	Name       string
	Cells      []cell.Definition
	Capacities []int64
	Targets    []nvsim.OptTarget
	WordBits   int // 0 = 64B line
	Patterns   []traffic.Pattern
	Options    eval.Options // study-wide defaults; per-point axes override

	// Optional design-space axes (empty = single implicit value).
	//
	// BitsPerCell re-programs every base cell at each listed bits-per-cell
	// (cell.ToMLC); volatile cells keep only their SLC entry. Empty uses
	// each cell exactly as declared.
	BitsPerCell []int
	// WordBitsAxis varies the access width per point; empty uses WordBits.
	WordBitsAxis []int
	// WriteBuffers varies the write-buffer configuration per point (a nil
	// entry is an explicit "no buffer" point); empty uses Options.WriteBuffer.
	WriteBuffers []*eval.WriteBufferConfig
	// Faults varies the storage fault/ECC handling per point; empty uses
	// Options.Fault. Per-point injection seeds are derived from the entry's
	// base seed plus the point index, so results are reproducible.
	Faults []*eval.FaultConfig

	// Pareto names the metrics (see ParetoMetricNames) to minimize when
	// selecting the result frontier. Empty disables frontier selection.
	Pareto []string

	// Constraints applied during characterization (zero = none).
	MaxAreaMM2       float64
	MaxReadLatencyNS float64

	// Mode selects the execution strategy: "" or ModeExhaustive evaluates
	// every enumerated grid point; ModeAdaptive runs the Pareto-guided
	// search (adaptive.go) that evaluates only a frontier-relevant subset.
	Mode string
	// Budget caps how many grid points an adaptive run may evaluate
	// (0 = unlimited: refine until the frontier stops moving). Spent via
	// successive halving, so the evaluated subset — and every output byte —
	// is a pure function of (configuration, Seed, Budget).
	Budget int
	// Seed drives the deterministic ranking that breaks ties when a
	// refinement round offers more candidates than the budget allows.
	Seed int64

	// Workers bounds the goroutines characterizing the design-space grid.
	// 0 uses runtime.GOMAXPROCS(0); 1 forces sequential execution.
	// Results are merged in enumeration order regardless, so the output is
	// identical at any worker count.
	Workers int

	// Engine, when non-nil, characterizes the study's configs through its
	// memo, so repeated and overlapping studies on one engine reuse each
	// other's characterizations, and counts that work (nvsim.EngineStats).
	// Nil characterizes every config afresh. Output is identical either way.
	Engine *nvsim.Engine

	// Cache, when non-nil, is consulted before each grid point is
	// characterized (keyed by PointKey, see key.go) and filled with each
	// computed point — the hook the persistent study store plugs into. A
	// cache hit replays the stored point verbatim, so cached and computed
	// runs are byte-identical. Implementations must be concurrency-safe.
	Cache PointCache

	// shipped is the table of characterizations Adopt fills from fabric
	// workers.
	shipped map[nvsim.Config]Characterization
}

// NewStudy creates an empty study.
func NewStudy(name string) *Study { return &Study{Name: name} }

// AddCell appends a fully custom cell definition.
func (s *Study) AddCell(d cell.Definition) *Study {
	s.Cells = append(s.Cells, d)
	return s
}

// AddTentpole appends a canonical tentpole cell (panics on unknown
// combinations, mirroring cell.MustTentpole).
func (s *Study) AddTentpole(t cell.Technology, f cell.Flavor) *Study {
	return s.AddCell(cell.MustTentpole(t, f))
}

// AddCaseStudyCells appends the paper's fixed Section IV cell set: SRAM,
// optimistic+pessimistic PCM/STT/RRAM/FeFET, and the reference RRAM.
func (s *Study) AddCaseStudyCells() *Study {
	s.Cells = append(s.Cells, cell.CaseStudyCells()...)
	return s
}

// AddCapacity appends array capacities to provision.
func (s *Study) AddCapacity(bytes ...int64) *Study {
	s.Capacities = append(s.Capacities, bytes...)
	return s
}

// AddTarget appends array optimization targets.
func (s *Study) AddTarget(ts ...nvsim.OptTarget) *Study {
	s.Targets = append(s.Targets, ts...)
	return s
}

// AddPattern appends traffic patterns.
func (s *Study) AddPattern(ps ...traffic.Pattern) *Study {
	s.Patterns = append(s.Patterns, ps...)
	return s
}

// Results holds a completed study: every characterized array and every
// (array, pattern) evaluation.
type Results struct {
	Study   *Study
	Arrays  []nvsim.Result
	Metrics []eval.Metrics
	// Skipped lists arrays that could not be characterized under the
	// study's constraints (e.g. excluded by an area budget), mirroring the
	// paper's practice of dropping infeasible candidates from figures.
	Skipped []string
	// Frontier holds the indices into Metrics of the current Pareto
	// selection (set by SelectPareto / EnsureFrontier, pareto.go); nil
	// until a selection runs. Scatter views highlight these points.
	Frontier []int
	// FailedPoints lists grid points whose characterization or evaluation
	// panicked. A panic is isolated to its point: the rest of the grid
	// completes, and the failure is reported structurally here (and as a
	// failed_points block in study output) instead of crashing the run.
	// Failed points are never cached, so they retry on the next run.
	FailedPoints []FailedPoint
	// Exploration summarizes an adaptive run's design-space coverage; nil
	// for exhaustive runs. Writers surface it as the study's exploration
	// block.
	Exploration *Exploration
}

// FailedPoint is the structured record of one grid point lost to a panic.
type FailedPoint struct {
	// Index is the point's position in the study's enumeration order
	// (PointSpec.Index).
	Index         int    `json:"index"`
	Cell          string `json:"cell"`
	CapacityBytes int64  `json:"capacity_bytes"`
	Err           string `json:"error"`
}

// failPoint records one panicked grid point.
func (r *Results) failPoint(spec PointSpec, err error) {
	r.FailedPoints = append(r.FailedPoints, FailedPoint{
		Index:         spec.Index,
		Cell:          spec.Cell.Name,
		CapacityBytes: spec.CapacityBytes,
		Err:           err.Error(),
	})
}

// PointResult is one completed design-space grid point as delivered to a
// RunStream callback: the point's coordinates plus every target's
// characterized array and every (array, pattern) evaluation, in the same
// order Run would append them to Results.
type PointResult struct {
	// Spec carries the point's axis coordinates; Spec.Index is also the
	// emission order.
	Spec    PointSpec
	Arrays  []nvsim.Result
	Metrics []eval.Metrics
	Skipped []string
}

// testHookEvaluate, when non-nil, runs just before each cache-missing
// point's evaluation, inside the evaluation phase's panic guard.
// Fault-isolation tests install a panicking hook to simulate an evaluation
// crash on a chosen point.
var testHookEvaluate func(spec *PointSpec)

// Run executes the study: enumerate the design space (Space), characterize
// each grid point across every target — sharing one organization-space
// evaluation per point — and evaluate each resulting array against each
// traffic pattern. Grid points fan out across Workers goroutines; results
// merge back in enumeration order, so the output is byte-identical to a
// sequential run.
func (s *Study) Run() (*Results, error) {
	return s.RunStream(context.Background(), nil)
}

// RunStream is the context-aware, streaming form of Run. The run is
// executed as a two-phase plan (see plan.go): the plan phase dedupes the
// grid's unique characterization configs, probes the point cache, and
// characterizes each needed config exactly once across Workers goroutines;
// the evaluation phase then walks the grid in declaration order, handing
// each completed point to emit — so callers (e.g. an NDJSON HTTP response)
// can flush rows as points are evaluated. The accumulated Results are
// returned as well and are byte-identical to Run's for the same study at
// any worker count.
//
// emit may be nil. It is called from the calling goroutine only, never
// concurrently; the slices handed to it are views into the accumulated
// Results and must be treated as read-only. A non-nil error from emit, a
// point-evaluation error, or ctx cancellation stops the remaining work
// promptly and is returned (wrapped in ctx.Err()'s case).
func (s *Study) RunStream(ctx context.Context, emit func(PointResult) error) (*Results, error) {
	s.Targets = s.targets()
	if err := ValidateParetoMetrics(s.Pareto); err != nil {
		return nil, err
	}
	switch s.Mode {
	case "", ModeExhaustive:
	case ModeAdaptive:
		return s.runAdaptive(ctx, emit)
	default:
		return nil, fmt.Errorf("core: study %q: unknown mode %q (want %q or %q)",
			s.Name, s.Mode, ModeExhaustive, ModeAdaptive)
	}
	specs, err := s.Space()
	if err != nil {
		return nil, err
	}
	res := &Results{Study: s}
	putter := startCachePutter(s.Cache)
	defer putter.wait()
	if err := s.runSpecs(ctx, specs, res, putter, emit); err != nil {
		return nil, err
	}
	if len(res.Arrays) == 0 {
		return nil, res.noArraysError()
	}
	return res, nil
}

// targets is the study's target list, read EDP when none is set.
func (s *Study) targets() []nvsim.OptTarget {
	if len(s.Targets) == 0 {
		return []nvsim.OptTarget{nvsim.OptReadEDP}
	}
	return s.Targets
}

// noArraysError is the shared "nothing characterized" failure for a run
// whose every point was skipped or lost.
func (r *Results) noArraysError() error {
	if n := len(r.FailedPoints); n > 0 {
		return fmt.Errorf("core: study %q characterized no arrays (%d skipped, %d failed)",
			r.Study.Name, len(r.Skipped), n)
	}
	return fmt.Errorf("core: study %q characterized no arrays (%d skipped)",
		r.Study.Name, len(r.Skipped))
}

// runSpecs executes the two-phase plan over one batch of grid points,
// appending rows to res in batch order and handing each completed point to
// emit. It is the body both execution modes share: RunStream's exhaustive
// path calls it once over the full enumeration; the adaptive planner
// (adaptive.go) calls it once per refinement round over the round's
// selected specs. Specs keep their original enumeration Index, so emitted
// coordinates, fault seeds, and cache keys are identical either way.
func (s *Study) runSpecs(ctx context.Context, specs []PointSpec, res *Results, putter *cachePutter, emit func(PointResult) error) error {
	// Phase 1: the plan pass. All engine work happens here, deduped to one
	// characterization per unique config; only cancellation can fail it.
	plan, err := s.plan(ctx, specs, s.Cache)
	if err != nil {
		return err
	}

	// Phase 2: the evaluation pass. Points are evaluated and emitted in
	// declaration order into exactly-sized result buffers; per-point work is
	// cheap float math (eval.EvaluateBatch), so this phase stays on the
	// calling goroutine. Cache fills — the one potentially I/O-bound
	// per-point step (a disk-backed store gob-encodes and renames a file per
	// point) — are handed to a background putter so they overlap with
	// evaluation and emission; every fill completes before runSpecs
	// returns.
	totalArrays, totalMetrics := plan.totals(len(s.Patterns))
	res.Arrays = slices.Grow(res.Arrays, totalArrays)
	res.Metrics = slices.Grow(res.Metrics, totalMetrics)
	for i := range specs {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: study %q canceled: %w", s.Name, err)
		}
		aStart, mStart := len(res.Arrays), len(res.Metrics)
		var skipped []string
		if plan.hit != nil && plan.hit[i] {
			cp := plan.cached[i]
			res.Arrays = append(res.Arrays, cp.Arrays...)
			res.Metrics = append(res.Metrics, cp.Metrics...)
			skipped = cp.Skipped
		} else if pc := &plan.configs[plan.cfgOf[i]]; pc.failed != nil {
			// The plan phase recovered a characterization panic on this
			// point's config: record the loss and keep walking the grid.
			res.failPoint(specs[i], pc.failed)
		} else {
			var evalErr error
			// A panic while evaluating one point is isolated the same way:
			// the point's partially appended rows are rolled back, the
			// failure is recorded, and the rest of the grid completes.
			func() {
				defer func() {
					if r := recover(); r != nil {
						res.Arrays = res.Arrays[:aStart]
						res.Metrics = res.Metrics[:mStart]
						skipped = nil
						res.failPoint(specs[i], fmt.Errorf("evaluation panic: %v", r))
					}
				}()
				if h := testHookEvaluate; h != nil {
					h(&specs[i])
				}
				opts := specs[i].options(s.Options)
				for t := range s.Targets {
					if pc.errs[t] != nil {
						continue
					}
					res.Arrays = append(res.Arrays, pc.arrays[t])
					before := len(res.Metrics)
					res.Metrics, err = eval.EvaluateBatch(pc.arrays[t], s.Patterns, opts, res.Metrics)
					if err != nil {
						// EvaluateBatch appends up to the failing pattern, which
						// identifies it for the error message (guarded: study
						// validation makes a pre-pattern failure unreachable).
						name := "options"
						if n := len(res.Metrics) - before; n < len(s.Patterns) {
							name = s.Patterns[n].Name
						}
						evalErr = fmt.Errorf("core: evaluating %s on %s: %w",
							specs[i].Cell.Name, name, err)
						return
					}
				}
				skipped = pc.skipped
				if s.Cache != nil {
					// Cached points own their slices: the run's shared result
					// buffers must not be pinned by (or aliased into) a
					// long-lived store, so the point's rows are copied out.
					cp := CachedPoint{
						Arrays:  append([]nvsim.Result(nil), res.Arrays[aStart:]...),
						Metrics: append([]eval.Metrics(nil), res.Metrics[mStart:]...),
						Skipped: skipped,
					}
					putter.put(plan.keys[i], cp)
				}
			}()
			if evalErr != nil {
				return evalErr
			}
		}
		res.Skipped = append(res.Skipped, skipped...)
		if emit != nil {
			if err := emit(PointResult{
				Spec:    specs[i],
				Arrays:  res.Arrays[aStart:len(res.Arrays):len(res.Arrays)],
				Metrics: res.Metrics[mStart:len(res.Metrics):len(res.Metrics)],
				Skipped: skipped,
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// Feasible returns the evaluations that meet their task rate and avoid
// slowdown — the paper's "solutions shown meet per-benchmark demands"
// filter.
func (r *Results) Feasible() []eval.Metrics {
	var out []eval.Metrics
	for _, m := range r.Metrics {
		if m.MeetsTaskRate && m.MemoryTimePerSec <= 1 {
			out = append(out, m)
		}
	}
	return out
}

// Filter keeps evaluations satisfying pred.
func (r *Results) Filter(pred func(eval.Metrics) bool) []eval.Metrics {
	var out []eval.Metrics
	for _, m := range r.Metrics {
		if pred(m) {
			out = append(out, m)
		}
	}
	return out
}

// BestBy returns the evaluation minimizing metric among those satisfying
// pred (pred may be nil). ok is false when nothing qualifies.
func (r *Results) BestBy(metric func(eval.Metrics) float64, pred func(eval.Metrics) bool) (eval.Metrics, bool) {
	best := eval.Metrics{}
	bestV := math.Inf(1)
	found := false
	for _, m := range r.Metrics {
		if pred != nil && !pred(m) {
			continue
		}
		if v := metric(m); v < bestV {
			bestV = v
			best = m
			found = true
		}
	}
	return best, found
}

// ArrayTable tabulates the characterized arrays (the Fig 3/5/10 views).
func (r *Results) ArrayTable() *viz.Table {
	t := viz.NewTable(r.Study.Name+": characterized arrays",
		"Cell", "Capacity", "Target", "Org", "ReadNS", "WriteNS",
		"ReadPJ", "WritePJ", "LeakMW", "AreaMM2", "AreaEff", "MbPerMM2")
	for i := range r.Arrays {
		a := &r.Arrays[i]
		t.Row().Str(a.Cell.Name).Int(a.CapacityBytes).Str(a.Target.String()).
			Str(a.Org.String()).Float(a.ReadLatencyNS).Float(a.WriteLatencyNS).
			Float(a.ReadEnergyPJ).Float(a.WriteEnergyPJ).Float(a.LeakagePowerMW).
			Float(a.AreaMM2).Float(a.AreaEfficiency).Float(a.DensityMbPerMM2()).
			MustAdd()
	}
	return t
}

// MetricsTable tabulates the evaluations (the Fig 6/8/9 views).
func (r *Results) MetricsTable() *viz.Table {
	t := viz.NewTable(r.Study.Name+": application-level results",
		"Cell", "Pattern", "TotalMW", "DynMW", "LeakMW",
		"MemTimePerSec", "TaskLatencyS", "Meets", "LifetimeY")
	rows := append([]eval.Metrics(nil), r.Metrics...)
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Pattern.Name != rows[j].Pattern.Name {
			return rows[i].Pattern.Name < rows[j].Pattern.Name
		}
		return rows[i].Array.Cell.Name < rows[j].Array.Cell.Name
	})
	for _, m := range rows {
		t.Row().Str(m.Array.Cell.Name).Str(m.Pattern.Name).Float(m.TotalPowerMW).
			Float(m.DynamicPowerMW).Float(m.LeakagePowerMW).Float(m.MemoryTimePerSec).
			Float(m.TaskLatencyS).Bool(m.MeetsTaskRate).Float(m.LifetimeYears).
			MustAdd()
	}
	return t
}

// PowerScatter builds the power-vs-read-rate scatter (Fig 8/9 left).
// Points on a selected Pareto frontier are emphasized.
func (r *Results) PowerScatter() *viz.Scatter {
	s := &viz.Scatter{Title: r.Study.Name + ": total memory power vs read traffic",
		XLabel: "reads/s", YLabel: "total power (mW)", LogX: true, LogY: true}
	front := r.frontierSet()
	for i, m := range r.Metrics {
		s.Add(m.Array.Cell.Name, viz.Point{
			X: m.Pattern.ReadsPerSec, Y: m.TotalPowerMW, Label: m.Pattern.Name,
			Emph: front[i]})
	}
	return s
}

// LatencyScatter builds the latency-vs-write-rate scatter (Fig 8/9 middle).
// Points on a selected Pareto frontier are emphasized.
func (r *Results) LatencyScatter() *viz.Scatter {
	s := &viz.Scatter{Title: r.Study.Name + ": total memory latency vs write traffic",
		XLabel: "writes/s", YLabel: "memory time per second", LogX: true, LogY: true}
	front := r.frontierSet()
	for i, m := range r.Metrics {
		s.Add(m.Array.Cell.Name, viz.Point{
			X: m.Pattern.WritesPerSec, Y: m.MemoryTimePerSec, Label: m.Pattern.Name,
			Emph: front[i]})
	}
	return s
}

// LifetimeScatter builds the lifetime-vs-write-rate scatter (Fig 8/9 right).
// Points on a selected Pareto frontier are emphasized.
func (r *Results) LifetimeScatter() *viz.Scatter {
	s := &viz.Scatter{Title: r.Study.Name + ": projected lifetime vs write traffic",
		XLabel: "writes/s", YLabel: "lifetime (years)", LogX: true, LogY: true}
	front := r.frontierSet()
	for i, m := range r.Metrics {
		if math.IsInf(m.LifetimeYears, 1) {
			continue
		}
		s.Add(m.Array.Cell.Name, viz.Point{
			X: m.Pattern.WritesPerSec, Y: m.LifetimeYears, Label: m.Pattern.Name,
			Emph: front[i]})
	}
	return s
}

// Dashboard renders the completed study — its tables and scatter views,
// with any selected Pareto frontier highlighted — as the self-contained
// HTML dashboard, the study-level analogue of the paper's interactive
// filter/rank front end.
func (r *Results) Dashboard() *viz.Dashboard {
	return &viz.Dashboard{
		Title: r.Study.Name,
		Scatters: []*viz.Scatter{
			r.PowerScatter(), r.LatencyScatter(), r.LifetimeScatter(),
		},
		Tables: []*viz.Table{r.ArrayTable(), r.MetricsTable()},
	}
}
