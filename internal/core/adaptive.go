package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/eval"
	"repro/internal/nvsim"
)

// The adaptive exploration planner. Exhaustive runs evaluate the full axis
// cross product, whose cost explodes combinatorially as axes multiply; most
// of those points can never reach the Pareto frontier the study asked for.
// Adaptive mode turns the plan/evaluate split (plan.go) into a search:
//
//  1. Constraint pruning. Before any engine work, every unique
//     characterization config is tested against the cheap area bound
//     (nvsim.PrefilterTargets); provably infeasible points are dropped from
//     the search without spending budget.
//  2. Pareto-guided refinement. Numeric axes (bits per cell, capacity,
//     word bits) start on a coarse slice — first, middle, last value — with
//     the categorical axes (cell, write buffer, fault) enumerated in full
//     inside each slice. After each round the Pareto frontier of everything
//     evaluated so far is computed on the study's declared metrics, and
//     each frontier point's axis neighborhoods are opened next: the
//     adjacent values, and the midpoints of the gaps to the nearest
//     already-selected values. Regions nowhere near the frontier are never
//     subdivided.
//  3. Budgeted successive halving. A Budget > 0 caps the evaluated points;
//     each round may spend at most half the remaining budget (rounded up),
//     so early coarse rounds cannot starve later refinement. When a round
//     offers more candidates than its allowance, a seeded deterministic
//     ranking picks the survivors — the rest stay eligible for later
//     rounds.
//
// Determinism is load-bearing, exactly as for exhaustive runs: the
// evaluated subset is a pure function of (configuration, Seed, Budget), so
// two runs — at any worker count, cold or store-warm — produce byte-
// identical output. The budget therefore counts evaluated points whether or
// not they were replayed from the point cache; what a warm cache changes is
// the engine work (a store-warm run characterizes nothing), never the
// bytes. Points keep their full-enumeration PointSpec (index, fault seed,
// cache key), so adaptive and exhaustive runs share the store's point
// entries both ways.

// Execution modes for Study.Mode.
const (
	ModeExhaustive = "exhaustive"
	ModeAdaptive   = "adaptive"
)

// Exploration summarizes how an adaptive run covered the design space. The
// JSON-visible fields are pure functions of (configuration, seed, budget) —
// they appear in study bodies, which must stay byte-identical run to run,
// and the study service sums them into /v1/stats. Engine work is counted by
// the engine (nvsim.Engine.Stats), not here.
type Exploration struct {
	Mode             string `json:"mode"`
	Budget           int    `json:"budget"`
	Seed             int64  `json:"seed"`
	ExhaustivePoints int    `json:"exhaustive_points"`
	EvaluatedPoints  int    `json:"evaluated_points"`
	// PrunedInfeasible counts points dropped by the constraint bound before
	// the search began; PrunedBudget counts the rest of the grid the search
	// never evaluated (budget exhausted or never near the frontier).
	PrunedInfeasible int `json:"pruned_infeasible"`
	PrunedBudget     int `json:"pruned_budget"`
	Rounds           int `json:"rounds"`

	// Indices lists the evaluated points' enumeration indices, ascending.
	// Study manifests persist it so the store/query layers can replay
	// exactly the points an adaptive study evaluated.
	Indices []int `json:"-"`
}

// refinableAxes lists the numeric axes adaptive refinement subdivides.
// Cells, write buffers, and fault modes are categorical: slicing them would
// just drop configurations the user explicitly asked to compare.
var refinableAxes = [...]Axis{AxisBitsPerCell, AxisCapacity, AxisWordBits}

// rankHash is the deterministic tie-breaking rank of one candidate point in
// one halving round: FNV-1a over (seed, round, index). No global state, no
// ordering sensitivity — the same triple ranks identically on every run and
// at every worker count.
func rankHash(seed int64, round, index int) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(uint64(seed))
	mix(uint64(round))
	mix(uint64(index))
	return h
}

// runAdaptive is RunStream's adaptive-mode body. The emitted points and
// returned Results carry rows in ascending enumeration order — the same
// order an exhaustive run would emit them in — so every writer downstream
// works unchanged.
func (s *Study) runAdaptive(ctx context.Context, emit func(PointResult) error) (*Results, error) {
	if len(s.Pareto) == 0 {
		return nil, fmt.Errorf("core: study %q: adaptive mode needs a pareto metric selection to guide refinement", s.Name)
	}
	if s.Budget < 0 {
		return nil, fmt.Errorf("core: study %q: adaptive budget must be >= 0, got %d", s.Name, s.Budget)
	}
	specs, coords, err := s.spaceCoords()
	if err != nil {
		return nil, err
	}

	// Constraint pruning: drop every point whose unique config the cheap
	// area bound proves infeasible, before spending engine time or budget.
	pruned := make([]bool, len(specs))
	prunedCount := 0
	{
		infeasible := make(map[nvsim.Config]bool)
		for i := range specs {
			k := s.charConfig(&specs[i])
			inf, seen := infeasible[k]
			if !seen {
				_, _, inf = s.Engine.PrefilterTargets(k, s.Targets)
				infeasible[k] = inf
			}
			if inf {
				pruned[i] = true
				prunedCount++
			}
		}
	}

	// The initial coarse grid: each refinable axis with more than three
	// values starts on {first, middle, last}; smaller axes (and all
	// categorical axes) are always fully in play.
	bits, words, _, _ := s.axisValues()
	axisSize := map[Axis]int{
		AxisBitsPerCell: len(bits),
		AxisCapacity:    len(s.Capacities),
		AxisWordBits:    len(words),
	}
	var refine []Axis
	selected := make([]map[int]bool, numAxes)
	for _, a := range refinableAxes {
		if n := axisSize[a]; n > 3 {
			refine = append(refine, a)
			selected[a] = map[int]bool{0: true, n / 2: true, n - 1: true}
		}
	}
	onSelectedSlices := func(c pointCoords) bool {
		for _, a := range refine {
			if !selected[a][c[a]] {
				return false
			}
		}
		return true
	}

	// Accumulation state. Rows land in a scratch Results in evaluation
	// (round) order; per-point row ranges are recorded so the final Results
	// can be assembled in enumeration order afterwards.
	scratch := &Results{Study: s}
	putter := startCachePutter(s.Cache)
	defer putter.wait()
	type rowRange struct{ a0, a1, m0, m1, s0, s1 int }
	rows := make(map[int]rowRange, len(specs))
	var rowPoint []int // scratch.Metrics row -> spec enumeration index
	collect := func(pr PointResult) error {
		a1, m1, s1 := len(scratch.Arrays), len(scratch.Metrics), len(scratch.Skipped)
		rows[pr.Spec.Index] = rowRange{
			a0: a1 - len(pr.Arrays), a1: a1,
			m0: m1 - len(pr.Metrics), m1: m1,
			s0: s1 - len(pr.Skipped), s1: s1,
		}
		for range pr.Metrics {
			rowPoint = append(rowPoint, pr.Spec.Index)
		}
		return nil
	}

	evaluated := make([]bool, len(specs))
	evalCount := 0
	rounds := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: study %q canceled: %w", s.Name, err)
		}
		// This round's candidates: unevaluated, feasible, on the current
		// slices, in enumeration order.
		var cands []int
		for i := range specs {
			if !evaluated[i] && !pruned[i] && onSelectedSlices(coords[i]) {
				cands = append(cands, i)
			}
		}
		truncated := false
		if len(cands) > 0 {
			if s.Budget > 0 {
				remaining := s.Budget - evalCount
				if remaining <= 0 {
					break
				}
				// Successive halving: spend at most half the remaining
				// budget per round (rounded up, so progress is guaranteed).
				if allow := (remaining + 1) / 2; len(cands) > allow {
					ranks := make(map[int]uint64, len(cands))
					for _, i := range cands {
						ranks[i] = rankHash(s.Seed, rounds, i)
					}
					sort.Slice(cands, func(a, b int) bool {
						if ranks[cands[a]] != ranks[cands[b]] {
							return ranks[cands[a]] < ranks[cands[b]]
						}
						return cands[a] < cands[b]
					})
					cands = cands[:allow]
					sort.Ints(cands)
					truncated = true
				}
			}
			rounds++
			batch := make([]PointSpec, len(cands))
			for j, i := range cands {
				batch[j] = specs[i]
			}
			if err := s.runSpecs(ctx, batch, scratch, putter, collect); err != nil {
				return nil, err
			}
			for _, i := range cands {
				evaluated[i] = true
			}
			evalCount += len(cands)
		}

		// Refinement: open the axis neighborhoods of the current frontier.
		added := false
		if len(refine) > 0 && len(scratch.Metrics) > 0 {
			front, err := scratch.ParetoFrontier(s.Pareto)
			if err != nil {
				return nil, err
			}
			onFront := make(map[int]bool)
			for _, ri := range front {
				onFront[rowPoint[ri]] = true
			}
			for _, a := range refine {
				sel := selected[a]
				// The round-start selected values, sorted, for gap midpoints.
				vals := make([]int, 0, len(sel))
				for v := range sel {
					vals = append(vals, v)
				}
				sort.Ints(vals)
				for pi := range onFront {
					v := coords[pi][a]
					// Immediate neighbors close the frontier locally...
					for _, nb := range [2]int{v - 1, v + 1} {
						if nb >= 0 && nb < axisSize[a] && !sel[nb] {
							sel[nb] = true
							added = true
						}
					}
					// ...and gap midpoints keep coarse jumps from hiding
					// distant frontier regions.
					pos := sort.SearchInts(vals, v)
					if pos < len(vals) && vals[pos] == v {
						if pos > 0 {
							if mid := (vals[pos-1] + v) / 2; !sel[mid] {
								sel[mid] = true
								added = true
							}
						}
						if pos+1 < len(vals) {
							if mid := (v + vals[pos+1]) / 2; !sel[mid] {
								sel[mid] = true
								added = true
							}
						}
					}
				}
			}
		}
		if !added && !truncated {
			break // converged: frontier neighborhoods fully evaluated
		}
	}

	// Assemble the final Results in enumeration order and emit each point,
	// exactly as an exhaustive run over the evaluated subset would have.
	order := make([]int, 0, evalCount)
	for i := range specs {
		if evaluated[i] {
			order = append(order, i)
		}
	}
	res := &Results{
		Study:   s,
		Arrays:  make([]nvsim.Result, 0, len(scratch.Arrays)),
		Metrics: make([]eval.Metrics, 0, len(scratch.Metrics)),
	}
	for _, i := range order {
		rr := rows[i]
		aStart, mStart := len(res.Arrays), len(res.Metrics)
		res.Arrays = append(res.Arrays, scratch.Arrays[rr.a0:rr.a1]...)
		res.Metrics = append(res.Metrics, scratch.Metrics[rr.m0:rr.m1]...)
		skipped := scratch.Skipped[rr.s0:rr.s1:rr.s1]
		res.Skipped = append(res.Skipped, skipped...)
		if emit != nil {
			if err := emit(PointResult{
				Spec:    specs[i],
				Arrays:  res.Arrays[aStart:len(res.Arrays):len(res.Arrays)],
				Metrics: res.Metrics[mStart:len(res.Metrics):len(res.Metrics)],
				Skipped: skipped,
			}); err != nil {
				return nil, err
			}
		}
	}
	if len(scratch.FailedPoints) > 0 {
		res.FailedPoints = append([]FailedPoint(nil), scratch.FailedPoints...)
		sort.Slice(res.FailedPoints, func(a, b int) bool {
			return res.FailedPoints[a].Index < res.FailedPoints[b].Index
		})
	}
	res.Exploration = &Exploration{
		Mode:             ModeAdaptive,
		Budget:           s.Budget,
		Seed:             s.Seed,
		ExhaustivePoints: len(specs),
		EvaluatedPoints:  evalCount,
		PrunedInfeasible: prunedCount,
		PrunedBudget:     len(specs) - evalCount - prunedCount,
		Rounds:           rounds,
		Indices:          order,
	}
	if len(res.Arrays) == 0 {
		return nil, res.noArraysError()
	}
	return res, nil
}
