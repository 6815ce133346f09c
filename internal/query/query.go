// Package query answers design-space questions from the persistent store
// without running the characterization engine — the read side of
// NVMExplorer-Go. The paper's exploration loop asks questions like "which
// eNVM config wins for my read-dominated workload under this power
// budget?" over *already-computed* sweeps; PRs 4/6 made those sweeps
// durable and content-addressed, and this package makes them queryable:
// an in-memory columnar index over every stored study, with axis and
// metric-range filters, top-k ranking by any named metric, and
// frontier-of-union Pareto selection across studies.
//
// The index is built from study manifests (store.StudyRecord): each
// manifest's effective configuration is re-expanded into a core.Study,
// its fingerprint verified, and every grid point fetched from the store
// by its canonical key (core.Study.PointKey) — the same replay path a
// warm re-run takes, minus the engine entirely. Point values are then
// shredded into per-metric float columns, so a warm query is a column
// scan plus a sort: microseconds, zero characterizations, zero
// allocations proportional to the store (only to the result).
//
// Results come back as a *core.Results over a synthetic "query" study, so
// every existing writer (JSON/NDJSON/CSV/HTML dashboard) renders them
// unchanged — `GET /v1/query` and `nvmexplorer query` share this package
// and the sweep writers end to end.
package query

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/nvsim"
	"repro/internal/store"
	"repro/internal/sweep"
)

// Typed request errors, so HTTP and CLI surfaces can map them to the right
// failure shape (404 vs 400) without string matching.
var (
	// ErrUnknownStudy reports a study selector matching no stored study.
	ErrUnknownStudy = errors.New("query: unknown study")
	// ErrAmbiguousStudy reports a name selector matching several stored
	// studies (select by fingerprint instead).
	ErrAmbiguousStudy = errors.New("query: ambiguous study name")
	// ErrBadRequest reports an invalid request shape: unknown metric names,
	// top-k without a sort metric, and similar.
	ErrBadRequest = errors.New("query: bad request")
	// ErrIncomplete reports a study whose manifest exists but whose points
	// are not all in the store (an interrupted run, or a shared directory
	// missing files).
	ErrIncomplete = errors.New("query: study incomplete in store")
)

// entry is one indexed study: its manifest, the re-expanded study (for
// axis declarations and row rendering), the replayed rows, and the
// columnar shred of every named metric.
type entry struct {
	rec     store.StudyRecord
	study   *core.Study
	arrays  []nvsim.Result
	metrics []eval.Metrics
	skipped []string

	// Columnar views over metrics, built once at load: one float column
	// per named metric plus the axis coordinate columns filters scan.
	cols     map[string][]float64
	cells    []string
	techs    []string
	patterns []string
	targets  []string
	caps     []int64
}

// Index is the read-optimized view over one store's completed studies. It
// is safe for concurrent use; Refresh and Query may interleave freely.
type Index struct {
	st *store.Store

	mu         sync.RWMutex
	entries    map[string]*entry // fingerprint → loaded study
	incomplete map[string]bool   // fingerprints seen but not fully stored
	gen        int64             // bumped whenever the loaded set changes

	queries atomic.Int64
}

// New builds an empty index over a store. Call Refresh to load it.
func New(st *store.Store) *Index {
	return &Index{st: st, entries: map[string]*entry{}, incomplete: map[string]bool{}}
}

// Generation identifies the index's current content; it changes exactly
// when a Refresh changes the loaded study set, so responses cached against
// a generation (ETags) stay valid until the index actually moves.
func (ix *Index) Generation() int64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.gen
}

// Stats is the index's telemetry, served on /v1/stats.
type Stats struct {
	// Studies counts fully loaded (queryable) studies.
	Studies int `json:"studies"`
	// Incomplete counts manifests whose points are not all stored.
	Incomplete int `json:"incomplete"`
	// Rows counts indexed result rows across all loaded studies.
	Rows int `json:"rows"`
	// Generation is the index content version (see Generation).
	Generation int64 `json:"generation"`
	// Queries counts Query calls since the index was built.
	Queries int64 `json:"queries"`
}

// Stats returns the current counters.
func (ix *Index) Stats() Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	rows := 0
	for _, e := range ix.entries {
		rows += len(e.metrics)
	}
	return Stats{
		Studies:    len(ix.entries),
		Incomplete: len(ix.incomplete),
		Rows:       rows,
		Generation: ix.gen,
		Queries:    ix.queries.Load(),
	}
}

// Refresh synchronizes the index with the store's manifests: newly stored
// studies are loaded (their points replayed from the store — never the
// engine — and shredded into columns), previously incomplete studies are
// retried, and studies whose manifests disappeared are dropped. It returns
// the generation after synchronization.
func (ix *Index) Refresh() int64 {
	recs := ix.st.ListStudies()
	ix.mu.Lock()
	defer ix.mu.Unlock()

	changed := false
	seen := make(map[string]bool, len(recs))
	for _, rec := range recs {
		seen[rec.Fingerprint] = true
		if _, ok := ix.entries[rec.Fingerprint]; ok {
			continue
		}
		e, err := ix.load(rec)
		if err != nil {
			if !ix.incomplete[rec.Fingerprint] {
				ix.incomplete[rec.Fingerprint] = true
				changed = true
			}
			continue
		}
		ix.entries[rec.Fingerprint] = e
		if ix.incomplete[rec.Fingerprint] {
			delete(ix.incomplete, rec.Fingerprint)
		}
		changed = true
	}
	for fp := range ix.entries {
		if !seen[fp] {
			delete(ix.entries, fp)
			changed = true
		}
	}
	for fp := range ix.incomplete {
		if !seen[fp] {
			delete(ix.incomplete, fp)
			changed = true
		}
	}
	if changed {
		ix.gen++
	}
	return ix.gen
}

// load replays one manifest out of the store. Zero engine work by
// construction: the config is expanded with no cache attached and never
// run — the study object exists only to enumerate point keys and carry
// axis declarations into rendering.
func (ix *Index) load(rec store.StudyRecord) (*entry, error) {
	x, err := sweep.Expand(rec.Config, sweep.Overrides{}, nil)
	if err != nil {
		return nil, fmt.Errorf("manifest %s: %w", rec.Fingerprint, err)
	}
	if x.Fingerprint != rec.Fingerprint {
		return nil, fmt.Errorf("manifest %s: config re-expands to fingerprint %s", rec.Fingerprint, x.Fingerprint)
	}
	specs, err := x.Study.Space()
	if err != nil {
		return nil, err
	}
	// An adaptive manifest stores only the evaluated subset of the grid;
	// replay exactly the recorded indices. Exhaustive manifests (Exploration
	// nil) replay the full space, as before.
	indices := make([]int, 0, len(specs))
	if xp := rec.Exploration; xp != nil && xp.Indices != nil {
		for _, idx := range xp.Indices {
			if idx < 0 || idx >= len(specs) {
				return nil, fmt.Errorf("manifest %s: evaluated index %d outside the %d-point grid",
					rec.Fingerprint, idx, len(specs))
			}
			indices = append(indices, idx)
		}
	} else {
		for i := range specs {
			indices = append(indices, i)
		}
	}
	e := &entry{rec: rec, study: x.Study}
	for n, i := range indices {
		cp, ok := ix.st.Get(x.Study.PointKey(specs[i]))
		if !ok {
			return nil, fmt.Errorf("%w: %s missing point %d/%d", ErrIncomplete, rec.Fingerprint, n, len(indices))
		}
		e.arrays = append(e.arrays, cp.Arrays...)
		e.metrics = append(e.metrics, cp.Metrics...)
		e.skipped = append(e.skipped, cp.Skipped...)
	}
	e.shred()
	return e, nil
}

// shred builds the entry's columnar views: one float column per named
// metric, one string/int column per filterable axis coordinate.
func (e *entry) shred() {
	names := core.MetricNames()
	e.cols = make(map[string][]float64, len(names))
	for _, name := range names {
		col := make([]float64, len(e.metrics))
		for i := range e.metrics {
			col[i], _ = core.MetricValue(name, &e.metrics[i])
		}
		e.cols[name] = col
	}
	e.cells = make([]string, len(e.metrics))
	e.techs = make([]string, len(e.metrics))
	e.patterns = make([]string, len(e.metrics))
	e.targets = make([]string, len(e.metrics))
	e.caps = make([]int64, len(e.metrics))
	for i := range e.metrics {
		m := &e.metrics[i]
		e.cells[i] = m.Array.Cell.Name
		e.techs[i] = m.Array.Cell.Tech.String()
		e.patterns[i] = m.Pattern.Name
		e.targets[i] = m.Array.Target.String()
		e.caps[i] = m.Array.CapacityBytes
	}
}

// StudySummary is one listed study, complete or not.
type StudySummary struct {
	Fingerprint string `json:"fingerprint"`
	Name        string `json:"name"`
	Points      int    `json:"points"`
	// Rows counts indexed result rows (0 while incomplete).
	Rows int `json:"rows"`
	// Complete reports whether every grid point is in the store and the
	// study is queryable.
	Complete bool `json:"complete"`
}

// Studies lists every known study — loaded and incomplete — sorted by name
// then fingerprint.
func (ix *Index) Studies() []StudySummary {
	recs := ix.st.ListStudies()
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]StudySummary, 0, len(recs))
	for _, rec := range recs {
		sum := StudySummary{Fingerprint: rec.Fingerprint, Name: rec.Name, Points: rec.Points}
		if e, ok := ix.entries[rec.Fingerprint]; ok {
			sum.Rows = len(e.metrics)
			sum.Complete = true
		}
		out = append(out, sum)
	}
	return out
}

// Request is one query over the index. The zero value selects every row of
// every complete study.
type Request struct {
	// Studies selects the source studies, each entry a fingerprint or a
	// study name (a name must match exactly one stored study). Empty
	// selects every complete study.
	Studies []string

	// Axis filters; empty/zero values match everything.
	Cell       string
	Technology string
	Pattern    string
	Target     string
	Capacity   int64

	// Min and Max bound named metrics (inclusive); rows whose metric is
	// NaN never satisfy a bound.
	Min map[string]float64
	Max map[string]float64

	// Sort orders rows by a named metric, ascending by default (NaN last
	// either way); Desc reverses. Rows otherwise keep study-then-row order.
	Sort string
	Desc bool

	// Top keeps only the first k rows after sorting; it requires Sort.
	Top int

	// Frontier selects the Pareto frontier of the union of the filtered
	// rows on the named metrics (core.SelectPareto semantics), marking
	// surviving rows in every output format.
	Frontier []string
}

// Response is one answered query.
type Response struct {
	// Results holds the selected rows as a synthetic study, renderable by
	// every sweep writer.
	Results *core.Results
	// Studies lists the source fingerprints, in the order rows were drawn.
	Studies []string
	// Rows counts the selected rows.
	Rows int
	// Generation is the index generation the answer was computed at.
	Generation int64
}

// Load returns a stored study's replayed results by fingerprint, exactly
// as the original run produced them (same rows, same order, same axis
// declarations) — the engine-free body behind GET /v1/studies/{fp}. The
// boolean distinguishes "unknown" (false) from known-but-incomplete
// (ErrIncomplete).
func (ix *Index) Load(fingerprint string) (*core.Results, bool, error) {
	ix.mu.RLock()
	e, ok := ix.entries[fingerprint]
	ix.mu.RUnlock()
	if !ok {
		if _, found := ix.st.LoadStudy(fingerprint); !found {
			return nil, false, nil
		}
		ix.Refresh()
		ix.mu.RLock()
		e, ok = ix.entries[fingerprint]
		ix.mu.RUnlock()
		if !ok {
			return nil, true, fmt.Errorf("%w: %s", ErrIncomplete, fingerprint)
		}
	}
	res := &core.Results{
		Study:       e.study,
		Arrays:      e.arrays,
		Metrics:     e.metrics,
		Skipped:     e.skipped,
		Exploration: e.rec.Exploration,
	}
	return res, true, nil
}

// rowRef addresses one selected row: its source entry and row index.
type rowRef struct {
	e   *entry
	row int
}

// sortRow decorates one selected row with its sort key and base-order
// position, so ranking needs no column lookups inside the comparator.
type sortRow struct {
	ref rowRef
	key float64
	pos int
}

// bound is one metric range check resolved against a source's column.
type bound struct {
	col   []float64
	limit float64
	min   bool
}

// Query answers one request from the warm index. It performs no engine
// work and no store reads — only column scans over loaded entries.
func (ix *Index) Query(req Request) (*Response, error) {
	if err := validate(req); err != nil {
		return nil, err
	}
	ix.queries.Add(1)
	ix.mu.RLock()
	defer ix.mu.RUnlock()

	sources, err := ix.resolve(req.Studies)
	if err != nil {
		return nil, err
	}

	// Filter: scan each source's columns, collecting surviving row refs in
	// study-then-row order (the deterministic base order). Metric bounds
	// are resolved to their columns once per source, so the row loop is
	// pure slice indexing.
	total := 0
	for _, e := range sources {
		total += len(e.metrics)
	}
	rows := make([]rowRef, 0, total)
	for _, e := range sources {
		var bounds []bound
		for name, lo := range req.Min {
			bounds = append(bounds, bound{col: e.cols[name], limit: lo, min: true})
		}
		for name, hi := range req.Max {
			bounds = append(bounds, bound{col: e.cols[name], limit: hi})
		}
	rowLoop:
		for i := range e.metrics {
			if req.Cell != "" && e.cells[i] != req.Cell {
				continue
			}
			if req.Technology != "" && e.techs[i] != req.Technology {
				continue
			}
			if req.Pattern != "" && e.patterns[i] != req.Pattern {
				continue
			}
			if req.Target != "" && e.targets[i] != req.Target {
				continue
			}
			if req.Capacity != 0 && e.caps[i] != req.Capacity {
				continue
			}
			for _, b := range bounds {
				// NaN never satisfies a bound (a power filter should not
				// admit a row with unknown power); both comparisons below
				// are false for NaN, so NaN rows fall through to the skip.
				v := b.col[i]
				if b.min {
					if !(v >= b.limit) {
						continue rowLoop
					}
				} else if !(v <= b.limit) {
					continue rowLoop
				}
			}
			rows = append(rows, rowRef{e: e, row: i})
		}
	}

	// Sort: stable over the base order (explicit position tiebreak), NaN
	// ranked last in either sense. Keys are hoisted out of the comparator
	// and the sort is non-reflective — this is the warm path's hot loop.
	if req.Sort != "" {
		keyed := make([]sortRow, len(rows))
		for i, r := range rows {
			keyed[i] = sortRow{ref: r, key: r.e.cols[req.Sort][r.row], pos: i}
		}
		desc := req.Desc
		slices.SortFunc(keyed, func(a, b sortRow) int {
			an, bn := math.IsNaN(a.key), math.IsNaN(b.key)
			switch {
			case an && bn:
				return a.pos - b.pos
			case an:
				return 1
			case bn:
				return -1
			case a.key != b.key:
				if (a.key < b.key) != desc {
					return -1
				}
				return 1
			}
			return a.pos - b.pos
		})
		for i := range keyed {
			rows[i] = keyed[i].ref
		}
	}
	if req.Top > 0 && len(rows) > req.Top {
		rows = rows[:req.Top]
	}

	res := &core.Results{Study: unionStudy(sources, req.Frontier)}
	res.Metrics = make([]eval.Metrics, 0, len(rows))
	for _, r := range rows {
		res.Metrics = append(res.Metrics, r.e.metrics[r.row])
		// Arrays back the dashboard's characterized-arrays table: keep each
		// distinct array once, in first-appearance order.
		a := r.e.metrics[r.row].Array
		if n := len(res.Arrays); n == 0 || !reflect.DeepEqual(res.Arrays[n-1], a) {
			res.Arrays = append(res.Arrays, a)
		}
	}
	if len(req.Frontier) > 0 {
		if _, err := res.SelectPareto(req.Frontier...); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}

	out := &Response{Results: res, Rows: len(rows), Generation: ix.gen}
	for _, e := range sources {
		out.Studies = append(out.Studies, e.rec.Fingerprint)
	}
	return out, nil
}

// validate rejects malformed requests before any work happens.
func validate(req Request) error {
	if req.Top < 0 {
		return fmt.Errorf("%w: negative top %d", ErrBadRequest, req.Top)
	}
	if req.Top > 0 && req.Sort == "" {
		return fmt.Errorf("%w: top requires a sort metric", ErrBadRequest)
	}
	if req.Sort != "" {
		if _, ok := core.MetricValue(req.Sort, &eval.Metrics{}); !ok {
			return fmt.Errorf("%w: unknown sort metric %q (want one of %v)",
				ErrBadRequest, req.Sort, core.MetricNames())
		}
	}
	for _, bounds := range []map[string]float64{req.Min, req.Max} {
		for name := range bounds {
			if _, ok := core.MetricValue(name, &eval.Metrics{}); !ok {
				return fmt.Errorf("%w: unknown metric %q in range filter (want one of %v)",
					ErrBadRequest, name, core.MetricNames())
			}
		}
	}
	if len(req.Frontier) > 0 {
		if err := core.ValidateParetoMetrics(req.Frontier); err != nil {
			return fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}
	return nil
}

// resolve maps study selectors to loaded entries. Callers hold ix.mu.
func (ix *Index) resolve(selectors []string) ([]*entry, error) {
	if len(selectors) == 0 {
		// Every complete study, in deterministic (name, fingerprint) order.
		all := make([]*entry, 0, len(ix.entries))
		for _, e := range ix.entries {
			all = append(all, e)
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].rec.Name != all[j].rec.Name {
				return all[i].rec.Name < all[j].rec.Name
			}
			return all[i].rec.Fingerprint < all[j].rec.Fingerprint
		})
		return all, nil
	}
	out := make([]*entry, 0, len(selectors))
	for _, sel := range selectors {
		if e, ok := ix.entries[sel]; ok {
			out = append(out, e)
			continue
		}
		var byName *entry
		matches := 0
		for _, e := range ix.entries {
			if e.rec.Name == sel {
				byName = e
				matches++
			}
		}
		switch {
		case matches == 1:
			out = append(out, byName)
		case matches > 1:
			return nil, fmt.Errorf("%w: %q matches %d studies (select by fingerprint)",
				ErrAmbiguousStudy, sel, matches)
		case ix.incomplete[sel]:
			return nil, fmt.Errorf("%w: %s", ErrIncomplete, sel)
		default:
			return nil, fmt.Errorf("%w: %q", ErrUnknownStudy, sel)
		}
	}
	return out, nil
}

// unionStudy builds the synthetic study a query result renders under: axis
// columns appear when any source study declares the axis (the union), so
// mixed-source rows always have a consistent column set, and the requested
// frontier metrics become the study's Pareto declaration.
func unionStudy(sources []*entry, frontier []string) *core.Study {
	s := core.NewStudy("query")
	s.Pareto = frontier
	for _, e := range sources {
		if e.study.Declares(core.AxisWordBits) {
			s.WordBitsAxis = []int{0}
		}
		if e.study.Declares(core.AxisWriteBuffer) {
			s.WriteBuffers = []*eval.WriteBufferConfig{nil}
		}
		if e.study.Declares(core.AxisFault) {
			s.Faults = []*eval.FaultConfig{nil}
		}
		if e.study.Options.Fault != nil && s.Options.Fault == nil {
			s.Options.Fault = e.study.Options.Fault
		}
	}
	return s
}
