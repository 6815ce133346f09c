// Package query answers design-space questions from the persistent store
// without running the characterization engine — the read side of
// NVMExplorer-Go. The paper's exploration loop asks questions like "which
// eNVM config wins for my read-dominated workload under this power
// budget?" over *already-computed* sweeps; the store keeps those sweeps
// durable and content-addressed, and this package makes them queryable:
// an in-memory columnar index over every stored study, with axis and
// metric-range filters, top-k ranking by any named metric, and
// frontier-of-union Pareto selection across studies.
//
// The index is built from study manifests (store.StudyRecord): each
// manifest's effective configuration is rebuilt into a core.Study
// (sweep.Rebuild, which verifies its fingerprint), and every grid point is
// fetched from the store by its canonical key (core.Study.PointKey) — the
// same replay path a warm re-run takes, minus the engine entirely. The
// index keeps the points the store hands out (it shares them, never copies
// or writes them) and shreds their values into per-metric float columns,
// so a warm query is a column scan plus a ranking: microseconds and zero
// characterizations. A top-k query keeps its k best rows in a bounded
// heap, so it allocates in proportion to k, not to the store; other shapes
// allocate per matching row.
//
// Refresh relists the store only when something may have changed: when
// the store's manifest generation moved (a study saved in this process),
// when a manifest is incomplete and this process has stored a
// point since, or once the last listing is older than relistAfter (1 s),
// which bounds how long a study written by another process sharing the
// store directory stays invisible to queries.
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
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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

// relistAfter is the longest a Refresh trusts an unchanged store manifest
// generation before listing the store again. It is fixed; it is a variable
// only so tests can shorten the wait.
var relistAfter = time.Second

// entry is one indexed study: its manifest, the re-expanded study (for
// axis declarations and row rendering), the replayed rows, and the
// columnar shred of every named metric.
type entry struct {
	rec   store.StudyRecord
	study *core.Study
	// points are the study's stored points as Store.Get returned them, in
	// replay order. They may be shared with the store's mirror, so nothing
	// here writes them and nothing handed out aliases them. rows addresses
	// each result row inside them.
	points []core.CachedPoint
	rows   []*eval.Metrics

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

	// order holds every loaded study in (name, fingerprint) order, the
	// source order of a query that selects no study, and orderFPs their
	// fingerprints comma-joined. Both are rebuilt when the set changes.
	order    []*entry
	orderFPs string

	// synced and putsSynced are the store's manifest and point
	// generations the last listing started at, and listed when it started.
	synced, putsSynced int64
	listed             time.Time

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
		rows += len(e.rows)
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
// engine — and shredded into columns) and previously incomplete studies
// are retried. Only those manifests are read: a listing names the
// fingerprints, and an indexed study is never read again. It lists the
// store only when the store's manifest generation moved since the last
// listing, a manifest is incomplete and the store's point generation
// moved, or the last listing is older than relistAfter; otherwise it
// returns at once. So a study saved by this process is visible to the
// very next Refresh, as is an incomplete one whose missing points this
// process stores, and one saved by another process sharing the store
// within relistAfter. An incomplete manifest that nothing completes costs
// one retry per relistAfter, not one per Refresh. It returns the
// generation after synchronization.
func (ix *Index) Refresh() int64 {
	sgen, pgen, now := ix.st.StudyGeneration(), ix.st.PointGeneration(), time.Now()
	ix.mu.RLock()
	if sgen == ix.synced && (len(ix.incomplete) == 0 || pgen == ix.putsSynced) &&
		now.Sub(ix.listed) < relistAfter {
		gen := ix.gen
		ix.mu.RUnlock()
		return gen
	}
	ix.mu.RUnlock()
	return ix.relist(sgen, pgen, now)
}

// relist lists the store and loads every manifest the index lacks; sgen,
// pgen and now are the store generations and time read before listing.
func (ix *Index) relist(sgen, pgen int64, now time.Time) int64 {
	fps := ix.st.StudyFingerprints()
	ix.mu.Lock()
	defer ix.mu.Unlock()
	changed := false
	for _, fp := range fps {
		if _, ok := ix.entries[fp]; ok {
			continue
		}
		rec, ok := ix.st.LoadStudy(fp)
		if !ok {
			continue
		}
		e, err := ix.load(rec)
		if err != nil {
			if !ix.incomplete[fp] {
				ix.incomplete[fp] = true
				changed = true
			}
			continue
		}
		ix.entries[fp] = e
		delete(ix.incomplete, fp)
		changed = true
	}
	if changed {
		ix.gen++
		ix.reorder()
	}
	// The store generations were read before listing, so this listing
	// holds every manifest and point up to them. A concurrent Refresh that
	// listed later may already have recorded a newer sync; keep that one.
	if now.After(ix.listed) {
		ix.synced, ix.putsSynced, ix.listed = sgen, pgen, now
	}
	return ix.gen
}

// reorder rebuilds the (name, fingerprint) source order. Callers hold
// ix.mu for writing.
func (ix *Index) reorder() {
	ix.order = ix.order[:0]
	for _, e := range ix.entries {
		ix.order = append(ix.order, e)
	}
	slices.SortFunc(ix.order, func(a, b *entry) int {
		if c := strings.Compare(a.rec.Name, b.rec.Name); c != 0 {
			return c
		}
		return strings.Compare(a.rec.Fingerprint, b.rec.Fingerprint)
	})
	fps := make([]string, len(ix.order))
	for i, e := range ix.order {
		fps[i] = e.rec.Fingerprint
	}
	ix.orderFPs = strings.Join(fps, ",")
}

// load replays one manifest out of the store. Zero engine work by
// construction: the config is expanded with no cache attached and never
// run — the study object exists only to enumerate point keys and carry
// axis declarations into rendering.
func (ix *Index) load(rec store.StudyRecord) (*entry, error) {
	x, err := sweep.Rebuild(rec.Config, rec.Fingerprint, nil)
	if err != nil {
		return nil, fmt.Errorf("manifest %s: %w", rec.Fingerprint, err)
	}
	specs, err := x.Study.Space()
	if err != nil {
		return nil, err
	}
	// An adaptive manifest stores only the evaluated subset of the grid;
	// replay exactly the recorded indices. Exhaustive manifests (Exploration
	// nil) replay the full space.
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
	points := make([]core.CachedPoint, 0, len(indices))
	for n, i := range indices {
		cp, ok := ix.st.Get(x.Study.PointKey(specs[i]))
		if !ok {
			return nil, fmt.Errorf("%w: %s missing point %d/%d", ErrIncomplete, rec.Fingerprint, n, len(indices))
		}
		points = append(points, cp)
	}
	return newEntry(rec, x.Study, points), nil
}

// newEntry indexes a study's replayed points: it addresses every row in
// place and builds the columnar views, one float column per named metric
// and one string/int column per filterable axis coordinate.
func newEntry(rec store.StudyRecord, study *core.Study, points []core.CachedPoint) *entry {
	e := &entry{rec: rec, study: study, points: points}
	n := 0
	for _, cp := range points {
		n += len(cp.Metrics)
	}
	e.rows = make([]*eval.Metrics, 0, n)
	for _, cp := range points {
		for j := range cp.Metrics {
			e.rows = append(e.rows, &cp.Metrics[j])
		}
	}
	names := core.MetricNames()
	e.cols = make(map[string][]float64, len(names))
	for _, name := range names {
		col := make([]float64, len(e.rows))
		for i, m := range e.rows {
			col[i], _ = core.MetricValue(name, m)
		}
		e.cols[name] = col
	}
	e.cells = make([]string, len(e.rows))
	e.techs = make([]string, len(e.rows))
	e.patterns = make([]string, len(e.rows))
	e.targets = make([]string, len(e.rows))
	e.caps = make([]int64, len(e.rows))
	for i, m := range e.rows {
		e.cells[i] = m.Array.Cell.Name
		e.techs[i] = m.Array.Cell.Tech.String()
		e.patterns[i] = m.Pattern.Name
		e.targets[i] = m.Array.Target.String()
		e.caps[i] = m.Array.CapacityBytes
	}
	return e
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
// then fingerprint. Loaded studies are listed from the index; only the
// manifests it does not hold are read from the store.
func (ix *Index) Studies() []StudySummary {
	fps := ix.st.StudyFingerprints()
	out := make([]StudySummary, 0, len(fps))
	for _, fp := range fps {
		ix.mu.RLock()
		e, ok := ix.entries[fp]
		ix.mu.RUnlock()
		if ok {
			out = append(out, StudySummary{Fingerprint: fp, Name: e.rec.Name, Points: e.rec.Points,
				Rows: len(e.rows), Complete: true})
		} else if rec, ok := ix.st.LoadStudy(fp); ok {
			out = append(out, StudySummary{Fingerprint: fp, Name: rec.Name, Points: rec.Points})
		}
	}
	slices.SortFunc(out, func(a, b StudySummary) int {
		if c := strings.Compare(a.Name, b.Name); c != 0 {
			return c
		}
		return strings.Compare(a.Fingerprint, b.Fingerprint)
	})
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
	// Studies lists the source fingerprints, comma-separated, in the order
	// rows were drawn.
	Studies string
	// Rows counts the selected rows.
	Rows int
	// Generation is the index generation the answer was computed at.
	Generation int64
}

// Load returns a stored study's replayed results by fingerprint, exactly
// as the original run produced them (same rows, same order, same axis
// declarations) — the engine-free body behind GET /v1/studies/{fp}. The
// rows are fresh copies, so a caller may modify them. The boolean
// distinguishes "unknown" (false) from known-but-incomplete
// (ErrIncomplete).
func (ix *Index) Load(fingerprint string) (*core.Results, bool, error) {
	ix.mu.RLock()
	e, ok := ix.entries[fingerprint]
	ix.mu.RUnlock()
	if !ok {
		if _, found := ix.st.LoadStudy(fingerprint); !found {
			return nil, false, nil
		}
		// The store holds a study the index lacks (another process may
		// have written it): list now rather than wait for relistAfter.
		ix.relist(ix.st.StudyGeneration(), ix.st.PointGeneration(), time.Now())
		ix.mu.RLock()
		e, ok = ix.entries[fingerprint]
		ix.mu.RUnlock()
		if !ok {
			return nil, true, fmt.Errorf("%w: %s", ErrIncomplete, fingerprint)
		}
	}
	var na, nm, ns int
	for _, cp := range e.points {
		na, nm, ns = na+len(cp.Arrays), nm+len(cp.Metrics), ns+len(cp.Skipped)
	}
	// Grown from nil, so an empty part stays nil as the original run's did.
	res := &core.Results{
		Study:   e.study,
		Arrays:  slices.Grow([]nvsim.Result(nil), na),
		Metrics: slices.Grow([]eval.Metrics(nil), nm),
		Skipped: slices.Grow([]string(nil), ns),
	}
	for _, cp := range e.points {
		res.Arrays = append(res.Arrays, cp.Arrays...)
		res.Metrics = append(res.Metrics, cp.Metrics...)
		res.Skipped = append(res.Skipped, cp.Skipped...)
	}
	if x := e.rec.Exploration; x != nil {
		c := *x
		c.Indices = slices.Clone(x.Indices)
		res.Exploration = &c
	}
	return res, true, nil
}

// sortRow is one selected row: its source entry and row index, with its
// sort key and base-order position hoisted out of the ranking comparator.
type sortRow struct {
	e   *entry
	row int
	key float64
	pos int
}

// compareRows orders two rows for ranking: by key (descending when desc),
// NaN last in either sense, ties in base order — so a sort by compareRows
// is a stable sort of the base order.
func compareRows(a, b sortRow, desc bool) int {
	an, bn := math.IsNaN(a.key), math.IsNaN(b.key)
	switch {
	case an && bn:
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
}

// topK keeps the k best-ranked rows offered so far in a binary heap whose
// root is the worst kept row, so each candidate costs one comparison with
// the root (plus O(log k) when it displaces it) and the whole selection
// allocates only the k-row heap. Rows are offered in base order, so a
// candidate that ties the root ranks after it and is rejected — the heap
// keeps exactly the rows a stable sort followed by a truncation keeps.
type topK struct {
	rows []sortRow
	k    int
	desc bool
}

// worse reports whether row i ranks after row j.
func (h *topK) worse(i, j int) bool { return compareRows(h.rows[i], h.rows[j], h.desc) > 0 }

func (h *topK) offer(r sortRow) {
	if len(h.rows) < h.k {
		h.rows = append(h.rows, r)
		for i := len(h.rows) - 1; i > 0; {
			p := (i - 1) / 2
			if !h.worse(i, p) {
				break
			}
			h.rows[i], h.rows[p] = h.rows[p], h.rows[i]
			i = p
		}
		return
	}
	if compareRows(r, h.rows[0], h.desc) > 0 {
		return
	}
	h.rows[0] = r
	for i, n := 0, len(h.rows); ; {
		w := i
		if l := 2*i + 1; l < n && h.worse(l, w) {
			w = l
		}
		if rt := 2*i + 2; rt < n && h.worse(rt, w) {
			w = rt
		}
		if w == i {
			return
		}
		h.rows[i], h.rows[w] = h.rows[w], h.rows[i]
		i = w
	}
}

// bound is one metric range check resolved against a source's column.
type bound struct {
	col   []float64
	limit float64
	min   bool
}

// scan calls visit for every row of sources that passes req's filters, in
// study-then-row order (the deterministic base order), with the row's sort
// key (0 without a sort). Metric bounds and the sort key are resolved to
// their columns once per source, so the row loop is pure slice indexing.
func scan(sources []*entry, req *Request, visit func(e *entry, row int, key float64)) {
	var bounds []bound
	for _, e := range sources {
		bounds = bounds[:0]
		for name, lo := range req.Min {
			bounds = append(bounds, bound{col: e.cols[name], limit: lo, min: true})
		}
		for name, hi := range req.Max {
			bounds = append(bounds, bound{col: e.cols[name], limit: hi})
		}
		keys := e.cols[req.Sort] // nil without a sort
	rowLoop:
		for i := range e.rows {
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
			var key float64
			if keys != nil {
				key = keys[i]
			}
			visit(e, i, key)
		}
	}
}

// Query answers one request from the warm index. It performs no engine
// work and no store reads — only column scans over loaded entries. Its
// rows are fresh copies, so a caller may modify them.
func (ix *Index) Query(req Request) (*Response, error) {
	if err := validate(req); err != nil {
		return nil, err
	}
	ix.queries.Add(1)
	ix.mu.RLock()
	defer ix.mu.RUnlock()

	sources, fps, err := ix.resolve(req.Studies)
	if err != nil {
		return nil, err
	}

	// Select: every filtered row in base order; or, ranked by a sort key,
	// the k best through the bounded heap, or all of them stably sorted.
	var rows []sortRow
	pos := 0
	if req.Sort != "" && req.Top > 0 {
		total := 0
		for _, e := range sources {
			total += len(e.rows)
		}
		h := topK{rows: make([]sortRow, 0, min(req.Top, total)), k: req.Top, desc: req.Desc}
		scan(sources, &req, func(e *entry, row int, key float64) {
			h.offer(sortRow{e: e, row: row, key: key, pos: pos})
			pos++
		})
		rows = h.rows
	} else {
		scan(sources, &req, func(e *entry, row int, key float64) {
			rows = append(rows, sortRow{e: e, row: row, key: key, pos: pos})
			pos++
		})
	}
	if req.Sort != "" {
		slices.SortFunc(rows, func(a, b sortRow) int { return compareRows(a, b, req.Desc) })
	}

	res := &core.Results{Study: unionStudy(sources, req.Frontier)}
	res.Metrics = make([]eval.Metrics, 0, len(rows))
	for _, r := range rows {
		m := r.e.rows[r.row]
		res.Metrics = append(res.Metrics, *m)
		// Arrays back the dashboard's characterized-arrays table: keep each
		// distinct array once, in first-appearance order.
		if n := len(res.Arrays); n == 0 || res.Arrays[n-1] != m.Array {
			res.Arrays = append(res.Arrays, m.Array)
		}
	}
	if len(req.Frontier) > 0 {
		if _, err := res.SelectPareto(req.Frontier...); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}
	return &Response{Results: res, Studies: fps, Rows: len(rows), Generation: ix.gen}, nil
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

// resolve maps study selectors to loaded entries, returning them with
// their fingerprints comma-joined. Callers hold ix.mu.
func (ix *Index) resolve(selectors []string) ([]*entry, string, error) {
	if len(selectors) == 0 {
		return ix.order, ix.orderFPs, nil
	}
	out := make([]*entry, 0, len(selectors))
	fps := make([]string, 0, len(selectors))
	for _, sel := range selectors {
		if e, ok := ix.entries[sel]; ok {
			out = append(out, e)
			fps = append(fps, e.rec.Fingerprint)
			continue
		}
		// order is sorted by name, so a name's studies are adjacent.
		i, _ := slices.BinarySearchFunc(ix.order, sel, func(e *entry, name string) int {
			return strings.Compare(e.rec.Name, name)
		})
		matches := 0
		for j := i; j < len(ix.order) && ix.order[j].rec.Name == sel; j++ {
			matches++
		}
		switch {
		case matches == 1:
			out = append(out, ix.order[i])
			fps = append(fps, ix.order[i].rec.Fingerprint)
		case matches > 1:
			return nil, "", fmt.Errorf("%w: %q matches %d studies (select by fingerprint)",
				ErrAmbiguousStudy, sel, matches)
		case ix.incomplete[sel]:
			return nil, "", fmt.Errorf("%w: %s", ErrIncomplete, sel)
		default:
			return nil, "", fmt.Errorf("%w: %q", ErrUnknownStudy, sel)
		}
	}
	return out, strings.Join(fps, ","), nil
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
