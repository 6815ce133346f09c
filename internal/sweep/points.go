package sweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/eval"
)

// DesignPoint is one evaluated (array, traffic) pair flattened into the
// row shape the per-technology CSVs use — the unit of the study service's
// JSON and NDJSON responses. Field order matches the CSV column order.
type DesignPoint struct {
	Cell          string `json:"cell"`
	Technology    string `json:"technology"`
	BitsPerCell   int    `json:"bits_per_cell"`
	CapacityBytes int64  `json:"capacity_bytes"`
	OptTarget     string `json:"opt_target"`
	Pattern       string `json:"pattern"`

	ReadLatencyNS   Float `json:"read_latency_ns"`
	WriteLatencyNS  Float `json:"write_latency_ns"`
	ReadEnergyPJ    Float `json:"read_energy_pj"`
	WriteEnergyPJ   Float `json:"write_energy_pj"`
	LeakagePowerMW  Float `json:"leakage_power_mw"`
	AreaMM2         Float `json:"area_mm2"`
	AreaEfficiency  Float `json:"area_efficiency"`
	DensityMbPerMM2 Float `json:"density_mb_per_mm2"`

	TotalPowerMW   Float `json:"total_power_mw"`
	DynamicPowerMW Float `json:"dynamic_power_mw"`
	MemTimePerSec  Float `json:"mem_time_per_sec"`
	TaskLatencyS   Float `json:"task_latency_s"`
	MeetsTaskRate  bool  `json:"meets_task_rate"`
	LifetimeYears  Float `json:"lifetime_years"`

	// Axis coordinates beyond the legacy (cell, bits, capacity, target,
	// pattern) set. word_bits and write_buffer appear only when the study
	// declares the matching axis; the fault block appears whenever the
	// point was evaluated under a fault mode, with all of its subfields
	// always present. Legacy configurations keep their exact historical
	// encoding.
	WordBits    int         `json:"word_bits,omitempty"`
	WriteBuffer string      `json:"write_buffer,omitempty"`
	Fault       *FaultPoint `json:"fault,omitempty"`

	// Pareto marks rows on the selected frontier; emitted only in the
	// buffered JSON body (NDJSON reports the frontier as a trailer).
	Pareto bool `json:"pareto,omitempty"`
}

// FaultPoint is the fault view of one row: the mode and per-point seed the
// point was evaluated under, plus the modeled error rates. It is attached
// whole or not at all, so every fault-evaluated row has the same shape.
type FaultPoint struct {
	Mode         string `json:"mode"`
	Seed         int64  `json:"seed"`
	RawBER       Float  `json:"raw_ber"`
	EffectiveBER Float  `json:"effective_ber"`
}

// Float marshals like float64 but encodes non-finite values (an
// endurance-unlimited lifetime is +Inf) as null, which plain float64
// rejects outright.
type Float float64

// MarshalJSON implements json.Marshaler with the row appenders' float
// encoding (appendFloatField).
func (f Float) MarshalJSON() ([]byte, error) {
	return appendFloatField(make([]byte, 0, 24), f), nil
}

// UnmarshalJSON implements json.Unmarshaler, mapping null back to +Inf.
func (f *Float) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*f = Float(math.Inf(1))
		return nil
	}
	var v float64
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	*f = Float(v)
	return nil
}

// Point flattens one evaluation into its legacy row form, with no
// axis-dependent columns. Equivalent to PointOf(m, nil).
func Point(m eval.Metrics) DesignPoint { return PointOf(m, nil) }

// PointOf flattens one evaluation into its row form for a study: axis
// columns (word bits, write buffer) appear when the study declares the
// axis, and fault columns whenever the point was evaluated under a fault
// mode. A nil study emits the legacy column set only.
func PointOf(m eval.Metrics, s *core.Study) DesignPoint {
	p := basePoint(&m)
	if s != nil {
		if s.Declares(core.AxisWordBits) {
			p.WordBits = m.Array.WordBits
		}
		if s.Declares(core.AxisWriteBuffer) {
			p.WriteBuffer = m.WriteBuffer.Label()
		}
	}
	if f := m.Fault; f != nil {
		p.Fault = &FaultPoint{
			Mode:         f.Mode.String(),
			Seed:         f.Seed,
			RawBER:       Float(f.RawBER),
			EffectiveBER: Float(f.EffectiveBER),
		}
	}
	return p
}

func basePoint(m *eval.Metrics) DesignPoint {
	a := &m.Array
	return DesignPoint{
		Cell:            a.Cell.Name,
		Technology:      a.Cell.Tech.String(),
		BitsPerCell:     a.Cell.BitsPerCell,
		CapacityBytes:   a.CapacityBytes,
		OptTarget:       a.Target.String(),
		Pattern:         m.Pattern.Name,
		ReadLatencyNS:   Float(a.ReadLatencyNS),
		WriteLatencyNS:  Float(a.WriteLatencyNS),
		ReadEnergyPJ:    Float(a.ReadEnergyPJ),
		WriteEnergyPJ:   Float(a.WriteEnergyPJ),
		LeakagePowerMW:  Float(a.LeakagePowerMW),
		AreaMM2:         Float(a.AreaMM2),
		AreaEfficiency:  Float(a.AreaEfficiency),
		DensityMbPerMM2: Float(a.DensityMbPerMM2()),
		TotalPowerMW:    Float(m.TotalPowerMW),
		DynamicPowerMW:  Float(m.DynamicPowerMW),
		MemTimePerSec:   Float(m.MemoryTimePerSec),
		TaskLatencyS:    Float(m.TaskLatencyS),
		MeetsTaskRate:   m.MeetsTaskRate,
		LifetimeYears:   Float(m.LifetimeYears),
	}
}

// Points flattens a completed study into rows, in Results order.
func Points(res *core.Results) []DesignPoint {
	out := make([]DesignPoint, 0, len(res.Metrics))
	for _, m := range res.Metrics {
		out = append(out, PointOf(m, res.Study))
	}
	return out
}

// Frontier is the Pareto-selection block of a study body: the metrics it
// optimized and the row indices (into the points array / NDJSON row order)
// that survived.
type Frontier struct {
	Metrics []string `json:"metrics"`
	Points  []int    `json:"points"`
}

// StudyResult is the JSON body of a completed study — what
// `nvmexplorer run -format json` prints and what the study service
// returns from POST /v1/studies.
type StudyResult struct {
	Name    string        `json:"name"`
	Points  []DesignPoint `json:"points"`
	Skipped []string      `json:"skipped,omitempty"`
	// FailedPoints lists grid points lost to isolated faults (a panicking
	// characterization or evaluation); absent on healthy runs, so existing
	// output stays byte-identical.
	FailedPoints []core.FailedPoint `json:"failed_points,omitempty"`
	Frontier     *Frontier          `json:"frontier,omitempty"`
	// Exploration summarizes an adaptive run's design-space coverage
	// (points evaluated vs. the exhaustive grid, rounds, pruned counts);
	// absent on exhaustive runs, so existing output stays byte-identical.
	// Its fields are pure functions of (config, seed, budget) — run
	// telemetry such as cache warmth never appears in the body.
	Exploration *core.Exploration `json:"exploration,omitempty"`
}

// Result converts a completed study into its JSON body form. When the
// study declares a Pareto selection, call res.EnsureFrontier first (the
// writers do); frontier rows are flagged and the frontier block attached.
// WriteJSON renders this value's indented encoding without building it;
// Result is the reference form that tests decode into and compare with.
func Result(res *core.Results) StudyResult {
	out := StudyResult{Name: res.Study.Name, Points: Points(res), Skipped: res.Skipped,
		FailedPoints: res.FailedPoints, Exploration: res.Exploration}
	if len(res.Study.Pareto) > 0 && res.Frontier != nil {
		for _, i := range res.Frontier {
			out.Points[i].Pareto = true
		}
		out.Frontier = &Frontier{Metrics: res.Study.Pareto, Points: res.Frontier}
	}
	return out
}

// jsonChunk is the buffer size at which the buffered study writers
// (WriteJSON and the CSV writers) hand rendered bytes to their writer.
const jsonChunk = 32 << 10

// frontierSet is a bitmap over row indices marking the rows on res's
// frontier; nil when the frontier is empty.
func frontierSet(res *core.Results) []uint64 {
	if len(res.Frontier) == 0 {
		return nil
	}
	set := make([]uint64, (len(res.Metrics)+63)/64)
	for _, i := range res.Frontier {
		set[i/64] |= 1 << (i % 64)
	}
	return set
}

func inSet(set []uint64, i int) bool {
	return set != nil && set[i/64]&(1<<(i%64)) != 0
}

// WriteJSON writes the study's JSON body (indented, trailing newline) to w:
// exactly the bytes encoding/json's Encoder with SetIndent("", "  ")
// produces for Result(res). Rows render in one pass through the same
// appenders as the NDJSON stream, straight from res.Metrics into a reused
// scratch row (with its float-field memo) and a buffer flushed to w about
// every 32 KB; only the rare
// trailing blocks (skipped, failed points, frontier, exploration) go through
// encoding/json. The encoding is deterministic, so any two runs of the same
// configuration produce byte-identical output regardless of worker count or
// caching.
func WriteJSON(w io.Writer, res *core.Results) error {
	if err := res.EnsureFrontier(); err != nil {
		return err
	}
	withFrontier := len(res.Study.Pareto) > 0 && res.Frontier != nil
	var onFrontier []uint64
	if withFrontier {
		onFrontier = frontierSet(res)
	}

	b := make([]byte, 0, jsonChunk+2048)
	b = append(b, "{\n  \"name\": "...)
	b = appendJSONString(b, res.Study.Name)
	b = append(b, ",\n  \"points\": ["...)
	var enc RowEncoder
	for i := range res.Metrics {
		enc.fill(&res.Metrics[i], res.Study)
		enc.dp.Pareto = inSet(onFrontier, i)
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    "...)
		b = enc.appendJSON(b, &indentedRow)
		if len(b) >= jsonChunk {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	if len(res.Metrics) > 0 {
		b = append(b, "\n  "...)
	}
	b = append(b, ']')

	var err error
	if len(res.Skipped) > 0 {
		b, err = appendMember(b, "skipped", res.Skipped)
	}
	if err == nil && len(res.FailedPoints) > 0 {
		b, err = appendMember(b, "failed_points", res.FailedPoints)
	}
	if err == nil && withFrontier {
		b, err = appendMember(b, "frontier", Frontier{Metrics: res.Study.Pareto, Points: res.Frontier})
	}
	if err == nil && res.Exploration != nil {
		b, err = appendMember(b, "exploration", res.Exploration)
	}
	if err != nil {
		return err
	}
	b = append(b, "\n}\n"...)
	_, err = w.Write(b)
	return err
}

// appendMember appends one trailing member of the top-level study object,
// indented by encoding/json as it would be at that depth.
func appendMember(b []byte, name string, v any) ([]byte, error) {
	js, err := json.MarshalIndent(v, "  ", "  ")
	if err != nil {
		return b, err
	}
	b = append(b, ",\n  \""...)
	b = append(b, name...)
	b = append(b, "\": "...)
	return append(b, js...), nil
}

// ndjsonTrailer is the final NDJSON line of a Pareto-selected study. Rows
// stream before the full result set — and thus the frontier — is known, so
// per-row pareto flags are impossible; the frontier arrives as a trailer
// instead, in both the batch writer and the study service's live stream.
type ndjsonTrailer struct {
	Frontier Frontier `json:"frontier"`
}

// WriteNDJSON writes one DesignPoint JSON object per line to w, in Results
// order — the batch form of the study service's streamed NDJSON response —
// followed, for Pareto-selected studies, by one frontier trailer line.
// Rows render through a RowEncoder, so emission allocates (almost) nothing
// per row.
func WriteNDJSON(w io.Writer, res *core.Results) error {
	if err := res.EnsureFrontier(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	var enc RowEncoder
	for i := range res.Metrics {
		if err := enc.Encode(bw, &res.Metrics[i], res.Study); err != nil {
			return err
		}
	}
	if err := WriteNDJSONTrailers(bw, res); err != nil {
		return err
	}
	return bw.Flush()
}

// ndjsonFailedTrailer is the failed-points NDJSON line of a study that lost
// grid points to isolated faults; emitted before any frontier trailer and
// only when points actually failed, so healthy streams are unchanged.
type ndjsonFailedTrailer struct {
	FailedPoints []core.FailedPoint `json:"failed_points"`
}

// ndjsonExplorationTrailer is the exploration NDJSON line of an adaptive
// study; emitted last, after any frontier trailer, and only in adaptive
// mode, so exhaustive streams are unchanged.
type ndjsonExplorationTrailer struct {
	Exploration *core.Exploration `json:"exploration"`
}

// WriteNDJSONTrailers writes every trailer line of a study stream — the
// failed-points block when grid points were lost, then the frontier of a
// Pareto-selected study, then an adaptive run's exploration block — the
// piece the study service appends after its live row stream so batch and
// streamed NDJSON stay byte-identical.
func WriteNDJSONTrailers(w io.Writer, res *core.Results) error {
	if len(res.FailedPoints) > 0 {
		t := ndjsonFailedTrailer{FailedPoints: res.FailedPoints}
		if err := json.NewEncoder(w).Encode(t); err != nil {
			return err
		}
	}
	if err := WriteNDJSONFrontier(w, res); err != nil {
		return err
	}
	if res.Exploration != nil {
		t := ndjsonExplorationTrailer{Exploration: res.Exploration}
		if err := json.NewEncoder(w).Encode(t); err != nil {
			return err
		}
	}
	return nil
}

// WriteNDJSONFrontier writes the single frontier trailer line of a
// Pareto-selected study — the piece the study service appends after its
// live row stream so batch and streamed NDJSON stay byte-identical. It is
// a no-op when the study declares no selection.
func WriteNDJSONFrontier(w io.Writer, res *core.Results) error {
	if len(res.Study.Pareto) == 0 {
		return nil
	}
	if err := res.EnsureFrontier(); err != nil {
		return err
	}
	t := ndjsonTrailer{Frontier: Frontier{Metrics: res.Study.Pareto, Points: res.Frontier}}
	return json.NewEncoder(w).Encode(t)
}

// WriteCombinedCSV writes every per-technology table that WriteCSVs would
// emit as files into a single stream, in first-appearance technology order
// with a blank line between tables.
func WriteCombinedCSV(w io.Writer, res *core.Results) error {
	t, err := newCSVTables(res)
	if err != nil {
		return err
	}
	b := make([]byte, 0, jsonChunk+2048)
	for i := range t.techs {
		if i > 0 {
			b = append(b, '\n')
		}
		if b, err = t.appendTable(b, i, w); err != nil {
			return err
		}
	}
	if len(b) > 0 {
		_, err = w.Write(b)
	}
	return err
}

// WriteDashboardHTML renders the completed study as the self-contained
// HTML dashboard — tables plus scatter views with any Pareto frontier
// highlighted — shared byte-for-byte by `nvmexplorer run -format html` and
// the study service's format=html.
func WriteDashboardHTML(w io.Writer, res *core.Results) error {
	if err := res.EnsureFrontier(); err != nil {
		return err
	}
	return res.Dashboard().WriteHTML(w)
}

// csvTables renders a completed study as CSV: one table per technology, in
// first-appearance order, each holding that technology's rows in Results
// order. It is the one CSV rendering, shared by WriteCombinedCSV (one
// stream), WriteCSVs (one file per table) and ResultTables (terminal
// tables).
type csvTables struct {
	res        *core.Results
	cols       csvColumns
	techs      []cell.Technology
	onFrontier []uint64
	enc        RowEncoder
}

func newCSVTables(res *core.Results) (*csvTables, error) {
	if err := res.EnsureFrontier(); err != nil {
		return nil, err
	}
	t := &csvTables{res: res, cols: columnsOf(res.Study)}
	if t.cols.pareto {
		t.onFrontier = frontierSet(res)
	}
	for i := range res.Metrics {
		if tech := res.Metrics[i].Array.Cell.Tech; !slices.Contains(t.techs, tech) {
			t.techs = append(t.techs, tech)
		}
	}
	return t, nil
}

// appendTable appends table i — header, then rows — to b, handing b to w
// and starting over whenever it passes jsonChunk bytes (a nil w: never).
func (t *csvTables) appendTable(b []byte, i int, w io.Writer) ([]byte, error) {
	b = t.cols.appendHeader(b)
	tech := t.techs[i]
	for mi := range t.res.Metrics {
		m := &t.res.Metrics[mi]
		if m.Array.Cell.Tech != tech {
			continue
		}
		t.enc.fill(m, t.res.Study)
		t.enc.dp.Pareto = inSet(t.onFrontier, mi)
		b = t.enc.appendCSV(b, t.cols)
		if w != nil && len(b) >= jsonChunk {
			if _, err := w.Write(b); err != nil {
				return b, fmt.Errorf("sweep: writing %s table: %w", tech, err)
			}
			b = b[:0]
		}
	}
	return b, nil
}
