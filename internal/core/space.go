package core

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/eval"
)

// The design space. The paper's core promise is cross-stack exploration:
// jointly sweeping devices, array provisioning, and application knobs, then
// filtering the results on a dashboard. This file makes those sweep axes
// first class: a Study's axis fields form a DesignSpace whose cross product
// is enumerated in exactly one place (Study.Space), and every enumerated
// grid point is a PointSpec — the coordinates that flow through worker
// fan-out, the characterization memo key, streaming emission, and the
// CSV/NDJSON/dashboard rows. Adding a future axis means extending PointSpec
// and the nested loop below; the worker pool, writers, and service pick it
// up unchanged.
//
// Axis nesting order is fixed and load bearing: bits-per-cell (outermost),
// cell, capacity, word bits, write buffer, fault mode (innermost). It fixes
// the order of every study's output rows and the grid indices an adaptive
// manifest records, so changing it changes stored and served bytes.

// Axis identifies one design-space dimension.
type Axis int

const (
	// AxisBitsPerCell re-programs each cell at several bits per cell.
	AxisBitsPerCell Axis = iota
	// AxisCell selects the memory cell technology/flavor.
	AxisCell
	// AxisCapacity provisions the array capacity.
	AxisCapacity
	// AxisWordBits varies the access width.
	AxisWordBits
	// AxisWriteBuffer varies the Section V-D write-buffer configuration.
	AxisWriteBuffer
	// AxisFault varies the storage fault/ECC handling.
	AxisFault
	numAxes
)

var axisNames = [...]string{
	"bits_per_cell", "cell", "capacity", "word_bits", "write_buffer", "fault",
}

// String returns the axis's schema name.
func (a Axis) String() string {
	if a < 0 || int(a) >= len(axisNames) {
		return fmt.Sprintf("Axis(%d)", int(a))
	}
	return axisNames[a]
}

// PointSpec is the full coordinate set of one design-space grid point: what
// a worker characterizes and evaluates, what the memo cache is keyed from,
// and what each emitted row is labeled with. All coordinates are fully
// resolved at enumeration time — axis values where an axis is declared, the
// study-wide defaults where not — so a spec stands on its own.
type PointSpec struct {
	// Index is the point's position in enumeration order, which is also its
	// emission order and, for fault configurations, its seed offset.
	Index int
	// Cell is the cell definition with the point's bits-per-cell applied.
	Cell cell.Definition
	// CapacityBytes is the provisioned array capacity.
	CapacityBytes int64
	// WordBits is the access width; 0 uses the engine default (64B line).
	WordBits int
	// WriteBuffer is the point's resolved write-buffer configuration; nil
	// means this point is evaluated without a buffer.
	WriteBuffer *eval.WriteBufferConfig
	// Fault is the point's resolved storage-fault configuration with its
	// per-point seed already derived; nil means fault-free.
	Fault *eval.FaultConfig
}

// options resolves the evaluation options for this point: the study-wide
// base with the spec's resolved per-point coordinates applied.
func (p *PointSpec) options(base eval.Options) eval.Options {
	base.WriteBuffer = p.WriteBuffer
	base.Fault = p.Fault
	return base
}

// Declares reports whether the study declares explicit values for an
// optional axis (the mandatory cell and capacity axes always count as
// declared). Output writers use this to decide which row columns exist.
func (s *Study) Declares(a Axis) bool {
	switch a {
	case AxisCell:
		return len(s.Cells) > 0
	case AxisCapacity:
		return len(s.Capacities) > 0
	case AxisBitsPerCell:
		return len(s.BitsPerCell) > 0
	case AxisWordBits:
		return len(s.WordBitsAxis) > 0
	case AxisWriteBuffer:
		return len(s.WriteBuffers) > 0
	case AxisFault:
		return len(s.Faults) > 0
	}
	return false
}

// axisValues materializes each axis with its declared values, or with the
// single study-wide default value when the axis is not declared. A declared
// axis fully replaces the default: a nil write-buffer or fault entry is an
// explicit "none" point even when the study-wide option is set.
func (s *Study) axisValues() (bits []int, words []int, wbs []*eval.WriteBufferConfig, faults []*eval.FaultConfig) {
	bits = s.BitsPerCell
	if len(bits) == 0 {
		bits = []int{0} // 0 = use each cell's own programming, no re-derivation
	}
	words = s.WordBitsAxis
	if len(words) == 0 {
		words = []int{s.WordBits}
	}
	wbs = s.WriteBuffers
	if len(wbs) == 0 {
		wbs = []*eval.WriteBufferConfig{s.Options.WriteBuffer}
	}
	faults = s.Faults
	if len(faults) == 0 {
		faults = []*eval.FaultConfig{s.Options.Fault}
	}
	return bits, words, wbs, faults
}

// pointCoords records one enumerated point's position on every axis: the
// index of its value within s.Cells, s.Capacities, and the axisValues
// slices. The adaptive planner (adaptive.go) navigates the grid through
// these coordinates — subdividing numeric axes near the frontier — without
// re-deriving them from the resolved PointSpec fields. Note the coordinate
// grid is not necessarily dense: pruned (cell, bits-per-cell) combinations
// leave holes.
type pointCoords [numAxes]int

// Space enumerates the study's design-space cross product in the canonical
// axis order. Infeasible (cell, bits-per-cell) combinations — volatile
// cells asked for multi-level programming — are pruned, mirroring how MLC
// sweeps have always kept the SLC entry and skipped the rest. Every other
// invalid axis value is an error.
func (s *Study) Space() ([]PointSpec, error) {
	specs, _, err := s.enumerateSpace(false)
	return specs, err
}

// spaceCoords is Space plus each point's axis coordinates, parallel to the
// returned specs.
func (s *Study) spaceCoords() ([]PointSpec, []pointCoords, error) {
	return s.enumerateSpace(true)
}

// enumerateSpace is the single design-space enumeration both entry points
// share; withCoords additionally materializes the per-point coordinates.
func (s *Study) enumerateSpace(withCoords bool) ([]PointSpec, []pointCoords, error) {
	if len(s.Cells) == 0 {
		return nil, nil, fmt.Errorf("core: study %q has no cells", s.Name)
	}
	if len(s.Capacities) == 0 {
		return nil, nil, fmt.Errorf("core: study %q has no capacities", s.Name)
	}
	bits, words, wbs, faults := s.axisValues()
	specs := make([]PointSpec, 0, len(bits)*len(s.Cells)*len(s.Capacities)*len(words)*len(wbs)*len(faults))
	var coords []pointCoords
	if withCoords {
		coords = make([]pointCoords, 0, cap(specs))
	}
	for bi, b := range bits {
		if b != 0 && (b < 1 || b > 4) {
			return nil, nil, fmt.Errorf("core: study %q: bits per cell %d out of range [1,4]", s.Name, b)
		}
		for ci, c := range s.Cells {
			d := c
			if b != 0 {
				if !cell.CanProgram(c, b) {
					continue // e.g. SRAM has no MLC mode; keep its SLC entry only
				}
				var err error
				d, err = cell.ToMLC(c, b)
				if err != nil {
					return nil, nil, fmt.Errorf("core: study %q: %w", s.Name, err)
				}
			}
			for capi, capBytes := range s.Capacities {
				for wi, w := range words {
					if w < 0 {
						return nil, nil, fmt.Errorf("core: study %q: negative word bits %d", s.Name, w)
					}
					for wbi, wb := range wbs {
						if wb != nil {
							if err := wb.Validate(); err != nil {
								return nil, nil, err
							}
						}
						for fi, f := range faults {
							spec := PointSpec{
								Index:         len(specs),
								Cell:          d,
								CapacityBytes: capBytes,
								WordBits:      w,
								WriteBuffer:   wb,
							}
							if f != nil {
								if err := f.Validate(); err != nil {
									return nil, nil, err
								}
								// Derive the point's own deterministic seed so
								// fault-mode rows reproduce at any worker count.
								ff := *f
								ff.Seed += int64(spec.Index)
								spec.Fault = &ff
							}
							specs = append(specs, spec)
							if withCoords {
								var pc pointCoords
								pc[AxisBitsPerCell] = bi
								pc[AxisCell] = ci
								pc[AxisCapacity] = capi
								pc[AxisWordBits] = wi
								pc[AxisWriteBuffer] = wbi
								pc[AxisFault] = fi
								coords = append(coords, pc)
							}
						}
					}
				}
			}
		}
	}
	if len(specs) == 0 {
		return nil, nil, fmt.Errorf("core: study %q design space is empty (every cell/bits-per-cell combination is infeasible)", s.Name)
	}
	return specs, coords, nil
}
