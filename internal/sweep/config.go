// Package sweep is NVMExplorer-Go's configuration front end (Section II-A
// and the artifact appendix): JSON design-sweep configurations in the
// spirit of `python run.py config/main_dnn_study.json`, expanded into a
// core.Study, executed, and written out as per-technology CSV files
// matching the artifact's `[eNVM]_1BPC-combined.csv` outputs.
package sweep

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/nn"
	"repro/internal/nvsim"
	"repro/internal/traffic"
)

// Config is the JSON schema of one design sweep.
type Config struct {
	Name string `json:"name"`

	// Cells: tentpole references and/or fully custom definitions.
	Cells       []CellRef    `json:"cells"`
	CustomCells []CustomCell `json:"custom_cells,omitempty"`
	BitsPerCell []int        `json:"bits_per_cell,omitempty"` // default [1]

	CapacitiesBytes []int64  `json:"capacities_bytes"`
	OptTargets      []string `json:"opt_targets,omitempty"` // default ["ReadEDP"]
	WordBits        int      `json:"word_bits,omitempty"`

	Traffic TrafficConfig `json:"traffic"`

	// Optional write-buffer what-if (Section V-D), applied study-wide.
	WriteBuffer *WriteBufferConfig `json:"write_buffer,omitempty"`

	// Optional design-space axes beyond (cells × bits_per_cell ×
	// capacities). word_bits_axis varies the access width per grid point;
	// write_buffers sweeps write-buffer configurations (a null entry is an
	// explicit no-buffer point; mutually exclusive with write_buffer);
	// fault sweeps storage fault/ECC modes with a reproducible seed.
	WordBitsAxis []int                `json:"word_bits_axis,omitempty"`
	WriteBuffers []*WriteBufferConfig `json:"write_buffers,omitempty"`
	Fault        *FaultConfig         `json:"fault,omitempty"`

	// Pareto selects the result frontier: the named metrics (DesignPoint
	// field names, e.g. total_power_mw, mem_time_per_sec, area_mm2) are
	// jointly optimized and non-dominated rows are reported.
	Pareto *ParetoConfig `json:"pareto,omitempty"`

	// Optional constraints.
	MaxAreaMM2       float64 `json:"max_area_mm2,omitempty"`
	MaxReadLatencyNS float64 `json:"max_read_latency_ns,omitempty"`

	// Mode selects the execution strategy: "" or "exhaustive" evaluates the
	// full axis cross product; "adaptive" runs the Pareto-guided search,
	// which requires a pareto block. Budget caps how many grid points an
	// adaptive run may evaluate (0 = refine to convergence) and Seed drives
	// its deterministic tie-breaking; output is a pure function of
	// (config, seed, budget).
	Mode   string `json:"mode,omitempty"`
	Budget int    `json:"budget,omitempty"`
	Seed   int64  `json:"seed,omitempty"`

	// Workers bounds the goroutines characterizing the design-space grid;
	// 0 uses all CPUs, 1 forces sequential execution. Output is identical
	// at any worker count.
	Workers int `json:"workers,omitempty"`

	// Cache is the per-point result cache the expanded study runs against
	// (the persistent store behind `run -store` / `serve -store`). It is a
	// process-side attachment, never part of the JSON schema.
	Cache core.PointCache `json:"-"`
}

// FaultConfig is the storage fault/ECC axis of a sweep: each mode ("none",
// "raw", "secded") becomes one grid point per (cell, capacity, ...) with a
// deterministic per-point injection seed derived from Seed.
type FaultConfig struct {
	Modes      []string `json:"modes"`
	Seed       int64    `json:"seed,omitempty"`
	ProbeBytes int      `json:"probe_bytes,omitempty"`
}

// ParetoConfig names the metrics the frontier selection minimizes (or, for
// lifetime/density, maximizes).
type ParetoConfig struct {
	Metrics []string `json:"metrics"`
}

// CellRef names a canonical tentpole cell.
type CellRef struct {
	Technology string `json:"technology"`
	Flavor     string `json:"flavor"` // "Opt", "Pess", "Ref"
}

// CustomCell is a user-supplied definition in engineering units.
type CustomCell struct {
	Name           string  `json:"name"`
	Technology     string  `json:"technology"`
	AreaF2         float64 `json:"area_f2"`
	NodeNM         float64 `json:"node_nm"`
	ReadLatencyNS  float64 `json:"read_latency_ns"`
	WriteLatencyNS float64 `json:"write_latency_ns"`
	ReadEnergyPJ   float64 `json:"read_energy_pj"`
	WriteEnergyPJ  float64 `json:"write_energy_pj"`
	Endurance      float64 `json:"endurance_cycles"`
	RetentionS     float64 `json:"retention_s"`
}

// TrafficConfig selects the application traffic source. Exactly one field
// should be set.
type TrafficConfig struct {
	// Generic log-grid sweep.
	Generic *GenericTraffic `json:"generic,omitempty"`
	// DNN accelerator model.
	DNN *DNNTraffic `json:"dnn,omitempty"`
	// Fixed explicit patterns.
	Fixed []FixedTraffic `json:"fixed,omitempty"`
}

// GenericTraffic mirrors traffic.GenericSweep.
type GenericTraffic struct {
	ReadGBsLo  float64 `json:"read_gbs_lo"`
	ReadGBsHi  float64 `json:"read_gbs_hi"`
	WriteGBsLo float64 `json:"write_gbs_lo"`
	WriteGBsHi float64 `json:"write_gbs_hi"`
	Points     int     `json:"points"`
}

// DNNTraffic mirrors traffic.DNNTraffic.
type DNNTraffic struct {
	Network     string  `json:"network"` // "ResNet18", "ResNet26", "ALBERT"
	FPS         float64 `json:"fps"`
	Tasks       int     `json:"tasks"`
	Activations bool    `json:"activations"`
}

// FixedTraffic is one explicit pattern.
type FixedTraffic struct {
	Name         string  `json:"name"`
	ReadsPerSec  float64 `json:"reads_per_sec"`
	WritesPerSec float64 `json:"writes_per_sec"`
}

// WriteBufferConfig mirrors eval.WriteBufferConfig.
type WriteBufferConfig struct {
	MaskLatency      bool    `json:"mask_latency"`
	BufferLatencyNS  float64 `json:"buffer_latency_ns"`
	TrafficReduction float64 `json:"traffic_reduction"`
}

// Parse decodes a JSON sweep configuration.
func Parse(r io.Reader) (*Config, error) {
	var cfg Config
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("sweep: parsing config: %w", err)
	}
	return &cfg, nil
}

// network resolves a network name to its shape.
func network(name string) (nn.NetworkShape, error) {
	switch name {
	case "ResNet18":
		return nn.ResNet18(), nil
	case "ResNet26":
		return nn.ResNet26Edge(), nil
	case "ALBERT":
		return nn.ALBERTBase(), nil
	}
	return nn.NetworkShape{}, fmt.Errorf("sweep: unknown network %q", name)
}

// Study expands the configuration into a runnable core.Study. Axis values
// (bits per cell, word bits, write buffers, fault modes) pass through as
// first-class study axes; the cross-product grid itself is enumerated by
// core.Study.Space, not here.
func (c *Config) Study() (*core.Study, error) {
	if c.Name == "" {
		return nil, fmt.Errorf("sweep: config needs a name")
	}
	s := core.NewStudy(c.Name)
	s.WordBits = c.WordBits
	s.MaxAreaMM2 = c.MaxAreaMM2
	s.MaxReadLatencyNS = c.MaxReadLatencyNS
	s.Workers = c.Workers
	s.Cache = c.Cache

	bits := c.BitsPerCell
	if len(bits) == 0 {
		bits = []int{1}
	}
	for _, b := range bits {
		if b < 1 || b > 4 {
			return nil, fmt.Errorf("sweep: bits per cell %d out of range [1,4]", b)
		}
	}
	s.BitsPerCell = bits
	var baseCells []cell.Definition
	for _, ref := range c.Cells {
		tech, err := cell.ParseTechnology(ref.Technology)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		var flavor cell.Flavor
		switch ref.Flavor {
		case "Opt", "":
			flavor = cell.Optimistic
		case "Pess":
			flavor = cell.Pessimistic
		case "Ref":
			flavor = cell.Reference
		default:
			return nil, fmt.Errorf("sweep: unknown flavor %q", ref.Flavor)
		}
		d, err := cell.Tentpole(tech, flavor)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		baseCells = append(baseCells, d)
	}
	for _, cc := range c.CustomCells {
		tech, err := cell.ParseTechnology(cc.Technology)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		base := cell.MustTentpole(cell.RRAM, cell.Optimistic) // electrical fill
		if d, err2 := cell.Tentpole(tech, cell.Optimistic); err2 == nil {
			base = d
		} else if d, err2 := cell.Tentpole(tech, cell.Reference); err2 == nil {
			base = d
		}
		d := base
		d.Name = cc.Name
		d.Tech = tech
		d.Flavor = cell.Custom
		d.AreaF2 = cc.AreaF2
		d.NodeNM = cc.NodeNM
		d.ReadLatencyNS = cc.ReadLatencyNS
		d.WriteLatencyNS = cc.WriteLatencyNS
		d.ReadEnergyPJ = cc.ReadEnergyPJ
		d.WriteEnergyPJ = cc.WriteEnergyPJ
		d.EnduranceCycles = cc.Endurance
		d.RetentionS = cc.RetentionS
		d.BitsPerCell = 1
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("sweep: custom cell: %w", err)
		}
		baseCells = append(baseCells, d)
	}
	if len(baseCells) == 0 {
		return nil, fmt.Errorf("sweep: config %q selects no cells", c.Name)
	}
	s.Cells = baseCells

	s.AddCapacity(c.CapacitiesBytes...)
	if len(c.OptTargets) == 0 {
		s.AddTarget(nvsim.OptReadEDP)
	}
	for _, name := range c.OptTargets {
		target, err := nvsim.ParseOptTarget(name)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		s.AddTarget(target)
	}

	// Traffic.
	tc := c.Traffic
	switch {
	case tc.Generic != nil:
		g := tc.Generic
		s.AddPattern(traffic.GenericSweep(g.ReadGBsLo, g.ReadGBsHi, g.WriteGBsLo, g.WriteGBsHi, g.Points)...)
	case tc.DNN != nil:
		net, err := network(tc.DNN.Network)
		if err != nil {
			return nil, err
		}
		use := traffic.WeightsOnly
		if tc.DNN.Activations {
			use = traffic.WeightsAndActs
		}
		s.AddPattern(traffic.DNNTraffic(traffic.NVDLA(), &net, tc.DNN.FPS, tc.DNN.Tasks, use))
	case len(tc.Fixed) > 0:
		for _, f := range tc.Fixed {
			s.AddPattern(traffic.Pattern{Name: f.Name,
				ReadsPerSec: f.ReadsPerSec, WritesPerSec: f.WritesPerSec})
		}
	default:
		return nil, fmt.Errorf("sweep: config %q has no traffic source", c.Name)
	}

	if wb := c.WriteBuffer; wb != nil {
		if len(c.WriteBuffers) > 0 {
			return nil, fmt.Errorf("sweep: config %q sets both write_buffer and the write_buffers axis", c.Name)
		}
		s.Options.WriteBuffer = evalWriteBuffer(wb)
	}
	for _, wb := range c.WriteBuffers {
		s.WriteBuffers = append(s.WriteBuffers, evalWriteBuffer(wb))
	}
	s.WordBitsAxis = c.WordBitsAxis

	if f := c.Fault; f != nil {
		if len(f.Modes) == 0 {
			return nil, fmt.Errorf("sweep: config %q fault block lists no modes", c.Name)
		}
		for _, name := range f.Modes {
			mode, err := eval.ParseFaultMode(name)
			if err != nil {
				return nil, fmt.Errorf("sweep: %w", err)
			}
			s.Faults = append(s.Faults, &eval.FaultConfig{
				Mode: mode, Seed: f.Seed, ProbeBytes: f.ProbeBytes,
			})
		}
	}

	if p := c.Pareto; p != nil {
		if len(p.Metrics) == 0 {
			return nil, fmt.Errorf("sweep: config %q pareto block names no metrics", c.Name)
		}
		if err := core.ValidateParetoMetrics(p.Metrics); err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		s.Pareto = p.Metrics
	}

	switch c.Mode {
	case "", core.ModeExhaustive:
		if c.Budget != 0 {
			return nil, fmt.Errorf("sweep: config %q sets budget without mode=adaptive", c.Name)
		}
		if c.Seed != 0 {
			return nil, fmt.Errorf("sweep: config %q sets seed without mode=adaptive", c.Name)
		}
	case core.ModeAdaptive:
		if c.Budget < 0 {
			return nil, fmt.Errorf("sweep: config %q budget must be >= 0, got %d", c.Name, c.Budget)
		}
		if len(s.Pareto) == 0 {
			return nil, fmt.Errorf("sweep: config %q: adaptive mode needs a pareto block to guide refinement", c.Name)
		}
		s.Mode = core.ModeAdaptive
		s.Budget = c.Budget
		s.Seed = c.Seed
	default:
		return nil, fmt.Errorf("sweep: config %q: unknown mode %q (want %q or %q)",
			c.Name, c.Mode, core.ModeExhaustive, core.ModeAdaptive)
	}
	return s, nil
}

// evalWriteBuffer converts the JSON write-buffer form to the eval config.
// A nil input stays nil: an explicit "no buffer" axis point.
func evalWriteBuffer(wb *WriteBufferConfig) *eval.WriteBufferConfig {
	if wb == nil {
		return nil
	}
	return &eval.WriteBufferConfig{
		MaskLatency:      wb.MaskLatency,
		BufferLatencyNS:  wb.BufferLatencyNS,
		TrafficReduction: wb.TrafficReduction,
	}
}
