// Package nvmexplorer is a from-scratch Go reproduction of NVMExplorer
// (Pentecost et al., HPCA 2022): a cross-stack design-space exploration
// framework for embedded non-volatile memories (eNVMs).
//
// The package is a facade over the internal engine, re-exporting the types
// a study author needs:
//
//   - cell technology definitions, the publication survey, and the
//     "tentpole" methodology (internal/cell),
//   - the NVSim-class array characterization engine (internal/nvsim),
//   - application traffic models — generic sweeps, the NVDLA-style DNN
//     accelerator model, graph kernels, and SPEC LLC traffic
//     (internal/traffic, internal/graph, internal/cache),
//   - the analytical evaluation engine: power, long-pole performance,
//     lifetime, intermittent operation, write buffering (internal/eval),
//   - fault modeling and measured application-accuracy fault injection
//     (internal/fault, internal/nn), and
//   - the Study pipeline plus result tables, scatter views, and the
//     HTML dashboard (internal/core, internal/viz).
//
// Quickstart:
//
//	study := nvmexplorer.NewStudy("my study").
//		AddTentpole(nvmexplorer.STT, nvmexplorer.Optimistic).
//		AddTentpole(nvmexplorer.FeFET, nvmexplorer.Optimistic).
//		AddCapacity(2 << 20).
//		AddTarget(nvmexplorer.OptReadEDP).
//		AddPattern(nvmexplorer.GenericSweep(1, 10, 0.001, 0.1, 4)...)
//	results, err := study.Run()
//
// See examples/ for complete programs reproducing the paper's case studies
// and EXPERIMENTS.md for the paper-vs-measured record.
package nvmexplorer

import (
	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/nvsim"
	"repro/internal/store"
	"repro/internal/traffic"
	"repro/internal/viz"
)

// Cell technology layer.
type (
	// CellDefinition describes a memory cell technology (Table I entry).
	CellDefinition = cell.Definition
	// Technology enumerates cell technology classes.
	Technology = cell.Technology
	// Flavor distinguishes tentpole variants (optimistic/pessimistic/...).
	Flavor = cell.Flavor
	// Publication is one surveyed ISSCC/IEDM/VLSI result.
	Publication = cell.Publication
)

// Technology values.
const (
	SRAM    = cell.SRAM
	PCM     = cell.PCM
	STT     = cell.STT
	SOT     = cell.SOT
	RRAM    = cell.RRAM
	CTT     = cell.CTT
	FeRAM   = cell.FeRAM
	FeFET   = cell.FeFET
	BGFeFET = cell.BGFeFET
	EDRAM   = cell.EDRAM
)

// Flavor values.
const (
	Optimistic  = cell.Optimistic
	Pessimistic = cell.Pessimistic
	Reference   = cell.Reference
	Custom      = cell.Custom
)

// Tentpole returns the canonical fixed cell for a technology and flavor.
func Tentpole(t Technology, f Flavor) (CellDefinition, error) { return cell.Tentpole(t, f) }

// Survey returns the publication database behind Figure 1 and Table I.
func Survey() []Publication { return cell.Survey() }

// DeriveTentpole re-derives a tentpole cell from a publication corpus
// (Section III-B1).
func DeriveTentpole(pubs []Publication, t Technology, f Flavor) (CellDefinition, error) {
	return cell.Derive(pubs, t, f)
}

// ToMLC re-programs a definition at a different bits-per-cell count.
func ToMLC(d CellDefinition, bitsPerCell int) (CellDefinition, error) {
	return cell.ToMLC(d, bitsPerCell)
}

// Array characterization layer (the extended-NVSim role).
type (
	// ArrayConfig is one characterization request.
	ArrayConfig = nvsim.Config
	// ArrayResult is a characterized memory array.
	ArrayResult = nvsim.Result
	// OptTarget selects the organization-search objective.
	OptTarget = nvsim.OptTarget
)

// Optimization targets.
const (
	OptReadLatency  = nvsim.OptReadLatency
	OptWriteLatency = nvsim.OptWriteLatency
	OptReadEnergy   = nvsim.OptReadEnergy
	OptWriteEnergy  = nvsim.OptWriteEnergy
	OptReadEDP      = nvsim.OptReadEDP
	OptWriteEDP     = nvsim.OptWriteEDP
	OptArea         = nvsim.OptArea
	OptLeakage      = nvsim.OptLeakage
)

// Characterize runs the array engine for one configuration.
func Characterize(cfg ArrayConfig) (ArrayResult, error) { return nvsim.Characterize(cfg) }

// CharacterizeAll returns every admissible internal organization, ranked
// by cfg.Target. It bypasses the memo cache and walks afresh on every call.
func CharacterizeAll(cfg ArrayConfig) ([]ArrayResult, error) { return nvsim.CharacterizeAll(cfg) }

// CharacterizeTargets scores the organization space once and selects the
// best array per optimization target (results and errs parallel targets) —
// the batch entry point behind Study.Run.
func CharacterizeTargets(cfg ArrayConfig, targets []OptTarget) ([]ArrayResult, []error) {
	return nvsim.CharacterizeTargets(cfg, targets)
}

// Engine holds the characterization memo, which reuses each
// configuration's per-target winners across the studies that share the
// engine (Study.Engine), and counts its work (Engine.Stats). The memo is
// bounded; its entries live as long as the engine.
type Engine = nvsim.Engine

// NewEngine returns an engine with an empty memo.
func NewEngine() *Engine { return nvsim.NewEngine() }

// Application traffic layer.
type (
	// TrafficPattern describes application memory traffic.
	TrafficPattern = traffic.Pattern
	// Accelerator is the NVDLA-class DNN engine model.
	Accelerator = traffic.Accelerator
	// DNNUseCase selects weights-only vs weights+activations storage.
	DNNUseCase = traffic.DNNUseCase
)

// DNN storage use cases.
const (
	WeightsOnly    = traffic.WeightsOnly
	WeightsAndActs = traffic.WeightsAndActs
)

// GenericSweep builds a log-spaced bandwidth grid of traffic patterns.
func GenericSweep(readLoGBs, readHiGBs, writeLoGBs, writeHiGBs float64, points int) []TrafficPattern {
	return traffic.GenericSweep(readLoGBs, readHiGBs, writeLoGBs, writeHiGBs, points)
}

// NVDLA returns the paper's base DNN accelerator configuration.
func NVDLA() Accelerator { return traffic.NVDLA() }

// Evaluation layer.
type (
	// Metrics are application-level results for one (array, traffic) pair.
	Metrics = eval.Metrics
	// EvalOptions tunes an evaluation (write buffering, fault handling, ...).
	EvalOptions = eval.Options
	// WriteBufferConfig models the Section V-D write cache.
	WriteBufferConfig = eval.WriteBufferConfig
	// FaultConfig evaluates design points under a storage fault/ECC mode
	// with a reproducible injection seed.
	FaultConfig = eval.FaultConfig
	// FaultMode selects raw faulty storage, SECDED protection, or none.
	FaultMode = eval.FaultMode
	// FaultSummary records the fault view of one evaluated design point.
	FaultSummary = eval.FaultSummary
	// IntermittentResult is a daily-energy breakdown at one wake-up rate.
	IntermittentResult = eval.IntermittentResult
)

// Fault modes.
const (
	FaultNone   = eval.FaultNone
	FaultRaw    = eval.FaultRaw
	FaultSECDED = eval.FaultSECDED
)

// ParseFaultMode resolves a fault-mode name ("none", "raw", "secded").
func ParseFaultMode(s string) (FaultMode, error) { return eval.ParseFaultMode(s) }

// Evaluate applies the analytical model to one array and pattern.
func Evaluate(a ArrayResult, p TrafficPattern, opts EvalOptions) (Metrics, error) {
	return eval.Evaluate(a, p, opts)
}

// IntermittentEnergy computes daily memory energy at a wake-up rate.
func IntermittentEnergy(a ArrayResult, readsPerEvent, writesPerEvent, eventsPerDay float64) (IntermittentResult, error) {
	return eval.IntermittentEnergy(a, readsPerEvent, writesPerEvent, eventsPerDay)
}

// Study pipeline and exploration layer.
type (
	// Study is one configured design-space exploration. Beyond the cell and
	// capacity axes, the optional BitsPerCell/WordBitsAxis/WriteBuffers/
	// Faults fields widen the design space; Study.Space enumerates the
	// cross product as PointSpecs.
	Study = core.Study
	// Axis identifies one design-space dimension.
	Axis = core.Axis
	// PointSpec is the coordinate set of one design-space grid point.
	PointSpec = core.PointSpec
	// PointResult is one completed grid point streamed by Study.RunStream.
	PointResult = core.PointResult
	// Results holds a completed study, including any selected Pareto
	// frontier (Results.SelectPareto).
	Results = core.Results
	// Exploration is an adaptive run's coverage record (evaluated vs.
	// exhaustive points, pruned counts, rounds), attached to Results by
	// Mode = ModeAdaptive studies.
	Exploration = core.Exploration
	// Table is a titled result grid with CSV emission.
	Table = viz.Table
	// Scatter is a figure-style scatter view (ASCII and SVG rendering).
	Scatter = viz.Scatter
	// Dashboard renders panels into a self-contained HTML page.
	Dashboard = viz.Dashboard
)

// Execution modes for Study.Mode: the exhaustive full-grid walk (the
// default) and the Pareto-guided adaptive search with a deterministic
// point budget (Study.Budget, Study.Seed).
const (
	ModeExhaustive = core.ModeExhaustive
	ModeAdaptive   = core.ModeAdaptive
)

// NewStudy creates an empty study.
func NewStudy(name string) *Study { return core.NewStudy(name) }

// ParetoMetricNames lists the metrics Results.SelectPareto can optimize.
func ParetoMetricNames() []string { return core.ParetoMetricNames() }

// Persistence layer.
type (
	// PointCache is the per-point result cache a Study consults via its
	// Cache field: hits replay stored grid points without characterizing.
	PointCache = core.PointCache
	// Store is the persistent, content-addressed study store — the
	// PointCache behind `nvmexplorer run/serve -store`.
	Store = store.Store
)

// OpenStore opens (or creates) a persistent study store rooted at dir;
// dir == "" yields a memory-only store. Attach it with Study.Cache = store:
// every evaluated point is written through, so a later process replays
// the stored points without characterizing them.
func OpenStore(dir string) (*Store, error) { return store.Open(dir) }
