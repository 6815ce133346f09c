// Package nvsim is NVMExplorer-Go's memory-array characterization engine:
// the role the paper fills with its customized, extended NVSim [37].
//
// Given a cell technology definition (internal/cell), a target capacity, an
// access width, and an optimization target, the engine explores internal
// array organizations (banks × subarrays × rows × columns × column-mux
// degree), models each candidate with circuit-level RC, activation-energy,
// leakage, and area estimates, and returns the organization that optimizes
// the requested target — exactly the contract NVMExplorer has with NVSim
// (Section II-B): cell × capacity × target → {area, latency, energy,
// leakage}.
//
// The models are first-order but structural: wordline/bitline Elmore delays,
// per-scheme sensing circuits (voltage, current, FET with boosted
// wordlines), row-decoder chains, buffered H-tree interconnect, and
// periphery-versus-core area accounting. Structural modeling is what lets
// the paper's cross-technology orderings emerge instead of being hard-coded:
// denser cells make physically smaller arrays with shorter wires (so dense
// eNVMs can out-run a 146F² SRAM at iso-capacity), and organizations with
// less periphery amortization are faster but less area-efficient (Fig 12).
package nvsim

import (
	"math"

	"repro/internal/cell"
)

// techNode carries the process-technology parameters the circuit models
// need, interpolated from an ITRS/CACTI-flavored scaling table. All values
// use the framework units: nm, ns, Ω/µm, fF/µm, mW.
type techNode struct {
	NodeNM          float64 // feature size F
	Vdd             float64 // nominal supply, V
	FO4NS           float64 // fanout-of-4 inverter delay, ns
	WireResOhmPerUM float64 // local/intermediate wire resistance
	WireCapFFPerUM  float64 // wire capacitance
	GateCapFFPerUM  float64 // transistor gate cap per µm width
	LeakMWPerMM2    float64 // periphery leakage density at full Vdd
}

// nodeTable anchors the interpolation. Values follow published CACTI/ITRS
// trends: Vdd flattens below 22nm, wire resistance worsens quadratically
// with pitch, wire and gate capacitance per length are roughly constant,
// leakage density rises at scaled nodes.
var nodeTable = []techNode{
	{7, 0.70, 0.0040, 21.0, 0.18, 0.9, 9.0},
	{10, 0.75, 0.0050, 13.0, 0.19, 0.9, 7.5},
	{14, 0.80, 0.0065, 7.5, 0.19, 1.0, 6.0},
	{16, 0.80, 0.0075, 6.0, 0.20, 1.0, 5.5},
	{22, 0.85, 0.0100, 3.5, 0.20, 1.0, 4.0},
	{28, 0.90, 0.0125, 2.4, 0.20, 1.0, 3.2},
	{32, 0.95, 0.0140, 1.9, 0.21, 1.1, 2.8},
	{40, 1.00, 0.0170, 1.3, 0.21, 1.1, 2.2},
	{45, 1.00, 0.0190, 1.1, 0.22, 1.1, 2.0},
	{55, 1.05, 0.0230, 0.80, 0.22, 1.2, 1.6},
	{65, 1.10, 0.0270, 0.62, 0.23, 1.2, 1.3},
	{90, 1.20, 0.0370, 0.36, 0.24, 1.3, 0.9},
	{130, 1.30, 0.0520, 0.20, 0.25, 1.4, 0.6},
}

// node22 is the 22nm reference node several calibration constants are
// quoted against. The interpolation is deterministic, so computing it once
// at init keeps every later use bit-identical while taking the exp/log
// work out of the per-candidate scoring loop.
var node22 = nodeAt(22)

// nodeAt returns technology parameters for an arbitrary feature size by
// log-linear interpolation over the anchor table, clamping outside it
// (research-scale "1000nm" devices evaluate with 130nm-class periphery —
// conservative, and such cells are excluded from validated studies anyway).
func nodeAt(nm float64) techNode {
	t := nodeTable
	if nm <= t[0].NodeNM {
		n := t[0]
		n.NodeNM = nm
		return n
	}
	if nm >= t[len(t)-1].NodeNM {
		n := t[len(t)-1]
		n.NodeNM = nm
		return n
	}
	for i := 1; i < len(t); i++ {
		if nm <= t[i].NodeNM {
			lo, hi := t[i-1], t[i]
			// Interpolate in log(node) space: scaling laws are power laws.
			f := (math.Log(nm) - math.Log(lo.NodeNM)) /
				(math.Log(hi.NodeNM) - math.Log(lo.NodeNM))
			lerp := func(a, b float64) float64 { return a + f*(b-a) }
			return techNode{
				NodeNM:          nm,
				Vdd:             lerp(lo.Vdd, hi.Vdd),
				FO4NS:           lerp(lo.FO4NS, hi.FO4NS),
				WireResOhmPerUM: math.Exp(lerp(math.Log(lo.WireResOhmPerUM), math.Log(hi.WireResOhmPerUM))),
				WireCapFFPerUM:  lerp(lo.WireCapFFPerUM, hi.WireCapFFPerUM),
				GateCapFFPerUM:  lerp(lo.GateCapFFPerUM, hi.GateCapFFPerUM),
				LeakMWPerMM2:    math.Exp(lerp(math.Log(lo.LeakMWPerMM2), math.Log(hi.LeakMWPerMM2))),
			}
		}
	}
	panic("unreachable")
}

// calibration gathers every tunable constant of the circuit models in one
// place. The defaults are calibrated against the validation targets of
// Section III-C (see nvsim tests and EXPERIMENTS.md): a 1MB 28nm STT macro
// with 2.8ns reads and the density/latency/energy orderings of Figures 3,
// 5, and 10.
type calibration struct {
	// Decoder / driver chain.
	DecoderFO4PerStage float64 // FO4s per predecode stage
	WLDriverFO4        float64 // wordline driver insertion delay, FO4s

	// Sensing.
	SenseScale float64 // fraction of the cell's published read latency
	// attributed to cell/sense settling inside a characterized array
	VSenseDelayNS   float64 // voltage sense-amp resolve at 22nm
	ISenseDelayNS   float64 // current sense-amp resolve at 22nm
	FETSenseDelayNS float64 // FET-threshold sense resolve at 22nm
	PrechargeNS     float64 // bitline precharge phase (voltage sensing) at 22nm
	VSwing          float64 // bitline swing required by voltage sensing, V
	SRAMCellUA      float64 // SRAM cell discharge current, µA

	// Per-bit sense energies at 22nm (pJ). FET sensing is the expensive
	// scheme — boosted wordlines and reference generation — which produces
	// the upper read-energy tier of Figs 5 and 10.
	VSensePJ   float64
	ISensePJ   float64
	FETSensePJ float64

	// Interconnect.
	HtreeNSPerMM    float64 // buffered global wire delay
	HtreePathFrac   float64 // H-tree path length as fraction of sqrt(area)
	HtreeEnergyFrac float64 // fraction of route toggling per access

	// Area.
	RowDriverWidthF   float64                       // row-periphery strip width, in F
	ColSenseHeightF   [cell.NumSenseSchemes]float64 // per-scheme column-periphery height, in F
	ControlAreaFrac   float64                       // control overhead vs core
	BankRoutingFrac   float64                       // intra-bank routing overhead
	GlobalRoutingFrac float64                       // inter-bank H-tree overhead

	// Leakage. Sense amplifiers hold static bias; current-sensing
	// references burn the most, FET-threshold comparators the least.
	SALeakMW [cell.NumSenseSchemes]float64 // per-scheme static leak per sense amp at 22nm
}

// defaultCalibration returns the calibrated model constants.
func defaultCalibration() calibration {
	return calibration{
		DecoderFO4PerStage: 3.0,
		WLDriverFO4:        2.0,

		SenseScale:      0.15,
		VSenseDelayNS:   0.25,
		ISenseDelayNS:   0.45,
		FETSenseDelayNS: 0.60,
		PrechargeNS:     0.50,
		VSwing:          0.12,
		SRAMCellUA:      30,

		VSensePJ:   0.030,
		ISensePJ:   0.080,
		FETSensePJ: 0.550,

		HtreeNSPerMM:    0.80,
		HtreePathFrac:   0.9,
		HtreeEnergyFrac: 0.5,

		RowDriverWidthF:   40,
		ColSenseHeightF:   [cell.NumSenseSchemes]float64{80, 120, 90},
		ControlAreaFrac:   0.03,
		BankRoutingFrac:   0.08,
		GlobalRoutingFrac: 0.06,

		SALeakMW: [cell.NumSenseSchemes]float64{1.5e-6, 1.5e-6, 5e-7},
	}
}

// defaultCal is the shared calibration instance: the constants are immutable,
// so every characterization reads the same copy instead of rebuilding one per
// call.
var defaultCal = defaultCalibration()
