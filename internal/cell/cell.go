// Package cell defines embedded non-volatile memory (eNVM) cell technologies,
// the survey database of published cell examples, and the "tentpole"
// methodology of NVMExplorer (HPCA 2022, Section III).
//
// A cell.Definition captures everything the array characterization engine
// (internal/nvsim) needs to know about a storage cell: geometry, intrinsic
// access behaviour, reliability limits, and sensing scheme. Definitions come
// from three sources, mirroring the paper:
//
//  1. Canonical "tentpole" definitions — fixed optimistic and pessimistic
//     cells per technology class (Section III-B1), plus industry reference
//     points (e.g. the 40nm RRAM macro) — see techs.go.
//  2. The survey database of published examples from ISSCC/IEDM/VLSI
//     2016-2020 (Section III-A) — see survey.go — from which tentpoles can be
//     re-derived (tentpole.go).
//  3. Fully custom user definitions supplied through the sweep configuration
//     interface.
package cell

import (
	"fmt"
	"math"
)

// Technology enumerates the memory cell technology classes surveyed by the
// paper (Table I), plus the back-gated FeFET co-design point (Section V-A)
// and eDRAM (the Graphicionado scratchpad baseline in Section IV-B).
type Technology int

const (
	SRAM    Technology = iota
	PCM                // phase-change memory
	STT                // spin-transfer-torque MRAM
	SOT                // spin-orbit-torque MRAM
	RRAM               // resistive RAM
	CTT                // charge-trap transistor
	FeRAM              // ferroelectric RAM (1T1C)
	FeFET              // ferroelectric FET
	BGFeFET            // back-gated FeFET (Section V-A co-design)
	EDRAM              // embedded DRAM (baseline scratchpad)
	numTechnologies
)

// Technologies lists every technology class in declaration order.
func Technologies() []Technology {
	ts := make([]Technology, 0, int(numTechnologies))
	for t := Technology(0); t < numTechnologies; t++ {
		ts = append(ts, t)
	}
	return ts
}

// ENVMs lists the non-volatile technologies (everything except SRAM and
// eDRAM), the set the paper calls "eNVM candidates".
func ENVMs() []Technology {
	var ts []Technology
	for _, t := range Technologies() {
		if t != SRAM && t != EDRAM {
			ts = append(ts, t)
		}
	}
	return ts
}

var techNames = [...]string{
	SRAM: "SRAM", PCM: "PCM", STT: "STT", SOT: "SOT", RRAM: "RRAM",
	CTT: "CTT", FeRAM: "FeRAM", FeFET: "FeFET", BGFeFET: "BG-FeFET",
	EDRAM: "eDRAM",
}

// String returns the display name of the technology.
func (t Technology) String() string {
	if t < 0 || int(t) >= len(techNames) {
		return fmt.Sprintf("Technology(%d)", int(t))
	}
	return techNames[t]
}

// ParseTechnology converts a display name back to a Technology value.
func ParseTechnology(s string) (Technology, error) {
	for i, n := range techNames {
		if n == s {
			return Technology(i), nil
		}
	}
	return 0, fmt.Errorf("cell: unknown technology %q", s)
}

// Volatile reports whether the technology loses state on power-off.
func (t Technology) Volatile() bool { return t == SRAM || t == EDRAM }

// Flavor distinguishes the tentpole variants of a technology class.
type Flavor int

const (
	Optimistic  Flavor = iota // best-case published density + best-case fill
	Pessimistic               // worst-case published density + worst-case fill
	Reference                 // a specific fabricated industry/academic result
	Custom                    // user-supplied definition
)

var flavorNames = [...]string{"Opt", "Pess", "Ref", "Custom"}

// String returns the short display name used in figures ("Opt", "Pess", ...).
func (f Flavor) String() string {
	if f < 0 || int(f) >= len(flavorNames) {
		return fmt.Sprintf("Flavor(%d)", int(f))
	}
	return flavorNames[f]
}

// SenseScheme selects the sensing circuitry family the array model builds
// around a cell. The choice follows the cell's physical read mechanism and
// determines sense-amplifier latency, energy, and area (Section II-B).
type SenseScheme int

const (
	// VoltageSense: differential/voltage-mode sensing (SRAM, eDRAM, FeRAM).
	VoltageSense SenseScheme = iota
	// CurrentSense: current-mode sensing of a resistive element
	// (PCM, RRAM, STT, SOT).
	CurrentSense
	// FETSense: transistor-threshold sensing with boosted wordlines
	// (FeFET, CTT). Cell-level read energy is tiny but the periphery is
	// expensive — this is what makes FeFET array reads costly (Fig 5).
	FETSense
)

// NumSenseSchemes is the number of defined sensing schemes; per-scheme
// tables (e.g. the nvsim calibration) size themselves with it so adding a
// scheme fails at compile time instead of at runtime.
const NumSenseSchemes = 3

var senseNames = [NumSenseSchemes]string{"voltage", "current", "fet"}

func (s SenseScheme) String() string {
	if s < 0 || int(s) >= len(senseNames) {
		return fmt.Sprintf("SenseScheme(%d)", int(s))
	}
	return senseNames[s]
}

// Definition is a complete cell-technology description: the unit of input to
// the array characterization engine. All fields use the framework's unit
// conventions (ns, pJ, F², nm). A zero value is not usable; construct
// definitions via the canonical tables in techs.go, the tentpole deriver, or
// the sweep configuration front end, then call Validate.
type Definition struct {
	Name   string     // display name, e.g. "Opt. STT"
	Tech   Technology // technology class
	Flavor Flavor     // tentpole variant

	// Geometry.
	AreaF2      float64 // cell footprint in F² (per physical cell)
	NodeNM      float64 // process node feature size F, in nm
	BitsPerCell int     // 1 = SLC, 2 = two-bit MLC, ...

	// Intrinsic access behaviour (cell-level; array periphery adds on top).
	ReadLatencyNS  float64 // cell read/sense settling component
	WriteLatencyNS float64 // programming pulse width
	ReadEnergyPJ   float64 // per-bit cell read energy
	WriteEnergyPJ  float64 // per-bit cell write energy

	// Reliability.
	EnduranceCycles float64 // write cycles before wear-out; +Inf for SRAM
	RetentionS      float64 // retention time in seconds; 0 for volatile

	// Electrical detail used by the array model and fault models.
	Sense          SenseScheme
	ResOnOhm       float64 // low-resistance state (resistive cells)
	ResOffOhm      float64 // high-resistance state (resistive cells)
	ReadVoltage    float64 // V applied on read
	WriteVoltage   float64 // V applied on write
	CellLeakagePW  float64 // per-bit standby leakage (SRAM/eDRAM only), pW
	RefreshPeriodS float64 // eDRAM refresh interval; 0 = no refresh

	// DtoDSigma is the normalized device-to-device variation of the stored
	// state, which parameterizes the fault model. For FeFETs it grows as the
	// cell shrinks (harder to program reliably — Section V-C / Fig 13).
	DtoDSigma float64
}

// LevelsPerCell returns the number of distinguishable storage levels.
func (d *Definition) LevelsPerCell() int { return 1 << d.BitsPerCell }

// EffectiveAreaF2PerBit is the cell footprint amortized over the bits it
// stores — the density figure of merit used for tentpole selection
// (Mb/F² in the paper is its reciprocal).
func (d *Definition) EffectiveAreaF2PerBit() float64 {
	if d.BitsPerCell <= 0 {
		return d.AreaF2
	}
	return d.AreaF2 / float64(d.BitsPerCell)
}

// DensityMbPerF2 is the paper's tentpole ranking metric: storage density in
// megabits per F² (so larger is denser).
func (d *Definition) DensityMbPerF2() float64 {
	a := d.EffectiveAreaF2PerBit()
	if a <= 0 {
		return 0
	}
	return 1 / a / 1e6
}

// CellWidthNM and CellHeightNM give the physical cell dimensions assuming a
// square layout, in nanometers.
func (d *Definition) CellWidthNM() float64 {
	return math.Sqrt(d.AreaF2) * d.NodeNM
}

// CellHeightNM returns the physical cell height in nanometers.
func (d *Definition) CellHeightNM() float64 { return d.CellWidthNM() }

// Volatile reports whether the cell loses state on power-off.
func (d *Definition) Volatile() bool { return d.Tech.Volatile() }

// Validate checks that the definition is physically meaningful and complete
// enough for array characterization.
func (d *Definition) Validate() error {
	switch {
	case d.Name == "":
		return fmt.Errorf("cell: definition has no name")
	case d.AreaF2 <= 0:
		return fmt.Errorf("cell %s: non-positive cell area %.3g F²", d.Name, d.AreaF2)
	case d.NodeNM < 5 || d.NodeNM > 1000:
		return fmt.Errorf("cell %s: implausible process node %.3g nm", d.Name, d.NodeNM)
	case d.BitsPerCell < 1 || d.BitsPerCell > 4:
		return fmt.Errorf("cell %s: bits per cell %d out of range [1,4]", d.Name, d.BitsPerCell)
	case d.ReadLatencyNS < 0 || d.WriteLatencyNS < 0:
		return fmt.Errorf("cell %s: negative access latency", d.Name)
	case d.ReadEnergyPJ < 0 || d.WriteEnergyPJ < 0:
		return fmt.Errorf("cell %s: negative access energy", d.Name)
	case d.EnduranceCycles <= 0:
		return fmt.Errorf("cell %s: endurance must be positive (use math.Inf(1) for unlimited)", d.Name)
	case !d.Volatile() && d.RetentionS <= 0:
		return fmt.Errorf("cell %s: non-volatile cell must declare retention", d.Name)
	case d.Sense < 0 || int(d.Sense) >= len(senseNames):
		return fmt.Errorf("cell %s: unknown sense scheme %d", d.Name, int(d.Sense))
	case d.Sense == CurrentSense && (d.ResOnOhm <= 0 || d.ResOffOhm <= d.ResOnOhm):
		return fmt.Errorf("cell %s: current sensing requires 0 < Ron < Roff", d.Name)
	case d.DtoDSigma < 0:
		return fmt.Errorf("cell %s: negative device variation", d.Name)
	}
	return nil
}

// String renders a one-line summary of the definition.
func (d *Definition) String() string {
	return fmt.Sprintf("%s[%s/%s %gF² @%gnm %dbpc r=%gns w=%gns]",
		d.Name, d.Tech, d.Flavor, d.AreaF2, d.NodeNM, d.BitsPerCell,
		d.ReadLatencyNS, d.WriteLatencyNS)
}
