package nvsim

import (
	"math"
	"math/bits"

	"repro/internal/cell"
)

// This file holds the circuit-level models that score one organization
// candidate: timing (Elmore RC + staged logic), access energy (activation +
// sensing + interconnect), leakage, and area. The companion array.go wraps
// them with enumeration and target selection.
//
// Scoring is split into two levels so the organization loop stays lean:
// initCell derives everything that depends only on (cell, node, word width,
// calibration) — per-cell geometry, sense-amp timing, per-bit energies,
// activation voltages — exactly once per characterization, and setOrg
// derives the per-candidate wire/area terms. Every hoisted value is the
// same subexpression an unhoisted formula would evaluate, so candidate
// scores are bit-identical to scoring each organization from scratch.

// log2i returns ceil(log2(n)) for n >= 1. Powers of two (every enumerated
// organization axis) take the exact integer fast path.
func log2i(n int) float64 {
	if n <= 1 {
		return 0
	}
	if n&(n-1) == 0 {
		return float64(bits.Len(uint(n)) - 1)
	}
	return math.Ceil(math.Log2(float64(n)))
}

// schemeIndex maps a sense scheme to the calibration's area table key.
func schemeIndex(s cell.SenseScheme) int { return int(s) }

// model evaluates organizations for one cell at one node. A single model
// value is reused across the candidates of one characterization: initCell
// runs once, setOrg overwrites the per-organization state per candidate, so
// the scoring loop allocates and recomputes nothing cell-invariant.
type model struct {
	cell cell.Definition
	node techNode
	cal  *calibration
	org  Organization
	word int

	// Per-characterization invariants (initCell).
	fUM           float64 // feature size in µm
	cellW, cellH  float64
	gatePerCell   float64 // access-device gate cap, fF
	drainPerCell  float64
	rowStripUM    float64 // row-periphery strip width, µm
	colStripUM    float64 // column-periphery strip height, µm
	bankRouteMult float64 // 1 + BankRoutingFrac
	glblRouteMult float64 // 1 + GlobalRoutingFrac
	wlDriverNS    float64 // wordline driver insertion delay
	saDelayNS     float64 // sense-amp resolve at this node
	prechNS       float64 // bitline precharge at this node
	senseCellNS   float64 // SenseScale × cell read latency
	writeDriveNS  float64 // write driver insertion delay
	bitsF         float64 // word width as float
	eSensePJ      float64 // per-access sensing energy (bits × per-bit)
	eReadCellPJ   float64 // per-access cell read energy
	eWriteCellPJ  float64 // per-access cell write energy
	vWLRead       float64 // read wordline activation voltage
	vWLWrite      float64 // write wordline activation voltage
	vDrive        float64 // write bitline drive voltage
	saLeakMW      float64 // per-amp static leak for this sense scheme
	vddRatio      float64 // Vdd vs the 22nm reference bias

	// Per-organization state (setOrg).
	wlLen, blLen  float64
	rwl, cwl      float64 // wordline R (Ω), C (fF)
	rbl, cbl      float64 // bitline R (Ω), C (fF)
	activeSubs    int
	saPerSubarray int
	subCoreMM2    float64
	subTotalMM2   float64
	bankMM2       float64
	totalMM2      float64
	coreMM2       float64
	decoderNS     float64 // row/subarray decode chain
	wlNS          float64 // wordline Elmore delay
	htreeMM       float64 // routed H-tree distance per access
	htreeNS       float64
	htreeVddPJ    float64 // H-tree toggle energy at Vdd
	decoderPJ     float64
}

// initCell configures the model for one characterization, overwriting any
// previous state. node must be nodeAt(c.NodeNM); it is passed in so the
// interpolation runs once per characterization rather than once per
// candidate.
func (m *model) initCell(c cell.Definition, node techNode, wordBits int, cal *calibration) {
	*m = model{cell: c, node: node, cal: cal, word: wordBits}
	fUM := c.NodeNM * 1e-3 // F in µm
	m.fUM = fUM
	m.cellW = math.Sqrt(c.AreaF2) * fUM
	m.cellH = m.cellW
	m.gatePerCell = node.GateCapFFPerUM * 2 * fUM // 2F-wide access device
	m.drainPerCell = 0.6 * m.gatePerCell
	m.rowStripUM = cal.RowDriverWidthF * fUM
	m.colStripUM = cal.ColSenseHeightF[schemeIndex(c.Sense)] * fUM
	m.bankRouteMult = 1 + cal.BankRoutingFrac
	m.glblRouteMult = 1 + cal.GlobalRoutingFrac

	// Timing invariants. Sense-amp resolve and precharge are calibrated at
	// the 22nm reference and scale with the node's FO4.
	m.wlDriverNS = cal.WLDriverFO4 * node.FO4NS
	base := cal.VSenseDelayNS
	switch c.Sense {
	case cell.CurrentSense:
		base = cal.ISenseDelayNS
	case cell.FETSense:
		base = cal.FETSenseDelayNS
	}
	m.saDelayNS = base * node.FO4NS / node22.FO4NS
	m.prechNS = cal.PrechargeNS * node.FO4NS / node22.FO4NS
	m.senseCellNS = cal.SenseScale * c.ReadLatencyNS
	m.writeDriveNS = 2 * node.FO4NS

	// Energy invariants (per access of wordBits bits).
	m.bitsF = float64(wordBits)
	scale := node.Vdd * node.Vdd / (0.85 * 0.85) // vs 22nm reference
	perBit := cal.VSensePJ
	switch c.Sense {
	case cell.CurrentSense:
		perBit = cal.ISensePJ
	case cell.FETSense:
		perBit = cal.FETSensePJ
	}
	m.eSensePJ = m.bitsF * (perBit * scale)
	m.eReadCellPJ = m.bitsF * c.ReadEnergyPJ
	m.eWriteCellPJ = m.bitsF * c.WriteEnergyPJ

	// Wordline activation: FET sensing boosts to the read voltage; others
	// fire at Vdd. Writes drive the larger of the write voltage and Vdd.
	m.vWLRead = node.Vdd
	if c.Sense == cell.FETSense {
		m.vWLRead = math.Max(node.Vdd, 2*c.ReadVoltage)
	}
	m.vWLWrite = math.Max(node.Vdd, c.WriteVoltage)
	m.vDrive = math.Max(c.WriteVoltage, node.Vdd)

	// Leakage invariants.
	m.saLeakMW = cal.SALeakMW[schemeIndex(c.Sense)]
	m.vddRatio = node.Vdd / 0.85
}

// setOrg derives the per-candidate state for one organization: wire RC,
// area accounting, and the delay/energy terms reused by several figures of
// merit (decode chain, wordline, H-tree route).
func (m *model) setOrg(org Organization) {
	m.org = org
	m.wlLen = float64(org.Cols) * m.cellW
	m.blLen = float64(org.Rows) * m.cellH

	m.rwl = m.node.WireResOhmPerUM * m.wlLen
	m.cwl = m.node.WireCapFFPerUM*m.wlLen + float64(org.Cols)*m.gatePerCell
	m.rbl = m.node.WireResOhmPerUM * m.blLen
	m.cbl = m.node.WireCapFFPerUM*m.blLen + float64(org.Rows)*m.drainPerCell

	m.activeSubs = org.ActiveSubarrays(m.word, m.cell.BitsPerCell)
	m.saPerSubarray = org.Cols / org.MuxDegree

	// Area accounting (mm²). 1 µm² = 1e-6 mm².
	core := float64(org.Rows) * float64(org.Cols) * m.cell.AreaF2 * m.fUM * m.fUM * 1e-6
	rowPeriph := float64(org.Rows) * m.cellH * m.rowStripUM * 1e-6
	colPeriph := float64(org.Cols) * m.cellW * m.colStripUM * 1e-6
	m.subCoreMM2 = core
	m.subTotalMM2 = core + rowPeriph + colPeriph + m.cal.ControlAreaFrac*core
	m.bankMM2 = float64(org.Subarrays) * m.subTotalMM2 * m.bankRouteMult
	m.totalMM2 = float64(org.Banks) * m.bankMM2 * m.glblRouteMult
	m.coreMM2 = float64(org.Banks) * float64(org.Subarrays) * core

	// Shared per-candidate terms: several metrics sum the same decode,
	// wordline, and H-tree contributions.
	stages := log2i(org.Rows) + log2i(org.Subarrays)
	m.decoderNS = stages*m.cal.DecoderFO4PerStage*m.node.FO4NS + m.wlDriverNS
	m.wlNS = elmoreNS(m.rwl, m.cwl)
	m.htreeMM = m.cal.HtreePathFrac *
		(0.5*math.Sqrt(m.totalMM2) + 0.7*math.Sqrt(m.bankMM2))
	m.htreeNS = m.cal.HtreeNSPerMM * m.htreeMM
	capFF := m.node.WireCapFFPerUM * m.htreeMM * 1000 // route cap
	m.htreeVddPJ = m.bitsF * capEnergyPJ(capFF, m.node.Vdd) * m.cal.HtreeEnergyFrac
	m.decoderPJ = 0.2 + 0.002*log2i(org.Rows)*float64(m.activeSubs)
}

// --- timing ---------------------------------------------------------------

// elmoreNS converts an R(Ω)·C(fF) product into nanoseconds with the 0.38
// distributed-line coefficient.
func elmoreNS(r, cFF float64) float64 { return 0.38 * r * cFF * 1e-6 }

// senseSettleNS is the bitline development time, per sensing scheme.
func (m *model) senseSettleNS() float64 {
	switch m.cell.Sense {
	case cell.VoltageSense:
		// Bitline precharge phase, then swing development by cell current.
		swing := m.cbl * m.cal.VSwing / m.cal.SRAMCellUA // fF·V/µA = ns
		return m.prechNS + 0.3*elmoreNS(m.rbl, m.cbl) + swing
	case cell.CurrentSense:
		// Bias the bitline through the cell's on-resistance.
		return 0.69 * (m.cell.ResOnOhm + m.rbl) * m.cbl * 1e-6
	default: // FETSense
		// Boosted wordline settles before the cell transistor is compared
		// against the reference.
		return 1.5*m.wlNS + 0.69*m.rbl*m.cbl*1e-6 + 0.2
	}
}

func (m *model) muxDelayNS() float64 {
	return log2i(m.org.MuxDegree) * 1.5 * m.node.FO4NS
}

func (m *model) readLatencyNS() float64 {
	return m.decoderNS + m.wlNS + m.senseSettleNS() +
		m.senseCellNS + m.saDelayNS +
		m.muxDelayNS() + m.htreeNS
}

func (m *model) writeLatencyNS() float64 {
	t := m.decoderNS + m.wlNS + m.cell.WriteLatencyNS +
		m.writeDriveNS + m.htreeNS
	if m.cell.Sense == cell.VoltageSense {
		// Differential bitlines must be restored before the next access.
		t += m.prechNS
	}
	return t
}

// --- energy (pJ per access of m.word bits) --------------------------------

// capEnergyPJ is C(fF)·V² in picojoules.
func capEnergyPJ(cFF, v float64) float64 { return cFF * v * v * 1e-3 }

func (m *model) readEnergyPJ() float64 {
	active := float64(m.activeSubs)
	eWL := active * capEnergyPJ(m.cwl, m.vWLRead)

	var eBL float64
	switch m.cell.Sense {
	case cell.VoltageSense:
		// All bitlines in the activated subarrays precharge and swing —
		// this is what makes large SRAM rows expensive.
		eBL = active * float64(m.org.Cols) * m.cbl * m.node.Vdd * m.cal.VSwing * 1e-3
	default:
		// Selective column bias: only the selected bitlines toggle.
		eBL = m.bitsF * capEnergyPJ(m.cbl, m.cell.ReadVoltage)
	}
	return m.decoderPJ + eWL + eBL + m.eSensePJ + m.eReadCellPJ + m.htreeVddPJ
}

func (m *model) writeEnergyPJ() float64 {
	active := float64(m.activeSubs)
	eWL := active * capEnergyPJ(m.cwl, m.vWLWrite)
	eDrive := m.bitsF * capEnergyPJ(m.cbl, m.vDrive)
	return m.decoderPJ + eWL + eDrive + m.eWriteCellPJ + m.htreeVddPJ
}

// --- leakage (mW) ----------------------------------------------------------

func (m *model) leakagePowerMW() float64 {
	peripheryMM2 := m.totalMM2 - m.coreMM2
	leak := m.node.LeakMWPerMM2 * peripheryMM2
	// Sense amplifiers hold static bias.
	saCount := float64(m.org.Banks) * float64(m.org.Subarrays) * float64(m.saPerSubarray)
	leak += saCount * m.saLeakMW * m.vddRatio
	// Volatile cells leak (SRAM) or burn refresh (eDRAM, folded into the
	// per-bit figure).
	if m.cell.CellLeakagePW > 0 {
		bitsTotal := float64(m.org.CellsTotal()) * float64(m.cell.BitsPerCell)
		leak += bitsTotal * m.cell.CellLeakagePW * 1e-9
	}
	return leak
}

// areaEfficiency is core cell area over total macro area.
func (m *model) areaEfficiency() float64 {
	if m.totalMM2 <= 0 {
		return 0
	}
	return m.coreMM2 / m.totalMM2
}
