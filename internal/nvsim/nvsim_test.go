package nvsim

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cell"
)

func TestNodeInterpolation(t *testing.T) {
	t.Parallel()
	// Anchor values come back exactly.
	n22 := nodeAt(22)
	if n22.Vdd != 0.85 || n22.FO4NS != 0.0100 {
		t.Errorf("22nm anchors wrong: %+v", n22)
	}
	// Interpolated nodes sit between their neighbors.
	n25 := nodeAt(25)
	if !(n25.FO4NS > n22.FO4NS && n25.FO4NS < nodeAt(28).FO4NS) {
		t.Errorf("25nm FO4 %v not between 22 and 28nm", n25.FO4NS)
	}
	// Clamping outside the table.
	if nodeAt(3).Vdd != nodeAt(7).Vdd {
		t.Error("below-range node should clamp to the 7nm row")
	}
	if nodeAt(1000).WireResOhmPerUM != nodeAt(130).WireResOhmPerUM {
		t.Error("above-range node should clamp to the 130nm row")
	}
}

func TestNodeMonotonicity(t *testing.T) {
	t.Parallel()
	// FO4 grows and wire resistance shrinks as the node relaxes.
	prev := nodeAt(8)
	for nm := 9.0; nm <= 129; nm++ {
		cur := nodeAt(nm)
		if cur.FO4NS < prev.FO4NS {
			t.Fatalf("FO4 not monotone at %gnm", nm)
		}
		if cur.WireResOhmPerUM > prev.WireResOhmPerUM {
			t.Fatalf("wire resistance not monotone at %gnm", nm)
		}
		prev = cur
	}
}

func TestEnumerate(t *testing.T) {
	t.Parallel()
	orgs := slices.Collect(organizations(2<<20*8, 1, 512))
	if len(orgs) == 0 {
		t.Fatal("no organizations for a 2MiB array")
	}
	want := nextPow2(2 << 20 * 8)
	for _, o := range orgs {
		if o.CellsTotal() != want {
			t.Fatalf("org %v holds %d cells, want %d", o, o.CellsTotal(), want)
		}
		if o.ActiveSubarrays(512, 1) == 0 {
			t.Fatalf("org %v cannot deliver the word", o)
		}
	}
}

func TestEnumerateMLCHalvesCells(t *testing.T) {
	t.Parallel()
	slc := slices.Collect(organizations(1<<20*8, 1, 512))
	mlc := slices.Collect(organizations(1<<20*8, 2, 512))
	if len(slc) == 0 || len(mlc) == 0 {
		t.Fatal("missing organizations")
	}
	if mlc[0].CellsTotal()*2 != slc[0].CellsTotal() {
		t.Errorf("2bpc should need half the cells: %d vs %d",
			mlc[0].CellsTotal(), slc[0].CellsTotal())
	}
}

func TestEnumerateRoundsUpNonPow2(t *testing.T) {
	t.Parallel()
	// The 3.6Mb validation macro is not a power of two.
	bits := int64(3686400)
	orgs := slices.Collect(organizations(bits, 1, 512))
	if len(orgs) == 0 {
		t.Fatal("no organizations for non-power-of-two capacity")
	}
	if got := orgs[0].CellsTotal(); got != 4194304 {
		t.Errorf("cells = %d, want 4Mi (rounded up)", got)
	}
}

func TestEnumerateDegenerate(t *testing.T) {
	t.Parallel()
	if slices.Collect(organizations(0, 1, 512)) != nil {
		t.Error("zero capacity should enumerate nothing")
	}
	if slices.Collect(organizations(1<<23, 0, 512)) != nil {
		t.Error("zero bits-per-cell should enumerate nothing")
	}
}

func TestNextPow2(t *testing.T) {
	t.Parallel()
	cases := map[int64]int64{1: 1, 2: 2, 3: 4, 1023: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := nextPow2(in); got != want {
			t.Errorf("nextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestOrganizationAccessors(t *testing.T) {
	t.Parallel()
	o := Organization{Banks: 4, Subarrays: 8, Rows: 1024, Cols: 2048, MuxDegree: 4}
	if o.BitsPerSubAccess(1) != 512 {
		t.Errorf("bits per sub = %d, want 512", o.BitsPerSubAccess(1))
	}
	if o.ActiveSubarrays(512, 1) != 1 {
		t.Errorf("active subs = %d, want 1", o.ActiveSubarrays(512, 1))
	}
	if o.ActiveSubarrays(4096, 1) != 8 {
		t.Errorf("active subs for 4096b = %d, want 8", o.ActiveSubarrays(4096, 1))
	}
	if o.ActiveSubarrays(8192, 1) != 0 {
		t.Error("word wider than the bank should be infeasible")
	}
}

func characterize(t *testing.T, d cell.Definition, capBytes int64, target OptTarget) Result {
	t.Helper()
	r, err := Characterize(Config{Cell: d, CapacityBytes: capBytes, Target: target})
	if err != nil {
		t.Fatalf("Characterize(%s): %v", d.Name, err)
	}
	return r
}

func TestCharacterizeBasics(t *testing.T) {
	t.Parallel()
	r := characterize(t, cell.MustTentpole(cell.STT, cell.Optimistic), 2<<20, OptReadEDP)
	if r.ReadLatencyNS <= 0 || r.WriteLatencyNS <= 0 ||
		r.ReadEnergyPJ <= 0 || r.WriteEnergyPJ <= 0 ||
		r.LeakagePowerMW <= 0 || r.AreaMM2 <= 0 {
		t.Fatalf("non-positive metrics: %+v", r)
	}
	if r.AreaEfficiency <= 0 || r.AreaEfficiency >= 1 {
		t.Errorf("area efficiency %v outside (0,1)", r.AreaEfficiency)
	}
	if r.WordBits != DefaultWordBits {
		t.Errorf("word bits defaulted to %d, want %d", r.WordBits, DefaultWordBits)
	}
	if r.DensityMbPerMM2() <= 0 || r.ReadBandwidthGBs() <= 0 || r.WriteBandwidthGBs() <= 0 {
		t.Error("derived metrics should be positive")
	}
}

func TestCharacterizeErrors(t *testing.T) {
	t.Parallel()
	good := cell.MustTentpole(cell.STT, cell.Optimistic)
	cases := []Config{
		{Cell: cell.Definition{}, CapacityBytes: 1 << 20},       // invalid cell
		{Cell: good, CapacityBytes: 0},                          // no capacity
		{Cell: good, CapacityBytes: 1 << 20, WordBits: 4},       // word too narrow
		{Cell: good, CapacityBytes: 1 << 20, WordBits: 1 << 20}, // word too wide
		{Cell: good, CapacityBytes: 1 << 20, Target: OptTarget(99)},
		{Cell: good, CapacityBytes: 1 << 20, MaxAreaMM2: 1e-9}, // impossible constraint
	}
	for i, cfg := range cases {
		if _, err := Characterize(cfg); err == nil {
			t.Errorf("case %d: expected an error", i)
		}
	}
}

func TestOptimizerPicksBestTarget(t *testing.T) {
	t.Parallel()
	// For every target, the chosen organization must be at least as good as
	// every other enumerated organization under that target's metric.
	d := cell.MustTentpole(cell.RRAM, cell.Optimistic)
	for _, target := range OptTargets() {
		all, err := CharacterizeAll(Config{Cell: d, CapacityBytes: 1 << 20, Target: target})
		if err != nil {
			t.Fatal(err)
		}
		best := all[0]
		for _, r := range all[1:] {
			if r.metric(target) < best.metric(target) {
				t.Fatalf("target %v: %v beats chosen %v", target, r.Org, best.Org)
			}
		}
	}
}

func TestOptimizerTargetsDiffer(t *testing.T) {
	t.Parallel()
	// Optimizing for area must not yield more area than optimizing for read
	// latency, and vice versa.
	d := cell.MustTentpole(cell.PCM, cell.Optimistic)
	areaOpt := characterize(t, d, 4<<20, OptArea)
	latOpt := characterize(t, d, 4<<20, OptReadLatency)
	if areaOpt.AreaMM2 > latOpt.AreaMM2 {
		t.Error("area-optimized array is larger than latency-optimized")
	}
	if latOpt.ReadLatencyNS > areaOpt.ReadLatencyNS {
		t.Error("latency-optimized array is slower than area-optimized")
	}
}

func TestCapacityScaling(t *testing.T) {
	t.Parallel()
	// More capacity costs more area and leakage at fixed technology.
	d := cell.MustTentpole(cell.STT, cell.Optimistic)
	small := characterize(t, d, 1<<20, OptReadEDP)
	big := characterize(t, d, 16<<20, OptReadEDP)
	if big.AreaMM2 <= small.AreaMM2 {
		t.Error("16MiB array should be larger than 1MiB")
	}
	if big.LeakagePowerMW <= small.LeakagePowerMW {
		t.Error("16MiB array should leak more than 1MiB")
	}
	if big.ReadLatencyNS < small.ReadLatencyNS {
		t.Error("16MiB array should not be faster than 1MiB")
	}
}

func TestMLCDensityGain(t *testing.T) {
	t.Parallel()
	slc := cell.MustTentpole(cell.RRAM, cell.Optimistic)
	mlc := cell.MustToMLC(slc, 2)
	rs := characterize(t, slc, 8<<20, OptReadEDP)
	rm := characterize(t, mlc, 8<<20, OptReadEDP)
	gain := rm.DensityMbPerMM2() / rs.DensityMbPerMM2()
	if gain < 1.4 || gain > 2.2 {
		t.Errorf("2bpc density gain = %.2fx, want roughly 2x", gain)
	}
}

func TestFig5Shape2MB(t *testing.T) {
	t.Parallel()
	// Section IV-A1 / Figure 5 at 2MB (NVDLA buffer replacement):
	//   - read energy tiers: STT, PCM, RRAM below SRAM; FeFET above
	//   - optimistic FeFET is the densest array
	//   - optimistic STT is ~6x denser than SRAM at competitive latency
	//   - PCM and RRAM beat SRAM on read latency and density
	const capBytes = 2 << 20
	res := map[string]Result{}
	for _, d := range []cell.Definition{
		cell.MustTentpole(cell.SRAM, cell.Reference),
		cell.MustTentpole(cell.STT, cell.Optimistic),
		cell.MustTentpole(cell.PCM, cell.Optimistic),
		cell.MustTentpole(cell.RRAM, cell.Optimistic),
		cell.MustTentpole(cell.FeFET, cell.Optimistic),
		cell.MustTentpole(cell.PCM, cell.Pessimistic),
	} {
		res[d.Name] = characterize(t, d, capBytes, OptReadEDP)
	}
	sram := res["SRAM"]
	for _, name := range []string{"Opt. STT", "Opt. PCM", "Opt. RRAM"} {
		if res[name].ReadEnergyPJ >= sram.ReadEnergyPJ {
			t.Errorf("%s read energy %.0fpJ should undercut SRAM %.0fpJ",
				name, res[name].ReadEnergyPJ, sram.ReadEnergyPJ)
		}
	}
	if res["Opt. FeFET"].ReadEnergyPJ <= sram.ReadEnergyPJ {
		t.Error("FeFET reads should cost more than SRAM (upper tier)")
	}
	fefet := res["Opt. FeFET"]
	for name := range res {
		r := res[name]
		if name != "Opt. FeFET" && r.DensityMbPerMM2() > fefet.DensityMbPerMM2() {
			t.Errorf("%s denser than optimistic FeFET", name)
		}
	}
	stt := res["Opt. STT"]
	sttRatio := stt.DensityMbPerMM2() / sram.DensityMbPerMM2()
	if sttRatio < 4 || sttRatio > 8 {
		t.Errorf("STT density advantage = %.1fx, want ~6x (accept 4-8x)", sttRatio)
	}
	for _, name := range []string{"Opt. PCM", "Opt. RRAM"} {
		if res[name].ReadLatencyNS >= sram.ReadLatencyNS {
			t.Errorf("%s read latency %.2fns should beat SRAM %.2fns",
				name, res[name].ReadLatencyNS, sram.ReadLatencyNS)
		}
	}
	// Pessimistic PCM is the outlier that cannot compete on reads.
	if res["Pess. PCM"].ReadLatencyNS < 4*sram.ReadLatencyNS {
		t.Error("pessimistic PCM should be far off SRAM read latency")
	}
	// Every eNVM leaks far less than SRAM; FeFET leaks least.
	for _, name := range []string{"Opt. STT", "Opt. PCM", "Opt. RRAM", "Opt. FeFET"} {
		if res[name].LeakagePowerMW > sram.LeakagePowerMW/4 {
			t.Errorf("%s leakage %.2fmW not <4x below SRAM %.2fmW",
				name, res[name].LeakagePowerMW, sram.LeakagePowerMW)
		}
	}
	for name, r := range res {
		if name != "SRAM" && r.LeakagePowerMW < res["Opt. FeFET"].LeakagePowerMW && name != "Opt. FeFET" {
			t.Errorf("%s leaks less than optimistic FeFET", name)
		}
	}
}

func TestFig10Shape16MB(t *testing.T) {
	t.Parallel()
	// Section IV-C / Figure 10 at 16MB (LLC replacement): STT beats SRAM
	// write latency; PCM and FeFET cannot; STT offers pareto-optimal reads.
	const capBytes = 16 << 20
	sram := characterize(t, cell.MustTentpole(cell.SRAM, cell.Reference), capBytes, OptWriteEDP)
	stt := characterize(t, cell.MustTentpole(cell.STT, cell.Optimistic), capBytes, OptWriteEDP)
	fefet := characterize(t, cell.MustTentpole(cell.FeFET, cell.Optimistic), capBytes, OptWriteEDP)
	pcm := characterize(t, cell.MustTentpole(cell.PCM, cell.Optimistic), capBytes, OptWriteEDP)
	if stt.WriteLatencyNS >= sram.WriteLatencyNS {
		t.Errorf("STT write %.2fns should beat SRAM %.2fns", stt.WriteLatencyNS, sram.WriteLatencyNS)
	}
	if fefet.WriteLatencyNS < 5*sram.WriteLatencyNS {
		t.Error("FeFET writes should be far slower than SRAM")
	}
	if pcm.WriteLatencyNS < 5*sram.WriteLatencyNS {
		t.Error("PCM writes should be far slower than SRAM")
	}
	sttRead := characterize(t, cell.MustTentpole(cell.STT, cell.Optimistic), capBytes, OptReadEDP)
	sramRead := characterize(t, cell.MustTentpole(cell.SRAM, cell.Reference), capBytes, OptReadEDP)
	if sttRead.ReadLatencyNS > sramRead.ReadLatencyNS ||
		sttRead.ReadEnergyPJ > sramRead.ReadEnergyPJ {
		t.Error("optimistic STT should pareto-dominate SRAM reads at 16MB")
	}
}

func TestFig4TentpoleValidation(t *testing.T) {
	t.Parallel()
	// Section III-C: optimistic and pessimistic STT arrays must bracket the
	// published 1MB macro and stay within an order of magnitude of it.
	target := cell.ValidationTargets()[0]
	opt := cell.Normalize(cell.MustTentpole(cell.STT, cell.Optimistic), target.NodeNM)
	pess := cell.Normalize(cell.MustTentpole(cell.STT, cell.Pessimistic), target.NodeNM)
	ro := characterize(t, opt, target.CapacityBytes, OptReadEDP)
	rp := characterize(t, pess, target.CapacityBytes, OptReadEDP)
	if !(ro.ReadLatencyNS < target.ReadLatencyNS && target.ReadLatencyNS < rp.ReadLatencyNS) {
		t.Errorf("read latency bracket failed: opt %.2f < macro %.2f < pess %.2f",
			ro.ReadLatencyNS, target.ReadLatencyNS, rp.ReadLatencyNS)
	}
	for _, r := range []Result{ro, rp} {
		if r.ReadLatencyNS < target.ReadLatencyNS/10 || r.ReadLatencyNS > target.ReadLatencyNS*10 {
			t.Errorf("tentpole %s latency %.2fns not within 10x of the macro's %.2fns",
				r.Cell.Name, r.ReadLatencyNS, target.ReadLatencyNS)
		}
		if r.AreaMM2 < target.AreaMM2/10 || r.AreaMM2 > target.AreaMM2*10 {
			t.Errorf("tentpole %s area %.3fmm² not within 10x of the macro's %.3fmm²",
				r.Cell.Name, r.AreaMM2, target.AreaMM2)
		}
	}
}

func TestBGFeFETShape(t *testing.T) {
	t.Parallel()
	// Section V-A: back-gated FeFETs trade a slight read-energy and density
	// penalty for ~10x faster writes than the optimistic FeFET.
	const capBytes = 8 << 20
	bg := characterize(t, cell.MustTentpole(cell.BGFeFET, cell.Reference), capBytes, OptReadEDP)
	opt := characterize(t, cell.MustTentpole(cell.FeFET, cell.Optimistic), capBytes, OptReadEDP)
	if bg.WriteLatencyNS >= opt.WriteLatencyNS/3 {
		t.Errorf("BG-FeFET write %.1fns should be far below FeFET %.1fns",
			bg.WriteLatencyNS, opt.WriteLatencyNS)
	}
	if bg.DensityMbPerMM2() >= opt.DensityMbPerMM2() {
		t.Error("BG-FeFET should be slightly less dense")
	}
	if bg.ReadEnergyPJ <= opt.ReadEnergyPJ {
		t.Error("BG-FeFET should read slightly more expensively")
	}
}

func TestFig12AreaEfficiencyLatencyCorrelation(t *testing.T) {
	t.Parallel()
	// Section V-B: organizations with lower area efficiency (less periphery
	// amortization) tend to achieve lower read latency. Check that the
	// fastest decile has lower mean efficiency than the slowest decile.
	all, err := CharacterizeAll(Config{
		Cell:          cell.MustTentpole(cell.STT, cell.Optimistic),
		CapacityBytes: 8 << 20,
		Target:        OptReadLatency,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 20 {
		t.Skipf("only %d organizations; need more for a decile comparison", len(all))
	}
	n := len(all) / 10
	meanEff := func(rs []Result) float64 {
		s := 0.0
		for _, r := range rs {
			s += r.AreaEfficiency
		}
		return s / float64(len(rs))
	}
	fast, slow := meanEff(all[:n]), meanEff(all[len(all)-n:])
	if fast >= slow {
		t.Errorf("fastest decile efficiency %.2f should be below slowest decile %.2f", fast, slow)
	}
}

func TestForceBanks(t *testing.T) {
	t.Parallel()
	r, err := Characterize(Config{
		Cell:          cell.MustTentpole(cell.STT, cell.Optimistic),
		CapacityBytes: 2 << 20,
		Target:        OptReadEDP,
		ForceBanks:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Org.Banks != 4 {
		t.Errorf("banks = %d, want 4", r.Org.Banks)
	}
}

func TestParseOptTarget(t *testing.T) {
	t.Parallel()
	for _, target := range OptTargets() {
		got, err := ParseOptTarget(target.String())
		if err != nil || got != target {
			t.Errorf("round trip failed for %v", target)
		}
	}
	if _, err := ParseOptTarget("Bogus"); err == nil {
		t.Error("unknown target should error")
	}
	if OptTarget(99).String() == "" {
		t.Error("out-of-range target should still render")
	}
}

// Property: for any capacity and study cell, the optimizer's pick under
// OptReadLatency is never slower than its pick under any other target.
func TestReadLatencyOptimalityProperty(t *testing.T) {
	t.Parallel()
	cells := cell.CaseStudyCells()
	f := func(capExp uint8, cellIdx uint8, targetIdx uint8) bool {
		capBytes := int64(1) << (18 + capExp%6) // 256KiB..8MiB
		d := cells[int(cellIdx)%len(cells)]
		target := OptTargets()[int(targetIdx)%len(OptTargets())]
		rLat, err1 := Characterize(Config{Cell: d, CapacityBytes: capBytes, Target: OptReadLatency})
		rOther, err2 := Characterize(Config{Cell: d, CapacityBytes: capBytes, Target: target})
		if err1 != nil || err2 != nil {
			return false
		}
		return rLat.ReadLatencyNS <= rOther.ReadLatencyNS+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: all characterized metrics are finite and positive.
func TestMetricsFiniteProperty(t *testing.T) {
	t.Parallel()
	cells := cell.CaseStudyCells()
	f := func(capExp, cellIdx uint8) bool {
		capBytes := int64(1) << (17 + capExp%9) // 128KiB..32MiB
		d := cells[int(cellIdx)%len(cells)]
		r, err := Characterize(Config{Cell: d, CapacityBytes: capBytes, Target: OptReadEDP})
		if err != nil {
			return false
		}
		for _, v := range []float64{r.ReadLatencyNS, r.WriteLatencyNS, r.ReadEnergyPJ,
			r.WriteEnergyPJ, r.LeakagePowerMW, r.AreaMM2, r.AreaEfficiency} {
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
