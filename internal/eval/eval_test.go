package eval

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cell"
	"repro/internal/nn"
	"repro/internal/nvsim"
	"repro/internal/traffic"
)

func study(t *testing.T, tech cell.Technology, f cell.Flavor, capBytes int64) nvsim.Result {
	t.Helper()
	return nvsim.MustCharacterize(nvsim.Config{
		Cell: cell.MustTentpole(tech, f), CapacityBytes: capBytes, Target: nvsim.OptReadEDP})
}

func TestEvaluateBasics(t *testing.T) {
	arr := study(t, cell.STT, cell.Optimistic, 2<<20)
	p := traffic.Pattern{Name: "unit", ReadsPerSec: 1e6, WritesPerSec: 1e5}
	m := MustEvaluate(arr, p, Options{})
	wantDyn := (1e6*arr.ReadEnergyPJ + 1e5*arr.WriteEnergyPJ) * 1e-9
	if math.Abs(m.DynamicPowerMW-wantDyn) > 1e-12 {
		t.Errorf("dynamic power = %g, want %g", m.DynamicPowerMW, wantDyn)
	}
	if m.TotalPowerMW != m.DynamicPowerMW+m.LeakagePowerMW+m.RefreshPowerMW {
		t.Error("total power must be dynamic + leakage + refresh")
	}
	wantPole := (1e6*arr.ReadLatencyNS + 1e5*arr.WriteLatencyNS) * 1e-9
	if math.Abs(m.MemoryTimePerSec-wantPole) > 1e-12 {
		t.Errorf("long pole = %g, want %g", m.MemoryTimePerSec, wantPole)
	}
	if m.Slowdown != 1 {
		t.Errorf("no slowdown expected at this load, got %g", m.Slowdown)
	}
}

func TestEvaluateRejectsBadPattern(t *testing.T) {
	arr := study(t, cell.STT, cell.Optimistic, 1<<20)
	if _, err := Evaluate(arr, traffic.Pattern{ReadsPerSec: -1}, Options{}); err == nil {
		t.Error("negative traffic should be rejected")
	}
	if _, err := Evaluate(arr, traffic.Pattern{}, Options{
		WriteBuffer: &WriteBufferConfig{TrafficReduction: 1.5}}); err == nil {
		t.Error("invalid write-buffer config should be rejected")
	}
	if _, err := Evaluate(arr, traffic.Pattern{}, Options{
		WriteBuffer: &WriteBufferConfig{MaskLatency: true}}); err == nil {
		t.Error("masking without buffer latency should be rejected")
	}
}

func TestSlowdownDetection(t *testing.T) {
	// Pessimistic PCM's 30µs writes cannot sustain 1e5 writes/s.
	arr := study(t, cell.PCM, cell.Pessimistic, 2<<20)
	m := MustEvaluate(arr, traffic.Pattern{Name: "wr", WritesPerSec: 1e5}, Options{})
	if m.MemoryTimePerSec <= 1 || m.Slowdown <= 1 {
		t.Errorf("expected slowdown, pole = %g", m.MemoryTimePerSec)
	}
	if m.MeetsTaskRate {
		t.Error("saturated memory cannot meet rate")
	}
}

func TestTaskRateCheck(t *testing.T) {
	arr := study(t, cell.STT, cell.Optimistic, 2<<20)
	ok := MustEvaluate(arr, traffic.Pattern{
		Name: "60fps", ReadsPerTask: 1e4, TasksPerSec: 60}, Options{})
	if !ok.MeetsTaskRate {
		t.Error("10k reads per frame at 60fps is easily met")
	}
	slow := MustEvaluate(arr, traffic.Pattern{
		Name: "fast", ReadsPerTask: 2e7, TasksPerSec: 60}, Options{})
	if slow.MeetsTaskRate {
		t.Errorf("20M reads per frame at 60fps needs %.3fs per frame", slow.TaskLatencyS)
	}
}

func TestLifetime(t *testing.T) {
	arr := study(t, cell.RRAM, cell.Reference, 16<<20) // 1e6 endurance
	m := MustEvaluate(arr, traffic.Pattern{Name: "llc", WritesPerSec: 1e8}, Options{})
	// Per-cell write rate: 1e8 * 512 / (16MiB*8) = 381/s; endurance 1e6
	// gives ~2623s*0.9 ≈ 44 minutes.
	if m.LifetimeYears > 1e-3 || m.LifetimeYears <= 0 {
		t.Errorf("reference RRAM as a hot LLC should die in minutes, got %g years", m.LifetimeYears)
	}
	// STT with 1e15 endurance outlives everything.
	stt := MustEvaluate(study(t, cell.STT, cell.Optimistic, 16<<20),
		traffic.Pattern{Name: "llc", WritesPerSec: 1e8}, Options{})
	if stt.LifetimeYears < 1000 {
		t.Errorf("optimistic STT lifetime = %g years, want millennia", stt.LifetimeYears)
	}
	// No writes => lifetime bounded only by the (tiny) retention scrub —
	// effectively millennia for mature cells; SRAM => infinite.
	idle := MustEvaluate(arr, traffic.Pattern{Name: "idle"}, Options{})
	if idle.LifetimeYears < 1e5 {
		t.Errorf("write-free lifetime = %g years, want scrub-bounded millennia", idle.LifetimeYears)
	}
	sram := MustEvaluate(study(t, cell.SRAM, cell.Reference, 16<<20),
		traffic.Pattern{Name: "llc", WritesPerSec: 1e8}, Options{})
	if !math.IsInf(sram.LifetimeYears, 1) {
		t.Error("SRAM lifetime should be unbounded")
	}
}

func TestLifetimeOrderingFig8(t *testing.T) {
	// Fig 8 right: STT longest-lived, RRAM worst at equal write load.
	p := traffic.Pattern{Name: "gw", WritesPerSec: 1e6}
	stt := MustEvaluate(study(t, cell.STT, cell.Optimistic, 8<<20), p, Options{})
	pcm := MustEvaluate(study(t, cell.PCM, cell.Optimistic, 8<<20), p, Options{})
	rram := MustEvaluate(study(t, cell.RRAM, cell.Reference, 8<<20), p, Options{})
	if !(stt.LifetimeYears > pcm.LifetimeYears && pcm.LifetimeYears > rram.LifetimeYears) {
		t.Errorf("lifetime ordering STT(%g) > PCM(%g) > RRAM(%g) violated",
			stt.LifetimeYears, pcm.LifetimeYears, rram.LifetimeYears)
	}
}

func TestWriteBufferMasking(t *testing.T) {
	arr := study(t, cell.FeFET, cell.Optimistic, 8<<20)
	p := traffic.Pattern{Name: "wr-heavy", ReadsPerSec: 1e7, WritesPerSec: 5e6}
	base := MustEvaluate(arr, p, Options{})
	masked := MustEvaluate(arr, p, Options{WriteBuffer: &WriteBufferConfig{
		MaskLatency: true, BufferLatencyNS: 2}})
	if masked.MemoryTimePerSec >= base.MemoryTimePerSec {
		t.Error("masking write latency must reduce the long pole")
	}
	// Masking hides latency but not energy.
	if masked.DynamicPowerMW != base.DynamicPowerMW {
		t.Error("masking alone must not change dynamic power")
	}
}

func TestWriteBufferTrafficReduction(t *testing.T) {
	arr := study(t, cell.FeFET, cell.Optimistic, 8<<20)
	p := traffic.Pattern{Name: "wr-heavy", WritesPerSec: 4e6, WritesPerTask: 4e6, TasksPerSec: 1}
	base := MustEvaluate(arr, p, Options{})
	half := MustEvaluate(arr, p, Options{WriteBuffer: &WriteBufferConfig{TrafficReduction: 0.5}})
	if half.DynamicPowerMW >= base.DynamicPowerMW {
		t.Error("halving write traffic must cut dynamic power")
	}
	if half.LifetimeYears <= base.LifetimeYears {
		t.Error("halving write traffic must extend lifetime")
	}
	if half.MemoryTimePerSec >= base.MemoryTimePerSec {
		t.Error("halving write traffic must reduce the long pole")
	}
}

func TestIntermittentModel(t *testing.T) {
	arr := study(t, cell.STT, cell.Optimistic, 2<<20)
	r, err := IntermittentEnergy(arr, 1e5, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if r.EnergyPerDay <= 0 || r.PerEventMJ <= 0 {
		t.Fatal("energies must be positive")
	}
	wantStanding := arr.LeakagePowerMW * 86400
	if math.Abs(r.StandingMJ-wantStanding) > 1e-9*wantStanding {
		t.Errorf("standing = %g, want leakage*day = %g", r.StandingMJ, wantStanding)
	}
	if _, err := IntermittentEnergy(arr, 1e5, 0, 0); err == nil {
		t.Error("zero events should error")
	}
}

func TestIntermittentSRAMRestorePolicy(t *testing.T) {
	// At very low wake-up rates SRAM should power off and pay DRAM
	// restores instead of leaking all day.
	arr := study(t, cell.SRAM, cell.Reference, 2<<20)
	low, err := IntermittentEnergy(arr, 1e5, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !low.Restored {
		t.Error("SRAM should choose restore-per-wake at 10 events/day")
	}
	high, err := IntermittentEnergy(arr, 1e5, 0, 1e7)
	if err != nil {
		t.Fatal(err)
	}
	if high.Restored {
		t.Error("SRAM should stay powered at 1e7 events/day")
	}
}

func TestFig7Crossovers(t *testing.T) {
	// Figure 7: optimistic FeFET wins at low inference rates (leakage-
	// dominated), optimistic STT at high rates (access-dominated); the NLP
	// (ALBERT) crossover sits at a much lower rate than image
	// classification because each inference reads far more weight traffic.
	acc := traffic.NVDLA()
	crossover := func(net nn.NetworkShape) float64 {
		p := traffic.DNNTraffic(acc, &net, 0, 1, traffic.WeightsOnly)
		capBytes := int64(1)
		for capBytes < net.WeightBytes() {
			capBytes <<= 1
		}
		stt := study(t, cell.STT, cell.Optimistic, capBytes)
		fefet := study(t, cell.FeFET, cell.Optimistic, capBytes)

		lowF, _ := IntermittentEnergy(fefet, p.ReadsPerTask, 0, 100)
		lowS, _ := IntermittentEnergy(stt, p.ReadsPerTask, 0, 100)
		if lowF.EnergyPerDay >= lowS.EnergyPerDay {
			t.Errorf("%s: FeFET should win at 100 inf/day", net.Name)
		}
		hiF, _ := IntermittentEnergy(fefet, p.ReadsPerTask, 0, 1e8)
		hiS, _ := IntermittentEnergy(stt, p.ReadsPerTask, 0, 1e8)
		if hiS.EnergyPerDay >= hiF.EnergyPerDay {
			t.Errorf("%s: STT should win at 1e8 inf/day", net.Name)
		}
		return CrossoverEventsPerDay(fefet, stt, p.ReadsPerTask, 0, 1e2, 1e8)
	}
	img := crossover(nn.ResNet26Edge())
	nlp := crossover(nn.ALBERTBase())
	if math.IsNaN(img) || math.IsNaN(nlp) {
		t.Fatal("crossovers not found")
	}
	if nlp >= img {
		t.Errorf("NLP crossover (%.3g/day) should sit below image (%.3g/day)", nlp, img)
	}
	if nlp < 1e3 || nlp > 1e6 {
		t.Errorf("NLP crossover %.3g/day outside the paper's 1e4-1e5 decade neighborhood", nlp)
	}
}

func TestFig6IntermittentAtOneIPS(t *testing.T) {
	// Figure 6 right / Table II: at 1 inference/second, the winning eNVM is
	// a lower-density, read-cheap one (RRAM) for the NLP task rather than
	// the density champions.
	acc := traffic.NVDLA()
	net := nn.ALBERTBase()
	p := traffic.DNNTraffic(acc, &net, 0, 1, traffic.WeightsOnly)
	const events = 86400 // 1 IPS
	best := ""
	bestE := math.Inf(1)
	for _, tc := range []struct {
		tech cell.Technology
		f    cell.Flavor
	}{{cell.STT, cell.Optimistic}, {cell.RRAM, cell.Optimistic}, {cell.FeFET, cell.Optimistic}, {cell.PCM, cell.Optimistic}} {
		arr := study(t, tc.tech, tc.f, 16<<20)
		r, err := IntermittentEnergy(arr, p.ReadsPerTask, 0, events)
		if err != nil {
			t.Fatal(err)
		}
		if r.EnergyPerDay < bestE {
			bestE = r.EnergyPerDay
			best = arr.Cell.Name
		}
	}
	if best != "Opt. RRAM" {
		t.Errorf("1 IPS NLP winner = %s, want Opt. RRAM", best)
	}
}

// Property: power and long-pole latency are monotone in traffic.
func TestEvaluateMonotoneProperty(t *testing.T) {
	arr := study(t, cell.PCM, cell.Optimistic, 1<<20)
	f := func(r1, w1, scale uint16) bool {
		reads := float64(r1) * 1e3
		writes := float64(w1) * 1e3
		k := 1 + float64(scale%7)
		m1 := MustEvaluate(arr, traffic.Pattern{Name: "a", ReadsPerSec: reads, WritesPerSec: writes}, Options{})
		m2 := MustEvaluate(arr, traffic.Pattern{Name: "b", ReadsPerSec: reads * k, WritesPerSec: writes * k}, Options{})
		return m2.TotalPowerMW >= m1.TotalPowerMW-1e-15 &&
			m2.MemoryTimePerSec >= m1.MemoryTimePerSec-1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: intermittent daily energy is monotone in the event rate and
// per-event energy is monotone non-increasing.
func TestIntermittentMonotoneProperty(t *testing.T) {
	arr := study(t, cell.FeFET, cell.Optimistic, 2<<20)
	f := func(n1 uint32) bool {
		n := float64(n1%1000000 + 1)
		a, err1 := IntermittentEnergy(arr, 1e4, 0, n)
		b, err2 := IntermittentEnergy(arr, 1e4, 0, 2*n)
		if err1 != nil || err2 != nil {
			return false
		}
		return b.EnergyPerDay >= a.EnergyPerDay && b.PerEventMJ <= a.PerEventMJ+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
