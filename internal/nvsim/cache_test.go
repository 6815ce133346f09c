package nvsim

import (
	"math"
	"testing"

	"repro/internal/cell"
)

func TestTagBitsPerLine(t *testing.T) {
	t.Parallel()
	g := StudyCacheGeometry()
	// 16MB, 64B lines, 16 ways: 16384 sets -> 14 set bits, 6 offset bits,
	// 48-14-6 = 28 tag bits + 4 state = 32.
	bits, err := g.TagBitsPerLine(16 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if bits != 32 {
		t.Errorf("tag bits = %d, want 32", bits)
	}
	if _, err := g.TagBitsPerLine(100); err == nil {
		t.Error("non-divisible capacity should error")
	}
	bad := CacheGeometry{}
	if _, err := bad.TagBitsPerLine(1 << 20); err == nil {
		t.Error("invalid geometry should error")
	}
}

func TestCharacterizeCacheComposition(t *testing.T) {
	t.Parallel()
	cfg := CacheConfig{
		Config: Config{
			Cell:          cell.MustTentpole(cell.STT, cell.Optimistic),
			CapacityBytes: 16 << 20,
			Target:        OptReadEDP,
		},
		Geometry: StudyCacheGeometry(),
	}
	c, err := CharacterizeCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.ReadLatencyNS <= c.Data.ReadLatencyNS {
		t.Error("cache lookup must add tag/comparator latency over the raw array")
	}
	if c.ReadEnergyPJ <= c.Data.ReadEnergyPJ {
		t.Error("cache lookup must add tag energy")
	}
	if c.AreaMM2 <= c.Data.AreaMM2 {
		t.Error("tags must add area")
	}
	// Tag overhead for 64B lines is ~32/512 of capacity: a few percent of
	// area, bounded well below 20%.
	if f := c.TagOverheadFraction(); f <= 0 || f > 0.30 {
		t.Errorf("tag overhead fraction = %.3f, want small positive", f)
	}
}

func TestCharacterizeCacheSRAMTags(t *testing.T) {
	t.Parallel()
	base := CacheConfig{
		Config: Config{
			Cell:          cell.MustTentpole(cell.FeFET, cell.Optimistic),
			CapacityBytes: 16 << 20,
			Target:        OptReadEDP,
		},
		Geometry: StudyCacheGeometry(),
	}
	same, err := CharacterizeCache(base)
	if err != nil {
		t.Fatal(err)
	}
	base.TagsInSRAM = true
	sramTags, err := CharacterizeCache(base)
	if err != nil {
		t.Fatal(err)
	}
	// SRAM tags dodge the FeFET write pulse on every fill: composite write
	// latency must improve dramatically (tag update no longer waits ~100ns),
	// at the cost of tag leakage.
	if sramTags.Tag.WriteLatencyNS >= same.Tag.WriteLatencyNS {
		t.Errorf("SRAM tag writes (%.2fns) should beat FeFET tag writes (%.2fns)",
			sramTags.Tag.WriteLatencyNS, same.Tag.WriteLatencyNS)
	}
	if sramTags.LeakagePowerMW <= same.LeakagePowerMW {
		t.Error("SRAM tags should leak more than FeFET tags")
	}
	if sramTags.Tag.Cell.Volatile() != true {
		t.Error("SRAM tag store should be volatile")
	}
	if math.IsInf(sramTags.Tag.Cell.EnduranceCycles, 1) != true {
		t.Error("SRAM tag store should have unlimited endurance")
	}
}

func TestCharacterizeCacheErrors(t *testing.T) {
	t.Parallel()
	bad := CacheConfig{
		Config:   Config{Cell: cell.Definition{}, CapacityBytes: 1 << 20},
		Geometry: StudyCacheGeometry(),
	}
	if _, err := CharacterizeCache(bad); err == nil {
		t.Error("invalid data cell should error")
	}
	cfg := CacheConfig{
		Config: Config{
			Cell:          cell.MustTentpole(cell.STT, cell.Optimistic),
			CapacityBytes: 100, // not line-divisible
			Target:        OptReadEDP,
		},
		Geometry: StudyCacheGeometry(),
	}
	if _, err := CharacterizeCache(cfg); err == nil {
		t.Error("non-divisible capacity should error")
	}
}
