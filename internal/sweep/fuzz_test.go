package sweep

import (
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"encoding/json"
	"errors"
	"math"
	"strconv"
	"testing"

	"repro/internal/viz"
)

// FuzzExpand feeds study descriptions — what a POST body or a shard
// request carries — with the request-level options ("pareto", "mode",
// "budget", "seed") through Parse and Expand. Every input must either fail
// as a parse, option or validation error (Parse, the options or
// Config.Study reject it) or as a *SpaceError, or expand to a study whose
// effective config passes Rebuild under its fingerprint with the same grid
// size and config bytes: the invariant the job journal, the query index and
// the shard handler rely on.
func FuzzExpand(f *testing.F) {
	for _, seed := range []string{
		multiAxisConfig,
		dnnConfig,
		legacyConfig,
		adaptiveRefConfig("fuzz_adaptive", []string{`{"technology": "STT", "flavor": "Opt"}`}, 4, ""),
		adaptiveRefConfig("fuzz_adaptive_axes", []string{`{"technology": "FeFET", "flavor": "Opt"}`}, 3, `
  "write_buffers": [null, {"mask_latency": true, "buffer_latency_ns": 1}],
  "fault": {"modes": ["none", "raw"], "seed": 9, "probe_bytes": 256},
  "budget": 2,`),
		`{"name": "no capacities", "cells": [{"technology": "STT", "flavor": "Opt"}],
  "traffic": {"fixed": [{"name": "t", "reads_per_sec": 1}]}}`,
		`{"name":`,
		`not json`,
	} {
		f.Add([]byte(seed), "", "", "", "")
	}
	f.Add([]byte(multiAxisConfig), "read_latency_ns, area_mm2", "adaptive", "3", "7")
	f.Add([]byte(dnnConfig), "read_energy_pj", "exhaustive", "", "-2")
	f.Add([]byte(legacyConfig), ",", "adaptive", "0", "")
	f.Add([]byte(multiAxisConfig), "", "", "abc", "1.5")
	f.Fuzz(func(t *testing.T, data []byte, pareto, mode, budget, seed string) {
		// The design space has no size limit yet, and generic traffic makes
		// points² patterns: a mutated points count would spend this target's
		// time and memory building patterns. Such inputs are skipped until
		// sweep parsing bounds the grid.
		var probe struct {
			Traffic struct {
				Generic *struct{ Points int } `json:"generic"`
			} `json:"traffic"`
		}
		json.Unmarshal(data, &probe)
		if g := probe.Traffic.Generic; g != nil && g.Points > 64 {
			t.Skip("generic traffic grid larger than this target explores")
		}

		opts := map[string]string{"pareto": pareto, "mode": mode, "budget": budget, "seed": seed}
		get := func(name string) string { return opts[name] }
		x, err := Expand(data, get, nil)
		if err != nil {
			if errors.As(err, new(*SpaceError)) {
				return
			}
			cfg, perr := Parse(bytes.NewReader(data))
			if perr == nil {
				perr = cfg.override(get)
			}
			if perr == nil {
				_, perr = cfg.Study()
			}
			if perr == nil {
				t.Fatalf("Expand failed past parsing, options and validation without a SpaceError: %v", err)
			}
			return
		}
		again, err := Rebuild(x.Config, x.Fingerprint, nil)
		if err != nil {
			t.Fatalf("the effective config does not rebuild its study: %v\n%s", err, x.Config)
		}
		if again.Points != x.Points || !bytes.Equal(again.Config, x.Config) {
			t.Fatalf("rebuild drifted: points %d -> %d, config\n%s\n->\n%s",
				x.Points, again.Points, x.Config, again.Config)
		}
	})
}

// FuzzRowEncoderMemo drives the float-field memo with row sequences built
// from fuzzed float bits, drawn from a small pool so that values repeat
// from row to row (as a grid's array fields do) and seeded with ±0, NaN
// payloads, ±Inf and a subnormal. One long-lived encoder must render every
// row exactly as a fresh encoder does, in the compact, indented and CSV
// layouts; the compact row must equal the memo-free AppendJSON, and the
// CSV row must equal encoding/csv's record of the row's table cells.
func FuzzRowEncoderMemo(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 0xff, 7, 7, 9}, "SRAM", "generic r1GBs w0.01GBs", uint64(0x7ff8000000000001), byte(0xf))
	f.Add([]byte{5, 5, 5, 5, 6, 6, 1, 0}, `a,"b"`, " lead\r\n", uint64(1), byte(0x3))
	f.Add([]byte{}, "", `\.`, math.Float64bits(math.Copysign(0, -1)), byte(0))
	// Row r's field f picks pool[picks[(15r+f)%16]]: read latency runs +0,
	// -0, +Inf, -Inf, NaN, another NaN payload on consecutive rows.
	f.Add([]byte{0, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 3, 2, 5, 4, 1}, "cell", "p", uint64(0), byte(0xf))
	f.Fuzz(func(t *testing.T, picks []byte, name, pattern string, bits uint64, flags byte) {
		pool := []float64{
			0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8dead00000000),
			math.Inf(1), math.Inf(-1), 5e-324, 1.5e-9, 123456.789,
			math.Float64frombits(bits), -math.Float64frombits(bits),
		}
		for i := 0; i+8 <= len(picks) && len(pool) < 24; i += 8 {
			pool = append(pool, math.Float64frombits(binary.LittleEndian.Uint64(picks[i:])))
		}
		cols := csvColumns{wordBits: flags&1 != 0, writeBuffer: flags&2 != 0, fault: flags&4 != 0, pareto: flags&8 != 0}
		pick := func(i int) Float {
			if len(picks) == 0 {
				return Float(pool[i%len(pool)])
			}
			return Float(pool[int(picks[i%len(picks)])%len(pool)])
		}

		var long RowEncoder
		for r := 0; r < 16; r++ {
			o := r * numFloatFields
			p := DesignPoint{
				Cell: name, Technology: "STT", BitsPerCell: r % 3, CapacityBytes: int64(r) << 20,
				OptTarget: "ReadEDP", Pattern: pattern,
				ReadLatencyNS: pick(o + fReadLatency), WriteLatencyNS: pick(o + fWriteLatency),
				ReadEnergyPJ: pick(o + fReadEnergy), WriteEnergyPJ: pick(o + fWriteEnergy),
				LeakagePowerMW: pick(o + fLeakage), AreaMM2: pick(o + fArea),
				AreaEfficiency: pick(o + fAreaEfficiency), DensityMbPerMM2: pick(o + fDensity),
				TotalPowerMW: pick(o + fTotalPower), DynamicPowerMW: pick(o + fDynamicPower),
				MemTimePerSec: pick(o + fMemTime), TaskLatencyS: pick(o + fTaskLatency),
				MeetsTaskRate: r%2 == 0, LifetimeYears: pick(o + fLifetime),
				WordBits: 64 * (r % 2), WriteBuffer: name, Pareto: r%3 == 0,
			}
			// Writers fill the axis fields only when the study declares the axis.
			if !cols.wordBits {
				p.WordBits = 0
			}
			if !cols.writeBuffer {
				p.WriteBuffer = ""
			}
			if r%4 != 3 {
				p.Fault = &FaultPoint{Mode: pattern, Seed: int64(r), RawBER: pick(o + fRawBER), EffectiveBER: pick(o + fEffectiveBER)}
			}

			long.dp = p
			fresh := RowEncoder{dp: p}
			for _, l := range []*rowLayout{&compactRow, &indentedRow} {
				got, want := long.appendJSON(nil, l), fresh.appendJSON(nil, l)
				if !bytes.Equal(got, want) {
					t.Fatalf("row %d: memoized JSON row diverges\n got %s\nwant %s", r, got, want)
				}
			}
			if got, want := long.appendJSON(nil, &compactRow), p.AppendJSON(nil); !bytes.Equal(got, want) {
				t.Fatalf("row %d: memoized compact row diverges from AppendJSON\n got %s\nwant %s", r, got, want)
			}
			got, want := long.appendCSV(nil, cols), fresh.appendCSV(nil, cols)
			if !bytes.Equal(got, want) {
				t.Fatalf("row %d: memoized CSV row diverges\n got %q\nwant %q", r, got, want)
			}
			var ref bytes.Buffer
			cw := csv.NewWriter(&ref)
			if err := cw.Write(csvCells(&p, cols)); err != nil {
				t.Fatal(err)
			}
			cw.Flush()
			if !bytes.Equal(got, ref.Bytes()) {
				t.Fatalf("row %d: CSV row diverges from encoding/csv\n got %q\nwant %q", r, got, ref.Bytes())
			}
		}
	})
}

// csvCells is a row's CSV record as viz table cells: the reference the CSV
// appender is checked against.
func csvCells(p *DesignPoint, c csvColumns) []string {
	cell := func(v Float) string { return string(viz.AppendCellFloat(nil, float64(v))) }
	rec := []string{p.Cell, strconv.Itoa(p.BitsPerCell), strconv.FormatInt(p.CapacityBytes, 10),
		p.OptTarget, p.Pattern,
		cell(p.ReadLatencyNS), cell(p.WriteLatencyNS), cell(p.ReadEnergyPJ), cell(p.WriteEnergyPJ),
		cell(p.LeakagePowerMW), cell(p.AreaMM2), cell(p.AreaEfficiency), cell(p.DensityMbPerMM2),
		cell(p.TotalPowerMW), cell(p.DynamicPowerMW), cell(p.MemTimePerSec), cell(p.TaskLatencyS),
		strconv.FormatBool(p.MeetsTaskRate), cell(p.LifetimeYears)}
	if c.wordBits {
		rec = append(rec, strconv.Itoa(p.WordBits))
	}
	if c.writeBuffer {
		rec = append(rec, p.WriteBuffer)
	}
	if c.fault {
		if f := p.Fault; f != nil {
			rec = append(rec, f.Mode, cell(f.RawBER), cell(f.EffectiveBER))
		} else {
			rec = append(rec, "none", "0", "0")
		}
	}
	if c.pareto {
		rec = append(rec, strconv.FormatBool(p.Pareto))
	}
	return rec
}
