package sweep

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

const dnnConfig = `{
  "name": "dnn_study",
  "cells": [
    {"technology": "SRAM", "flavor": "Ref"},
    {"technology": "STT", "flavor": "Opt"},
    {"technology": "FeFET", "flavor": "Opt"}
  ],
  "capacities_bytes": [2097152],
  "opt_targets": ["ReadEDP"],
  "traffic": {"dnn": {"network": "ResNet26", "fps": 60, "tasks": 1}}
}`

func TestParseAndRun(t *testing.T) {
	cfg, err := Parse(strings.NewReader(dnnConfig))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "dnn_study" {
		t.Errorf("name = %q", cfg.Name)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Arrays) != 3 {
		t.Fatalf("arrays = %d, want 3", len(res.Arrays))
	}
	if len(res.Metrics) != 3 {
		t.Fatalf("metrics = %d, want 3 (one DNN pattern)", len(res.Metrics))
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse(strings.NewReader(`{"name":"x","bogus_field":1}`)); err == nil {
		t.Error("unknown fields should be rejected")
	}
	if _, err := Parse(strings.NewReader(`{broken`)); err == nil {
		t.Error("malformed JSON should be rejected")
	}
}

func TestStudyExpansionErrors(t *testing.T) {
	cases := []string{
		`{"name":"", "capacities_bytes":[1048576], "cells":[{"technology":"STT","flavor":"Opt"}], "traffic":{"fixed":[{"name":"x","reads_per_sec":1}]}}`,
		`{"name":"x", "capacities_bytes":[1048576], "cells":[], "traffic":{"fixed":[{"name":"x","reads_per_sec":1}]}}`,
		`{"name":"x", "capacities_bytes":[1048576], "cells":[{"technology":"NOPE","flavor":"Opt"}], "traffic":{"fixed":[{"name":"x","reads_per_sec":1}]}}`,
		`{"name":"x", "capacities_bytes":[1048576], "cells":[{"technology":"STT","flavor":"Weird"}], "traffic":{"fixed":[{"name":"x","reads_per_sec":1}]}}`,
		`{"name":"x", "capacities_bytes":[1048576], "cells":[{"technology":"STT","flavor":"Opt"}], "traffic":{}}`,
		`{"name":"x", "capacities_bytes":[1048576], "cells":[{"technology":"STT","flavor":"Opt"}], "opt_targets":["Bogus"], "traffic":{"fixed":[{"name":"x","reads_per_sec":1}]}}`,
		`{"name":"x", "capacities_bytes":[1048576], "cells":[{"technology":"STT","flavor":"Opt"}], "traffic":{"dnn":{"network":"NotANet"}}}`,
	}
	for i, src := range cases {
		cfg, err := Parse(strings.NewReader(src))
		if err != nil {
			continue // parse-level rejection also counts
		}
		if _, err := cfg.Study(); err == nil {
			t.Errorf("case %d: expected expansion error", i)
		}
	}
}

// TestEmptyCapacitiesError checks a config with no capacities fails at run
// time (the study expands, but the grid is empty).
func TestEmptyCapacitiesError(t *testing.T) {
	for _, caps := range []string{`[]`, `null`} {
		src := `{"name":"nocaps", "capacities_bytes":` + caps + `,
		  "cells":[{"technology":"STT","flavor":"Opt"}],
		  "traffic":{"fixed":[{"name":"t","reads_per_sec":1}]}}`
		cfg, err := Parse(strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "capacit") {
			t.Errorf("capacities=%s: err = %v, want a no-capacities error", caps, err)
		}
	}
}

// TestParseErrorDetails pins the messages a study-service client sees for
// the common misconfigurations.
func TestParseErrorDetails(t *testing.T) {
	cases := []struct {
		src, wantSubstr string
	}{
		{`{"name":"x","capacities_bytes":[1048576],"cells":[{"technology":"MRAMish","flavor":"Opt"}],
		  "traffic":{"fixed":[{"name":"t","reads_per_sec":1}]}}`, "MRAMish"},
		{`{"name":"x","capacities_bytes":[1048576],"cells":[{"technology":"STT","flavor":"Shiny"}],
		  "traffic":{"fixed":[{"name":"t","reads_per_sec":1}]}}`, "Shiny"},
		{`{"name":"x","capacities_bytes":[1048576],"cells":[{"technology":"STT","flavor":"Opt"}],
		  "opt_targets":["Vibes"],"traffic":{"fixed":[{"name":"t","reads_per_sec":1}]}}`, "Vibes"},
	}
	for i, tc := range cases {
		cfg, err := Parse(strings.NewReader(tc.src))
		if err != nil {
			t.Fatalf("case %d: parse: %v", i, err)
		}
		_, err = cfg.Study()
		if err == nil || !strings.Contains(err.Error(), tc.wantSubstr) {
			t.Errorf("case %d: err = %v, want mention of %q", i, err, tc.wantSubstr)
		}
	}
}

func TestCustomCellsAndMLC(t *testing.T) {
	src := `{
      "name": "mlc_custom",
      "cells": [{"technology": "RRAM", "flavor": "Opt"}],
      "custom_cells": [{
        "name": "MyRRAM", "technology": "RRAM", "area_f2": 10, "node_nm": 28,
        "read_latency_ns": 5, "write_latency_ns": 50,
        "read_energy_pj": 0.2, "write_energy_pj": 1.0,
        "endurance_cycles": 1e7, "retention_s": 1e8
      }],
      "bits_per_cell": [1, 2],
      "capacities_bytes": [1048576],
      "traffic": {"fixed": [{"name": "t", "reads_per_sec": 1e6, "writes_per_sec": 1e4}]}
    }`
	cfg, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 2 base cells x 2 bpc settings = 4 arrays.
	if len(res.Arrays) != 4 {
		t.Fatalf("arrays = %d, want 4", len(res.Arrays))
	}
	foundCustomMLC := false
	for _, a := range res.Arrays {
		if strings.Contains(a.Cell.Name, "MyRRAM") && a.Cell.BitsPerCell == 2 {
			foundCustomMLC = true
		}
	}
	if !foundCustomMLC {
		t.Error("custom cell should appear in 2bpc form")
	}
}

func TestSRAMSkipsMLCPass(t *testing.T) {
	src := `{
      "name": "mlc_sram",
      "cells": [{"technology": "SRAM", "flavor": "Ref"}, {"technology": "RRAM", "flavor": "Opt"}],
      "bits_per_cell": [1, 2],
      "capacities_bytes": [1048576],
      "traffic": {"fixed": [{"name": "t", "reads_per_sec": 1e6}]}
    }`
	cfg, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// SRAM appears once (SLC only), RRAM twice.
	if len(res.Arrays) != 3 {
		t.Fatalf("arrays = %d, want 3", len(res.Arrays))
	}
}

func TestGenericTrafficAndWriteBuffer(t *testing.T) {
	src := `{
      "name": "wb",
      "cells": [{"technology": "FeFET", "flavor": "Opt"}],
      "capacities_bytes": [1048576],
      "traffic": {"generic": {"read_gbs_lo": 1, "read_gbs_hi": 10,
                   "write_gbs_lo": 0.01, "write_gbs_hi": 0.1, "points": 3}},
      "write_buffer": {"mask_latency": true, "buffer_latency_ns": 2, "traffic_reduction": 0.5}
    }`
	cfg, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != 9 {
		t.Fatalf("metrics = %d, want 3x3 grid", len(res.Metrics))
	}
}

// runFile loads a JSON configuration file and executes it.
func runFile(path string) (*core.Results, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cfg, err := Parse(f)
	if err != nil {
		return nil, err
	}
	return Run(cfg)
}

func TestRunFileAndWriteCSVs(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "study.json")
	if err := os.WriteFile(cfgPath, []byte(dnnConfig), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := runFile(cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	outDir := filepath.Join(dir, "out")
	paths, err := WriteCSVs(res, outDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 { // SRAM, STT, FeFET
		t.Fatalf("wrote %d files, want 3: %v", len(paths), paths)
	}
	sawSTT := false
	for _, p := range paths {
		base := filepath.Base(p)
		if !strings.HasSuffix(base, "-combined.csv") {
			t.Errorf("unexpected file name %s", base)
		}
		if strings.HasPrefix(base, "STT_") {
			sawSTT = true
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(data), "TotalPowerMW") {
				t.Error("CSV missing header")
			}
			if !strings.Contains(string(data), "Opt. STT") {
				t.Error("CSV missing data rows")
			}
		}
	}
	if !sawSTT {
		t.Error("missing STT CSV")
	}
	if _, err := runFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing config file should error")
	}
}
