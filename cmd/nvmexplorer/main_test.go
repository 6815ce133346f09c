package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/nvsim"
	"repro/internal/server"
	"repro/internal/store"
)

func TestUsage(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no arguments should yield a usage error")
	}
	if err := run([]string{"bogus-command"}); err == nil {
		t.Error("unknown command should yield a usage error")
	}
	if err := run([]string{"help"}); err != nil {
		t.Errorf("help should succeed: %v", err)
	}
}

func TestListAndCells(t *testing.T) {
	if err := run([]string{"list"}); err != nil {
		t.Errorf("list: %v", err)
	}
	if err := run([]string{"cells"}); err != nil {
		t.Errorf("cells: %v", err)
	}
}

func TestValidateCommand(t *testing.T) {
	if err := run([]string{"validate"}); err != nil {
		t.Errorf("validate: %v", err)
	}
}

func TestExpCommand(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"exp", "fig4", "-out", dir}); err != nil {
		t.Fatalf("exp fig4: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Error("exp -out wrote no CSVs")
	}
	if err := run([]string{"exp", "not-an-experiment"}); err == nil {
		t.Error("unknown experiment should error")
	}
	if err := run([]string{"exp"}); err == nil {
		t.Error("missing experiment id should error")
	}
}

func TestRunCommand(t *testing.T) {
	dir := t.TempDir()
	cfg := filepath.Join(dir, "study.json")
	err := os.WriteFile(cfg, []byte(`{
	  "name": "cli_test",
	  "cells": [{"technology": "STT", "flavor": "Opt"}],
	  "capacities_bytes": [1048576],
	  "traffic": {"fixed": [{"name": "t", "reads_per_sec": 1e6}]}
	}`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "results")
	if err := run([]string{"run", cfg, "-out", out}); err != nil {
		t.Fatalf("run: %v", err)
	}
	entries, err := os.ReadDir(out)
	if err != nil || len(entries) == 0 {
		t.Errorf("run wrote no CSVs: %v", err)
	}
	// Flags-before-positional spelling must also work.
	if err := run([]string{"run", "-out", out, cfg}); err != nil {
		t.Errorf("run with leading flags: %v", err)
	}
	if err := run([]string{"run", filepath.Join(dir, "missing.json")}); err == nil {
		t.Error("missing config should error")
	}
	if err := run([]string{"run"}); err == nil {
		t.Error("missing config argument should error")
	}
	if err := run([]string{"run", cfg, "-format", "weird"}); err == nil {
		t.Error("unknown format should error")
	}
}

// TestCLIMatchesStudyService is the end-to-end batch-vs-service check:
// `nvmexplorer run -format json|ndjson|csv` and POST /v1/studies must
// produce byte-identical output for the same configuration.
func TestCLIMatchesStudyService(t *testing.T) {
	cfgJSON := `{
	  "name": "cli_vs_service",
	  "cells": [{"technology": "STT", "flavor": "Opt"},
	            {"technology": "FeFET", "flavor": "Pess"}],
	  "capacities_bytes": [1048576, 4194304],
	  "opt_targets": ["ReadEDP", "Area"],
	  "traffic": {"fixed": [{"name": "t", "reads_per_sec": 1e6, "writes_per_sec": 1e4}]}
	}`
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "study.json")
	if err := os.WriteFile(cfgPath, []byte(cfgJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(server.Options{MaxConcurrentStudies: 2}).Handler())
	defer ts.Close()

	for _, format := range []string{"json", "ndjson", "csv"} {
		var cli bytes.Buffer
		if err := runSweepTo(&cli, []string{cfgPath, "-format", format}); err != nil {
			t.Fatalf("%s: CLI run: %v", format, err)
		}
		resp, err := http.Post(ts.URL+"/v1/studies?format="+format,
			"application/json", strings.NewReader(cfgJSON))
		if err != nil {
			t.Fatal(err)
		}
		srvBody, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: service status %d: %s", format, resp.StatusCode, srvBody)
		}
		if !bytes.Equal(cli.Bytes(), srvBody) {
			t.Errorf("%s: CLI output (%d bytes) != service response (%d bytes)",
				format, cli.Len(), len(srvBody))
		}
	}
}

// TestCLIAndServiceWriteOneManifest: `run -store` and POST /v1/studies,
// given the same configuration and the same overrides, record equal study
// manifests — config bytes, grid size and exploration — because both build
// them from one expansion.
func TestCLIAndServiceWriteOneManifest(t *testing.T) {
	cfgJSON := `{
	  "name": "one_manifest",
	  "cells": [{"technology": "STT", "flavor": "Opt"}, {"technology": "RRAM", "flavor": "Opt"}],
	  "capacities_bytes": [65536, 131072, 262144, 524288, 1048576],
	  "traffic": {"fixed": [{"name": "t", "reads_per_sec": 1e6, "writes_per_sec": 1e4}]}
	}`
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "study.json")
	if err := os.WriteFile(cfgPath, []byte(cfgJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	cliDir, srvDir := filepath.Join(dir, "cli-store"), filepath.Join(dir, "srv-store")
	var out bytes.Buffer
	if err := runSweepTo(&out, []string{cfgPath, "-format", "json", "-store", cliDir,
		"-pareto", "read_latency_ns,read_energy_pj", "-mode", "adaptive", "-budget", "4", "-seed", "3"}); err != nil {
		t.Fatalf("CLI run: %v", err)
	}
	st, err := store.Open(srvDir)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Options{MaxConcurrentStudies: 2, Store: st})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()
	resp, err := http.Post(ts.URL+"/v1/studies?format=json&pareto=read_latency_ns,read_energy_pj&mode=adaptive&budget=4&seed=3",
		"application/json", strings.NewReader(cfgJSON))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, out.Bytes()) {
		t.Fatalf("service: status %d, bytes match CLI: %v", resp.StatusCode, bytes.Equal(body, out.Bytes()))
	}

	cliSt, err := store.Open(cliDir)
	if err != nil {
		t.Fatal(err)
	}
	cliFPs, srvFPs := cliSt.StudyFingerprints(), st.StudyFingerprints()
	if len(cliFPs) != 1 || len(srvFPs) != 1 {
		t.Fatalf("manifests: CLI %d, service %d, want 1 each", len(cliFPs), len(srvFPs))
	}
	c, cok := cliSt.LoadStudy(cliFPs[0])
	v, vok := st.LoadStudy(srvFPs[0])
	if !cok || !vok {
		t.Fatalf("manifests unreadable: CLI %v, service %v", cok, vok)
	}
	if c.Fingerprint != v.Fingerprint || !bytes.Equal(c.Config, v.Config) || c.Points != v.Points {
		t.Fatalf("manifests differ:\n CLI     %s %d %s\n service %s %d %s",
			c.Fingerprint, c.Points, c.Config, v.Fingerprint, v.Points, v.Config)
	}
	if c.Exploration == nil || !reflect.DeepEqual(c.Exploration, v.Exploration) {
		t.Fatalf("exploration differs or is missing:\n CLI     %+v\n service %+v", c.Exploration, v.Exploration)
	}
}

// TestCLIMultiAxisParetoMatchesService runs the acceptance-criteria study —
// cells × bits-per-cell × capacity × write-buffer with Pareto selection —
// through the CLI and POST /v1/studies and requires byte-identical output
// in every format, dashboard HTML included.
func TestCLIMultiAxisParetoMatchesService(t *testing.T) {
	cfgJSON := `{
	  "name": "multi_axis_pareto",
	  "cells": [{"technology": "RRAM", "flavor": "Opt"},
	            {"technology": "FeFET", "flavor": "Opt"}],
	  "bits_per_cell": [1, 2],
	  "capacities_bytes": [1048576, 2097152],
	  "write_buffers": [null, {"mask_latency": true, "buffer_latency_ns": 2, "traffic_reduction": 0.5}],
	  "pareto": {"metrics": ["total_power_mw", "mem_time_per_sec"]},
	  "traffic": {"fixed": [{"name": "t", "reads_per_sec": 1e6, "writes_per_sec": 1e4}]}
	}`
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "study.json")
	if err := os.WriteFile(cfgPath, []byte(cfgJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(server.Options{MaxConcurrentStudies: 2}).Handler())
	defer ts.Close()

	for _, format := range []string{"json", "ndjson", "csv", "html"} {
		var cli bytes.Buffer
		if err := runSweepTo(&cli, []string{cfgPath, "-format", format}); err != nil {
			t.Fatalf("%s: CLI run: %v", format, err)
		}
		resp, err := http.Post(ts.URL+"/v1/studies?format="+format,
			"application/json", strings.NewReader(cfgJSON))
		if err != nil {
			t.Fatal(err)
		}
		srvBody, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: service status %d: %s", format, resp.StatusCode, srvBody)
		}
		if !bytes.Equal(cli.Bytes(), srvBody) {
			t.Errorf("%s: CLI output (%d bytes) != service response (%d bytes)",
				format, cli.Len(), len(srvBody))
		}
		if format == "json" && !bytes.Contains(srvBody, []byte(`"frontier"`)) {
			t.Error("json body has no frontier block")
		}
	}
}

// TestCLIParetoFlag checks -pareto overrides the config and shows up in
// the table summary.
func TestCLIParetoFlag(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "study.json")
	cfgJSON := `{
	  "name": "cli_pareto",
	  "cells": [{"technology": "STT", "flavor": "Opt"},
	            {"technology": "RRAM", "flavor": "Opt"}],
	  "capacities_bytes": [1048576],
	  "traffic": {"fixed": [{"name": "t", "reads_per_sec": 1e6, "writes_per_sec": 1e4}]}
	}`
	if err := os.WriteFile(cfgPath, []byte(cfgJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := runSweepTo(&out, []string{cfgPath, "-out", filepath.Join(dir, "res"),
		"-pareto", "total_power_mw,mem_time_per_sec"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "pareto frontier on (total_power_mw, mem_time_per_sec)") {
		t.Errorf("table output missing frontier summary:\n%s", out.String())
	}
	var js bytes.Buffer
	if err := runSweepTo(&js, []string{cfgPath, "-format", "json", "-pareto", "lifetime_years"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"lifetime_years"`) {
		t.Error("json output missing the flag-selected frontier metrics")
	}
	if err := runSweepTo(io.Discard, []string{cfgPath, "-pareto", "bogus"}); err == nil {
		t.Error("unknown -pareto metric should error")
	}
}

// TestRunStoreColdWarmByteIdentical exercises `run -store`: the second run
// against the same store directory must perform zero engine
// characterizations and print bytes identical to the first run and to a
// store-less run.
func TestRunStoreColdWarmByteIdentical(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "study.json")
	cfgJSON := `{
	  "name": "cli_store",
	  "cells": [{"technology": "STT", "flavor": "Opt"},
	            {"technology": "RRAM", "flavor": "Pess"}],
	  "capacities_bytes": [1048576, 2097152],
	  "opt_targets": ["ReadEDP", "Area"],
	  "traffic": {"fixed": [{"name": "t", "reads_per_sec": 1e6, "writes_per_sec": 1e4}]}
	}`
	if err := os.WriteFile(cfgPath, []byte(cfgJSON), 0o644); err != nil {
		t.Fatal(err)
	}

	var plain bytes.Buffer
	if err := runSweepTo(&plain, []string{cfgPath, "-format", "json"}); err != nil {
		t.Fatal(err)
	}

	storeDir := filepath.Join(dir, "store")
	var cold bytes.Buffer
	if err := runSweepTo(&cold, []string{cfgPath, "-format", "json", "-store", storeDir}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold.Bytes(), plain.Bytes()) {
		t.Fatal("store-backed run differs from store-less run")
	}
	if _, err := os.Stat(filepath.Join(storeDir, "memo.gob")); !os.IsNotExist(err) {
		t.Fatalf("run -store wrote a memo snapshot (stat: %v); the store keeps points only", err)
	}

	// A fresh process re-runs warm on its own engine.
	engines := captureEngines(t)
	var warm bytes.Buffer
	if err := runSweepTo(&warm, []string{cfgPath, "-format", "json", "-store", storeDir}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(warm.Bytes(), cold.Bytes()) {
		t.Fatal("warm run differs from cold run")
	}
	if len(*engines) != 1 {
		t.Fatalf("warm run built %d engines, want 1", len(*engines))
	}
	if es := (*engines)[0].Stats(); es.MemoHits != 0 || es.MemoMisses != 0 {
		t.Fatalf("warm run characterized: memo hits=%d misses=%d, want 0/0", es.MemoHits, es.MemoMisses)
	}
}

// captureEngines records every engine a command builds until the test
// ends.
func captureEngines(t *testing.T) *[]*nvsim.Engine {
	t.Helper()
	var engines []*nvsim.Engine
	newEngine = func() *nvsim.Engine {
		e := nvsim.NewEngine()
		engines = append(engines, e)
		return e
	}
	t.Cleanup(func() { newEngine = nvsim.NewEngine })
	return &engines
}

// TestQueryCommand exercises `nvmexplorer query`: a `run -store` seeds the
// store with a study manifest, then the query subcommand lists, filters,
// ranks, and Pareto-selects from it — entirely without engine work — and
// its JSON bytes match GET /v1/query over the same store.
func TestQueryCommand(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "study.json")
	cfgJSON := `{
	  "name": "cli_query",
	  "cells": [{"technology": "STT", "flavor": "Opt"},
	            {"technology": "RRAM", "flavor": "Pess"}],
	  "capacities_bytes": [1048576, 2097152],
	  "opt_targets": ["ReadEDP", "Area"],
	  "traffic": {"fixed": [{"name": "t", "reads_per_sec": 1e6, "writes_per_sec": 1e4}]}
	}`
	if err := os.WriteFile(cfgPath, []byte(cfgJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	storeDir := filepath.Join(dir, "store")
	if err := runSweepTo(io.Discard, []string{cfgPath, "-format", "json", "-store", storeDir}); err != nil {
		t.Fatal(err)
	}
	manifests, err := os.ReadDir(filepath.Join(storeDir, "studies"))
	if err != nil || len(manifests) != 1 {
		t.Fatalf("run -store recorded %d manifests (err %v), want 1", len(manifests), err)
	}

	// Everything below must answer from the store: no query builds an
	// engine, and the service's engine stays untouched.
	engines := captureEngines(t)

	var list bytes.Buffer
	if err := runQuery(&list, []string{storeDir, "-list"}); err != nil {
		t.Fatalf("query -list: %v", err)
	}
	if !strings.Contains(list.String(), "cli_query") || !strings.Contains(list.String(), "true") {
		t.Errorf("query -list missing the complete stored study:\n%s", list.String())
	}

	// Top-k CSV: header plus exactly k data rows.
	var csv bytes.Buffer
	if err := runQuery(&csv, []string{storeDir, "-sort", "total_power_mw", "-top", "3", "-format", "csv"}); err != nil {
		t.Fatalf("query top-k: %v", err)
	}
	if lines := strings.Split(strings.TrimSpace(csv.String()), "\n"); len(lines) != 4 {
		t.Errorf("top-3 csv has %d lines, want 4:\n%s", len(lines), csv.String())
	}

	// Axis filter + table rendering.
	var table bytes.Buffer
	if err := runQuery(&table, []string{storeDir, "-technology", "RRAM"}); err != nil {
		t.Fatalf("query -technology: %v", err)
	}
	if strings.Contains(table.String(), "STT") || !strings.Contains(table.String(), "row(s) from 1 stored study(ies)") {
		t.Errorf("filtered table output wrong:\n%s", table.String())
	}

	// Frontier-of-union selection renders a frontier block.
	var fr bytes.Buffer
	if err := runQuery(&fr, []string{storeDir, "-frontier", "total_power_mw,mem_time_per_sec", "-format", "json"}); err != nil {
		t.Fatalf("query -frontier: %v", err)
	}
	if !strings.Contains(fr.String(), `"frontier"`) {
		t.Error("frontier query produced no frontier block")
	}

	// The CLI and GET /v1/query answer byte-identically over the same store.
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Options{MaxConcurrentStudies: 2, Store: st})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var cli bytes.Buffer
	if err := runQuery(&cli, []string{storeDir, "-sort", "read_latency_ns", "-top", "2", "-format", "json"}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/query?sort=read_latency_ns&top=2&format=json")
	if err != nil {
		t.Fatal(err)
	}
	srvBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("service query status %d (err %v): %s", resp.StatusCode, err, srvBody)
	}
	if !bytes.Equal(cli.Bytes(), srvBody) {
		t.Errorf("CLI query (%d bytes) != GET /v1/query (%d bytes)", cli.Len(), len(srvBody))
	}

	if len(*engines) != 0 {
		t.Fatalf("query subcommand built %d engine(s), want none", len(*engines))
	}
	if m := srv.Snapshot().Memo; m.Hits != 0 || m.Misses != 0 {
		t.Fatalf("GET /v1/query characterized: memo hits=%d misses=%d, want 0/0", m.Hits, m.Misses)
	}
	if _, misses := st.Stats(); misses != 0 {
		t.Fatalf("GET /v1/query missed the store %d time(s)", misses)
	}

	// Error shapes: each bad request fails without touching the store's rows.
	for _, tc := range [][]string{
		{storeDir, "-order", "sideways"},
		{storeDir, "-min", "total_power_mw"},        // not metric=value
		{storeDir, "-max", "total_power_mw=lots"},   // not a number
		{storeDir, "-top", "3"},                     // -top requires -sort
		{storeDir, "-sort", "vibes"},                // unknown metric
		{storeDir, "-study", "no-such-study"},       // unknown selector
		{storeDir, "-format", "weird"},              // unknown format
		{filepath.Join(dir, "nope"), "-list", "-x"}, // unknown flag
	} {
		if err := runQuery(io.Discard, tc); err == nil {
			t.Errorf("query %v should error", tc[1:])
		}
	}
}
