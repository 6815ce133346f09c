package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/sweep"
)

// testConfig builds a small sweep configuration JSON. Distinct names and
// cell sets give distinct results; repeating a config exercises the shared
// memo cache across requests.
func testConfig(name, tech string, capacityBytes int64) string {
	return fmt.Sprintf(`{
	  "name": %q,
	  "cells": [{"technology": %q, "flavor": "Opt"}, {"technology": "SRAM", "flavor": "Ref"}],
	  "capacities_bytes": [%d],
	  "opt_targets": ["ReadEDP", "Area"],
	  "traffic": {"generic": {"read_gbs_lo": 1, "read_gbs_hi": 10,
	               "write_gbs_lo": 0.01, "write_gbs_hi": 0.1, "points": 2}}
	}`, name, tech, capacityBytes)
}

// batchOutput renders the sequential batch-CLI output for a config: the
// reference every server response must match byte for byte.
func batchOutput(t *testing.T, cfgJSON, format string) []byte {
	t.Helper()
	cfg, err := sweep.Parse(strings.NewReader(cfgJSON))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1 // sequential reference
	res, err := sweep.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	switch format {
	case "json":
		err = sweep.WriteJSON(&buf, res)
	case "ndjson":
		err = sweep.WriteNDJSON(&buf, res)
	case "csv":
		err = sweep.WriteCombinedCSV(&buf, res)
	default:
		t.Fatalf("unknown format %q", format)
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func post(t *testing.T, ts *httptest.Server, cfgJSON, format string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/studies?format="+format,
		"application/json", strings.NewReader(cfgJSON))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestConcurrentStudiesByteIdentical is the service's core guarantee: ≥8
// concurrent POST /v1/studies — mixed configurations, several identical so
// requests overlap inside the shared memo cache — each return exactly the
// bytes the sequential batch CLI produces for the same config, across all
// three formats.
func TestConcurrentStudiesByteIdentical(t *testing.T) {
	srv := New(Options{MaxConcurrentStudies: 4, StudyWorkers: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cfgA := testConfig("svc_a", "STT", 1<<20)
	cfgB := testConfig("svc_b", "RRAM", 2<<20)
	cfgC := testConfig("svc_c", "FeFET", 1<<20)
	type req struct{ cfg, format string }
	reqs := []req{
		{cfgA, "json"}, {cfgB, "json"}, {cfgA, "json"}, {cfgC, "ndjson"},
		{cfgA, "ndjson"}, {cfgB, "csv"}, {cfgC, "json"}, {cfgA, "csv"},
		{cfgB, "ndjson"}, {cfgA, "json"},
	}
	want := map[req][]byte{}
	for _, r := range reqs {
		if _, ok := want[r]; !ok {
			want[r] = batchOutput(t, r.cfg, r.format)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(reqs))
	for _, r := range reqs {
		wg.Add(1)
		go func(r req) {
			defer wg.Done()
			status, body := post(t, ts, r.cfg, r.format)
			if status != http.StatusOK {
				errs <- fmt.Errorf("%s/%s: status %d: %s", r.cfg[:20], r.format, status, body)
				return
			}
			if !bytes.Equal(body, want[r]) {
				errs <- fmt.Errorf("%s response diverges from batch CLI output:\n got %d bytes\nwant %d bytes",
					r.format, len(body), len(want[r]))
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Repeated configs must have hit the server's shared memo.
	if hits := srv.engine.Stats().MemoHits; hits == 0 {
		t.Error("no memo-cache hits across repeated concurrent studies")
	}
	st := srv.Snapshot()
	if st.Jobs.InFlight != 0 {
		t.Errorf("in-flight = %d after all requests returned", st.Jobs.InFlight)
	}
	if st.Jobs.Completed < int64(len(reqs)) {
		t.Errorf("completed = %d, want ≥ %d", st.Jobs.Completed, len(reqs))
	}
}

// TestStudiesNDJSONShape checks the streamed rows decode as DesignPoints
// and agree with the JSON body's points array.
func TestStudiesNDJSONShape(t *testing.T) {
	ts := httptest.NewServer(New(Options{MaxConcurrentStudies: 2}).Handler())
	defer ts.Close()
	cfg := testConfig("svc_nd", "PCM", 1<<20)

	_, jsonBody := post(t, ts, cfg, "json")
	var body sweep.StudyResult
	if err := json.Unmarshal(jsonBody, &body); err != nil {
		t.Fatal(err)
	}
	_, ndBody := post(t, ts, cfg, "ndjson")
	lines := strings.Split(strings.TrimRight(string(ndBody), "\n"), "\n")
	if len(lines) != len(body.Points) {
		t.Fatalf("ndjson rows = %d, json points = %d", len(lines), len(body.Points))
	}
	for i, line := range lines {
		var pt sweep.DesignPoint
		if err := json.Unmarshal([]byte(line), &pt); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if pt.Cell == "" || pt.Pattern == "" {
			t.Fatalf("row %d: incomplete point %+v", i, pt)
		}
	}
}

// TestStudiesErrors covers the request-rejection paths: every failure is
// the JSON error envelope with a stable code.
func TestStudiesErrors(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	cases := []struct {
		name, body, format string
		wantStatus         int
		wantCode           string
	}{
		{"malformed JSON", `{broken`, "json", http.StatusBadRequest, "invalid_config"},
		{"unknown field", `{"name":"x","bogus":1}`, "json", http.StatusBadRequest, "invalid_config"},
		{"no cells", `{"name":"x","capacities_bytes":[1048576],
		   "traffic":{"fixed":[{"name":"t","reads_per_sec":1}]}}`, "json", http.StatusBadRequest, "invalid_config"},
		{"bad format", testConfig("x", "STT", 1<<20), "xml", http.StatusBadRequest, "bad_format"},
	}
	for _, tc := range cases {
		status, body := post(t, ts, tc.body, tc.format)
		if status != tc.wantStatus {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, status, tc.wantStatus, body)
		}
		var e errorBody
		if err := json.Unmarshal(body, &e); err != nil || e.Error.Message == "" {
			t.Errorf("%s: expected the error envelope, got %s", tc.name, body)
		}
		if e.Error.Code != tc.wantCode {
			t.Errorf("%s: code = %q, want %q", tc.name, e.Error.Code, tc.wantCode)
		}
	}

	// An Accept header naming only unproducible types is a 406, not silent
	// JSON.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/studies",
		strings.NewReader(testConfig("x", "STT", 1<<20)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var e errorBody
	err = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotAcceptable || e.Error.Code != "not_acceptable" {
		t.Errorf("Accept: text/plain = %d %q, want 406 not_acceptable", resp.StatusCode, e.Error.Code)
	}

	// Without a store, GET /v1/studies is routed but answers no_store.
	resp, err = http.Get(ts.URL + "/v1/studies")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound || e.Error.Code != "no_store" {
		t.Errorf("GET /v1/studies = %d %q, want 404 no_store", resp.StatusCode, e.Error.Code)
	}

	// Unknown paths get the envelope 404, not the mux's plain-text default.
	resp, err = http.Get(ts.URL + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound || e.Error.Code != "not_found" {
		t.Errorf("GET /v1/nope = %d %q, want 404 not_found", resp.StatusCode, e.Error.Code)
	}
}

// TestCellsEndpoint checks the tentpole database round-trips as JSON.
func TestCellsEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/cells")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rows []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) < 10 {
		t.Fatalf("cells = %d, want the full canonical database", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r["technology"].(string)] = true
	}
	for _, tech := range []string{"SRAM", "STT", "RRAM", "FeFET", "PCM"} {
		if !seen[tech] {
			t.Errorf("missing technology %s in /v1/cells", tech)
		}
	}
}

// TestExperimentsAndDashboard checks the registry listing and a live
// dashboard render.
func TestExperimentsAndDashboard(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct{ ID, Title, Dashboard string }
	err = json.NewDecoder(resp.Body).Decode(&rows)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 15 {
		t.Fatalf("experiments = %d, want the full registry", len(rows))
	}

	// fig1 (the publication survey) is cheap to render live.
	resp, err = http.Get(ts.URL + "/v1/experiments/fig1/dashboard.html")
	if err != nil {
		t.Fatal(err)
	}
	html, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dashboard status = %d: %s", resp.StatusCode, html)
	}
	if !strings.Contains(string(html), "<!DOCTYPE html>") ||
		!strings.Contains(string(html), "fig1") {
		t.Error("dashboard response is not the rendered HTML page")
	}
	resp, err = http.Get(ts.URL + "/v1/experiments/nope/dashboard.html")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown experiment status = %d, want 404", resp.StatusCode)
	}
}

// TestStatsCountOnlyCompletedAdaptiveRuns: /v1/stats sums the adaptive
// totals from completed runs. An adaptive study whose every config the
// area bound prunes fails (422 study_failed) and adds nothing to them, yet
// its two pruned configs count as prefiltered.
func TestStatsCountOnlyCompletedAdaptiveRuns(t *testing.T) {
	srv := New(Options{MaxConcurrentStudies: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	adaptive := func(name string, maxAreaMM2 float64) string {
		return fmt.Sprintf(`{
	  "name": %q,
	  "cells": [{"technology": "STT", "flavor": "Opt"}],
	  "capacities_bytes": [1048576, 2097152],
	  "traffic": {"fixed": [{"name": "t", "reads_per_sec": 1e6, "writes_per_sec": 1e4}]},
	  "pareto": {"metrics": ["read_latency_ns", "read_energy_pj"]},
	  "mode": "adaptive",
	  "max_area_mm2": %g
	}`, name, maxAreaMM2)
	}

	code, body := post(t, ts, adaptive("adaptive-infeasible", 1e-9), "json")
	if code != http.StatusUnprocessableEntity || errCode(t, body) != codeStudyFailed {
		t.Fatalf("infeasible adaptive study: status %d: %s, want 422 %s", code, body, codeStudyFailed)
	}
	x := srv.Snapshot().Exploration
	if x.AdaptiveStudies != 0 || x.AdaptivePointsEvaluated != 0 || x.AdaptivePointsPruned != 0 {
		t.Errorf("a failed adaptive run counted: %+v", x)
	}
	if x.PrefilteredConfigs != 2 {
		t.Errorf("prefiltered configs = %d, want 2", x.PrefilteredConfigs)
	}

	if code, body := post(t, ts, adaptive("adaptive-feasible", 1e3), "json"); code != http.StatusOK {
		t.Fatalf("feasible adaptive study: status %d: %s", code, body)
	}
	x = srv.Snapshot().Exploration
	if x.AdaptiveStudies != 1 || x.AdaptivePointsEvaluated == 0 ||
		x.AdaptivePointsEvaluated+x.AdaptivePointsPruned != 2 || x.PrefilteredConfigs != 2 {
		t.Errorf("after one completed 2-point adaptive run: %+v", x)
	}
}

// TestStatsEndpoint checks the counters move and parse.
func TestStatsEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(Options{MaxConcurrentStudies: 3}).Handler())
	defer ts.Close()
	if status, _ := post(t, ts, testConfig("svc_stats", "CTT", 1<<20), "json"); status != http.StatusOK {
		t.Fatalf("study status = %d", status)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Jobs.MaxConcurrent != 3 {
		t.Errorf("max_concurrent = %d, want 3", st.Jobs.MaxConcurrent)
	}
	if st.Jobs.Completed != 1 || st.Jobs.PointsServed == 0 {
		t.Errorf("completed = %d points = %d, want 1 and > 0",
			st.Jobs.Completed, st.Jobs.PointsServed)
	}
	if st.Memo.Misses == 0 {
		t.Error("memo misses = 0 after a fresh-cache study")
	}
}

// TestStatsStoreBackend: /v1/stats names a directory store "local" with
// its directory as target, and the memory store a coordinator builds
// without -store "memory" with no target.
func TestStatsStoreBackend(t *testing.T) {
	dir := t.TempDir()
	srv, _ := newStoreServer(t, dir)
	if st := srv.Snapshot().Store; !st.Enabled || st.Backend != "local" || st.Target != dir {
		t.Errorf("directory store: enabled %v, backend %q, target %q; want true, local, %q", st.Enabled, st.Backend, st.Target, dir)
	}
	_, worker := newWorker(t)
	coord, _ := newCoordinator(t, []string{worker.URL}, nil)
	if st := coord.Snapshot().Store; !st.Enabled || st.Backend != "memory" || st.Target != "" {
		t.Errorf("memory store: enabled %v, backend %q, target %q; want true, memory, none", st.Enabled, st.Backend, st.Target)
	}
}

// TestHealthz checks the liveness endpoint and the drain transition.
func TestHealthz(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Errorf("healthz = %d %v, want 200 ok", resp.StatusCode, body)
	}

	srv.Drain()
	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Errorf("draining healthz = %d %v, want 503 draining", resp.StatusCode, body)
	}
}

// TestStudiesParetoQuery checks ?pareto= selection: the JSON body gains a
// frontier block, NDJSON gains the trailer, and bad metrics are rejected.
func TestStudiesParetoQuery(t *testing.T) {
	ts := httptest.NewServer(New(Options{MaxConcurrentStudies: 2}).Handler())
	defer ts.Close()
	cfg := testConfig("svc_pareto", "STT", 1<<20)

	resp, err := http.Post(ts.URL+"/v1/studies?format=json&pareto=total_power_mw,mem_time_per_sec",
		"application/json", strings.NewReader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	var body sweep.StudyResult
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pareto study status = %d", resp.StatusCode)
	}
	if body.Frontier == nil || len(body.Frontier.Points) == 0 {
		t.Fatal("pareto query produced no frontier block")
	}
	marked := 0
	for _, p := range body.Points {
		if p.Pareto {
			marked++
		}
	}
	if marked != len(body.Frontier.Points) {
		t.Errorf("marked rows = %d, frontier = %d", marked, len(body.Frontier.Points))
	}

	resp, err = http.Post(ts.URL+"/v1/studies?format=ndjson&pareto=total_power_mw,mem_time_per_sec",
		"application/json", strings.NewReader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	nd, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(nd), "\n"), "\n")
	if len(lines) != len(body.Points)+1 {
		t.Fatalf("ndjson lines = %d, want %d + trailer", len(lines), len(body.Points))
	}
	if !strings.Contains(lines[len(lines)-1], `"frontier"`) {
		t.Errorf("last ndjson line is not the frontier trailer: %s", lines[len(lines)-1])
	}

	status, errBody := post(t, ts, cfg, "json&pareto=vibes")
	if status != http.StatusBadRequest || !strings.Contains(string(errBody), "vibes") {
		t.Errorf("bad pareto metric: status %d body %s", status, errBody)
	}
}

// TestStudiesHTMLDashboard checks format=html renders the study dashboard
// with the frontier highlighted.
func TestStudiesHTMLDashboard(t *testing.T) {
	ts := httptest.NewServer(New(Options{MaxConcurrentStudies: 2}).Handler())
	defer ts.Close()
	cfg := testConfig("svc_html", "RRAM", 1<<20)
	resp, err := http.Post(ts.URL+"/v1/studies?format=html&pareto=total_power_mw,mem_time_per_sec",
		"application/json", strings.NewReader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	html, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("html study status = %d: %s", resp.StatusCode, html)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("content type = %q", ct)
	}
	page := string(html)
	if !strings.Contains(page, "<!DOCTYPE html>") || !strings.Contains(page, "svc_html") {
		t.Error("response is not the rendered study dashboard")
	}
	if !strings.Contains(page, "Pareto frontier") {
		t.Error("dashboard does not highlight the Pareto frontier")
	}
}
