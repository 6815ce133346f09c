package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/sweep"
)

// get fetches a URL with optional headers, returning status, headers, body.
func get(t *testing.T, url string, hdr map[string]string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// decodeErr decodes an error envelope and returns its code.
func decodeErr(t *testing.T, body []byte) string {
	t.Helper()
	var e errorBody
	if err := json.Unmarshal(body, &e); err != nil || e.Error.Code == "" {
		t.Fatalf("not an error envelope: %s", body)
	}
	return e.Error.Code
}

// TestQueryEndpoints drives the read side end to end: a sync POST seeds the
// store with a manifest, then GET /v1/studies lists it, GET
// /v1/studies/{fp} replays it byte-identically (sharing the POST's ETag),
// and GET /v1/query filters/ranks/Pareto-selects its rows — all with zero
// engine work.
func TestQueryEndpoints(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{MaxConcurrentStudies: 2, Store: st})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cfg := testConfig("svc_query", "STT", 1<<20)
	status, cold := post(t, ts, cfg, "json")
	if status != http.StatusOK {
		t.Fatalf("seed study status = %d: %s", status, cold)
	}

	// The completed study is listed with its manifest intact.
	status, _, body := get(t, ts.URL+"/v1/studies", nil)
	if status != http.StatusOK {
		t.Fatalf("list status = %d: %s", status, body)
	}
	var studies []struct {
		Fingerprint string `json:"fingerprint"`
		Name        string `json:"name"`
		Points      int    `json:"points"`
		Rows        int    `json:"rows"`
		Complete    bool   `json:"complete"`
	}
	if err := json.Unmarshal(body, &studies); err != nil {
		t.Fatal(err)
	}
	if len(studies) != 1 || !studies[0].Complete || studies[0].Name != "svc_query" {
		t.Fatalf("studies = %+v, want one complete svc_query", studies)
	}
	fp := studies[0].Fingerprint

	// From here on the engine must stay idle: every read-side response
	// below replays from the store and the warm index.
	memo0 := srv.engine.Stats()

	// GET /v1/studies/{fp} replays the POST body byte for byte and carries
	// the same ETag, so revalidation works across the two endpoints.
	status, hdr, replay := get(t, ts.URL+"/v1/studies/"+fp+"?format=json", nil)
	if status != http.StatusOK {
		t.Fatalf("study GET status = %d: %s", status, replay)
	}
	if !bytes.Equal(replay, cold) {
		t.Fatalf("study GET body diverges from the POST response (%d vs %d bytes)", len(replay), len(cold))
	}
	etag := hdr.Get("ETag")
	if etag == "" {
		t.Fatal("study GET carries no ETag")
	}
	status, _, _ = get(t, ts.URL+"/v1/studies/"+fp, map[string]string{"If-None-Match": etag})
	if status != http.StatusNotModified {
		t.Fatalf("study revalidation status = %d, want 304", status)
	}

	// Top-k query: rows arrive sorted, k of them, with the query headers.
	status, hdr, body = get(t, ts.URL+"/v1/query?sort=total_power_mw&top=3&format=json", nil)
	if status != http.StatusOK {
		t.Fatalf("query status = %d: %s", status, body)
	}
	var qres sweep.StudyResult
	if err := json.Unmarshal(body, &qres); err != nil {
		t.Fatal(err)
	}
	if len(qres.Points) != 3 {
		t.Fatalf("top-3 query returned %d rows", len(qres.Points))
	}
	for i := 1; i < len(qres.Points); i++ {
		if float64(qres.Points[i-1].TotalPowerMW) > float64(qres.Points[i].TotalPowerMW) {
			t.Fatalf("rows not sorted by total_power_mw: %v then %v",
				qres.Points[i-1].TotalPowerMW, qres.Points[i].TotalPowerMW)
		}
	}
	if hdr.Get("X-Query-Rows") != "3" || hdr.Get("X-Query-Studies") != fp {
		t.Errorf("query headers: rows=%q studies=%q", hdr.Get("X-Query-Rows"), hdr.Get("X-Query-Studies"))
	}
	qetag := hdr.Get("ETag")
	if qetag == "" {
		t.Fatal("query response carries no ETag")
	}
	status, _, _ = get(t, ts.URL+"/v1/query?sort=total_power_mw&top=3&format=json",
		map[string]string{"If-None-Match": qetag})
	if status != http.StatusNotModified {
		t.Fatalf("query revalidation status = %d, want 304", status)
	}

	// Frontier-of-union selection renders the frontier block.
	status, _, body = get(t, ts.URL+"/v1/query?frontier=total_power_mw,mem_time_per_sec&format=json", nil)
	if status != http.StatusOK {
		t.Fatalf("frontier query status = %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &qres); err != nil {
		t.Fatal(err)
	}
	if qres.Frontier == nil || len(qres.Frontier.Points) == 0 {
		t.Fatal("frontier query produced no frontier block")
	}

	// The whole read side ran without a single characterization.
	if es := srv.engine.Stats(); es != memo0 {
		t.Fatalf("read side touched the engine: %+v, then %+v", memo0, es)
	}

	// Error paths: stable codes for each failure shape.
	for _, tc := range []struct {
		url      string
		accept   string
		wantCode string
		want     int
	}{
		{"/v1/query?bogus=1", "", "bad_query", http.StatusBadRequest},
		{"/v1/query?top=3", "", "bad_query", http.StatusBadRequest},
		{"/v1/query?sort=vibes", "", "bad_query", http.StatusBadRequest},
		{"/v1/query?study=nope", "", "not_found", http.StatusNotFound},
		{"/v1/query", "text/plain", "not_acceptable", http.StatusNotAcceptable},
		{"/v1/studies/deadbeef", "", "not_found", http.StatusNotFound},
	} {
		hdrs := map[string]string{}
		if tc.accept != "" {
			hdrs["Accept"] = tc.accept
		}
		status, _, body := get(t, ts.URL+tc.url, hdrs)
		if status != tc.want {
			t.Errorf("%s: status = %d, want %d (%s)", tc.url, status, tc.want, body)
			continue
		}
		if code := decodeErr(t, body); code != tc.wantCode {
			t.Errorf("%s: code = %q, want %q", tc.url, code, tc.wantCode)
		}
	}

	// Stats reports the index.
	status, _, body = get(t, ts.URL+"/v1/stats", nil)
	if status != http.StatusOK {
		t.Fatalf("stats status = %d", status)
	}
	var stats Stats
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if !stats.Query.Enabled || stats.Query.Studies != 1 || stats.Query.Queries == 0 {
		t.Errorf("query stats = %+v, want enabled with 1 study and >0 queries", stats.Query)
	}
}

// TestQueryAcrossRestart proves the read side is durable: a second server
// process over the same store directory answers GET /v1/studies/{fp} and
// /v1/query without any engine work at all (the original PR 7 acceptance:
// zero characterizations on a warm store).
func TestQueryAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{MaxConcurrentStudies: 2, Store: st})
	ts := httptest.NewServer(srv.Handler())
	cfg := testConfig("svc_restart", "RRAM", 1<<20)
	status, cold := post(t, ts, cfg, "json")
	if status != http.StatusOK {
		t.Fatalf("seed status = %d", status)
	}
	_, _, body := get(t, ts.URL+"/v1/studies", nil)
	var studies []struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(body, &studies); err != nil || len(studies) != 1 {
		t.Fatalf("studies list: %v %s", err, body)
	}
	fp := studies[0].Fingerprint
	ts.Close()
	srv.Close()

	// Fresh process, cold engine, same directory.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(Options{MaxConcurrentStudies: 2, Store: st2})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	status, _, warm := get(t, ts2.URL+"/v1/studies/"+fp+"?format=json", nil)
	if status != http.StatusOK {
		t.Fatalf("warm study GET status = %d: %s", status, warm)
	}
	if !bytes.Equal(warm, cold) {
		t.Fatal("warm replay diverges from the original POST response")
	}
	status, _, body = get(t, ts2.URL+"/v1/query?sort=read_latency_ns&top=2&format=csv", nil)
	if status != http.StatusOK {
		t.Fatalf("warm query status = %d: %s", status, body)
	}
	if lines := strings.Split(strings.TrimSpace(string(body)), "\n"); len(lines) != 3 { // header + 2 rows
		t.Fatalf("csv query returned %d lines, want 3", len(lines))
	}
	if es := srv2.engine.Stats(); es.MemoHits != 0 || es.MemoMisses != 0 {
		t.Fatalf("restarted read side touched the engine: hits=%d misses=%d", es.MemoHits, es.MemoMisses)
	}
}

// TestOpenAPIDoc sanity-checks the machine-readable API description.
func TestOpenAPIDoc(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	status, hdr, body := get(t, ts.URL+"/v1/openapi.json", nil)
	if status != http.StatusOK || hdr.Get("Content-Type") != "application/json" {
		t.Fatalf("openapi = %d %q", status, hdr.Get("Content-Type"))
	}
	var doc struct {
		OpenAPI string                    `json:"openapi"`
		Paths   map[string]map[string]any `json:"paths"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.OpenAPI == "" {
		t.Error("missing openapi version")
	}
	for _, p := range []string{"/v1/studies", "/v1/studies/{fingerprint}", "/v1/query",
		"/v1/jobs", "/v1/stats", "/v1/openapi.json"} {
		if _, ok := doc.Paths[p]; !ok {
			t.Errorf("openapi document missing path %s", p)
		}
	}
	if _, ok := doc.Paths["/v1/studies"]["get"]; !ok {
		t.Error("openapi document missing GET /v1/studies")
	}
}

// FuzzQueryRequest sends arbitrary /v1/query parameter strings and Accept
// headers through parameter parsing, format negotiation and the index
// query: no panic, and every refusal is an error envelope with one of the
// read side's stable codes. Seeded with the benchmark's four query shapes.
func FuzzQueryRequest(f *testing.F) {
	for _, seed := range []struct{ query, accept string }{
		{"sort=total_power_mw&technology=RRAM&top=5", "application/json"},
		{"max_read_latency_ns=5&sort=area_mm2&top=10", ""},
		{"capacity=1048576&order=desc&sort=density_mb_per_mm2&target=ReadEDP&top=20", "text/csv"},
		{"frontier=total_power_mw,mem_time_per_sec&study=fuzz-query-a", "application/x-ndjson"},
		{"sort=vibes&top=-1&format=xml", "text/plain"},
		{"study=nope&min_=1&order=sideways", "application/json;q=0"},
	} {
		f.Add(seed.query, seed.accept)
	}

	st, err := store.Open("")
	if err != nil {
		f.Fatal(err)
	}
	srv := New(Options{MaxConcurrentStudies: 1, StudyWorkers: 1, Store: st})
	f.Cleanup(srv.Close)
	h := srv.Handler()
	for _, cfg := range []string{testConfig("fuzz-query-a", "STT", 1<<20), testConfig("fuzz-query-b", "RRAM", 1<<20)} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/studies", strings.NewReader(cfg)))
		if rec.Code != http.StatusOK {
			f.Fatalf("seeding study: status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	codes := map[string]bool{codeBadQuery: true, codeNotFound: true, codeStudyIncomplete: true,
		codeBadFormat: true, codeNotAcceptable: true}
	f.Fuzz(func(t *testing.T, rawQuery, accept string) {
		req := httptest.NewRequest(http.MethodGet, "/v1/query", nil)
		req.URL.RawQuery = rawQuery
		req.Header.Set("Accept", accept)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code == http.StatusOK {
			return
		}
		var e errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !codes[e.Error.Code] {
			t.Fatalf("status %d: body %q is not an error envelope with a stable code", rec.Code, rec.Body.Bytes())
		}
	})
}
