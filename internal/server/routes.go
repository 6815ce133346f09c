package server

import (
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"strings"
	"sync"
)

// route is one endpoint of the API: the ServeMux pattern it is registered
// under ("METHOD /path"), its one-line summary, its handler, and any
// further fields of its OpenAPI operation (description, parameters).
type route struct {
	pattern string
	summary string
	handle  func(*Server, http.ResponseWriter, *http.Request)
	openapi map[string]any
}

// routes is the API's one route table: Handler registers it, and GET / and
// GET /v1/openapi.json describe it. It is a function rather than a
// variable because handleOpenAPI, which it lists, builds its document
// from it.
func routes() []route {
	formatParam := map[string]any{
		"name": "format", "in": "query",
		"description": "Output format; also negotiated from Accept (406 when Accept names only unproducible types).",
		"schema":      map[string]any{"type": "string", "enum": []string{"json", "ndjson", "csv", "html"}},
	}
	return []route{
		{"POST /v1/studies", "Run a sweep configuration", (*Server).handleStudies, map[string]any{
			"description": "Body is a sweep config (JSON). ?pareto=metric,metric overrides the config's frontier; ?mode=adaptive runs Pareto-guided refinement instead of the exhaustive grid (requires a pareto selection; ?budget= caps evaluated points via successive halving, ?seed= fixes the halving tie-break), and the response then carries an `exploration` block (evaluated vs. exhaustive points, pruned counts, rounds) — identical (config, seed, budget) requests produce byte-identical bodies. ?async=1 queues a job and answers 202. Deterministic responses carry a strong ETag; If-None-Match revalidates with 304 without running the study.",
			"parameters": []any{formatParam,
				map[string]any{"name": "pareto", "in": "query", "schema": map[string]any{"type": "string"}},
				map[string]any{"name": "mode", "in": "query", "description": "Exploration mode override: exhaustive (default) or adaptive.", "schema": map[string]any{"type": "string", "enum": []string{"exhaustive", "adaptive"}}},
				map[string]any{"name": "budget", "in": "query", "description": "Adaptive point budget (0 = unlimited); spent deterministically by successive halving.", "schema": map[string]any{"type": "integer"}},
				map[string]any{"name": "seed", "in": "query", "description": "Adaptive halving tie-break seed; same (config, seed, budget) gives byte-identical output.", "schema": map[string]any{"type": "integer", "format": "int64"}},
				map[string]any{"name": "async", "in": "query", "schema": map[string]any{"type": "string"}}},
		}},
		{"GET /v1/studies", "List stored studies", (*Server).handleStudiesList, map[string]any{
			"description": "Fingerprint, name, grid size, and completeness of every study manifest in the store.",
		}},
		{"GET /v1/studies/{fingerprint}", "Re-render one stored study", (*Server).handleStudyGet, map[string]any{
			"description": "Byte-identical to the POST response for the same configuration (same ETag), served from the store with zero engine work. 409 study_incomplete when points are missing.",
			"parameters": []any{formatParam,
				map[string]any{"name": "fingerprint", "in": "path", "required": true, "schema": map[string]any{"type": "string"}}},
		}},
		{"GET /v1/query", "Query the stored studies", (*Server).handleQuery, map[string]any{
			"description": "Filter (study=, cell=, technology=, pattern=, target=, capacity=, min_<metric>=, max_<metric>=), rank (sort=, order=, top=), and Pareto-select (frontier=metric,metric) rows across stored studies. Answers from a warm in-memory columnar index: zero characterizations. ETag is keyed on the index generation, so polls revalidate with 304.",
			"parameters": []any{formatParam,
				map[string]any{"name": "study", "in": "query", "description": "Source study fingerprint or unique name; repeatable. All complete studies when absent.", "schema": map[string]any{"type": "string"}},
				map[string]any{"name": "sort", "in": "query", "schema": map[string]any{"type": "string"}},
				map[string]any{"name": "order", "in": "query", "schema": map[string]any{"type": "string", "enum": []string{"asc", "desc"}}},
				map[string]any{"name": "top", "in": "query", "schema": map[string]any{"type": "integer"}},
				map[string]any{"name": "frontier", "in": "query", "schema": map[string]any{"type": "string"}}},
		}},
		{"GET /v1/jobs", "List async jobs in submission order", (*Server).handleJobs, nil},
		{"GET /v1/jobs/{id}", "One job: state + completed/total progress", (*Server).handleJob, nil},
		{"GET /v1/jobs/{id}/result", "A done job's study body", (*Server).handleJobResult, map[string]any{"parameters": []any{formatParam}}},
		{"DELETE /v1/jobs/{id}", "Cancel a queued or running job", (*Server).handleJobCancel, nil},
		{"GET /v1/cells", "The canonical tentpole cell database", (*Server).handleCells, nil},
		{"GET /v1/experiments", "The paper-experiment registry", (*Server).handleExperiments, nil},
		{"GET /v1/experiments/{id}/dashboard.html", "One experiment rendered as an HTML dashboard", (*Server).handleDashboard, nil},
		{"GET /v1/stats", "Memo-cache, store, fabric, job, and query-index counters (schema_version-stamped)", (*Server).handleStats, nil},
		{"GET /v1/healthz", "Liveness/readiness (503 while draining)", (*Server).handleHealthz, nil},
		{"GET /v1/openapi.json", "The machine-readable API description", (*Server).handleOpenAPI, nil},
		// The fabric worker protocol (see storeapi.go).
		{"GET /v1/version", "Protocol and schema versions for the peer handshake", (*Server).handleVersion, map[string]any{
			"description": "The wire-protocol generation plus every schema version that crosses the wire (point keys, store records, shard payloads). Fabric coordinators refuse workers whose versions disagree (version_mismatch).",
		}},
		{"POST /v1/shard", "Characterize a slice of a study's design space (fabric worker protocol)", (*Server).handleShard, map[string]any{
			"description": "Body: {protocol, fingerprint, config, indices}. The worker rebuilds the study from config and must arrive at the coordinator's fingerprint (409 shard_conflict otherwise; 400 version_mismatch on a protocol generation this worker doesn't speak). The response is a CRC-enveloped nvmx-shard/v2 payload of characterizations: each distinct characterization config of the named points that succeeded for every study target, with its per-target winners in target order, or failed for every target, with its per-target error messages. Other configs (a panic, or winners mixed with errors) are absent. The coordinator checks every entry, characterizes what is missing itself, and evaluates and stores every point; a shard reads and writes no store on the worker.",
		}},
	}
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range routes() {
		mux.HandleFunc(rt.pattern, func(w http.ResponseWriter, r *http.Request) { rt.handle(s, w, r) })
	}
	mux.HandleFunc("GET /{$}", s.handleIndex)
	// Everything else gets the API's 404 envelope instead of the mux's
	// plain-text default (method mismatches land here too).
	mux.HandleFunc("/", s.handleNotFound)
	return mux
}

// handleIndex lists the routes, one "METHOD /path  summary" line each.
func (s *Server) handleIndex(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "NVMExplorer-Go study service")
	for _, rt := range routes() {
		fmt.Fprintf(w, "  %-40s %s\n", rt.pattern, rt.summary)
	}
	fmt.Fprintln(w, "Parameters, formats and error codes: GET /v1/openapi.json")
}

// The machine-readable API description. Built once (it is static) and
// served at GET /v1/openapi.json.
var (
	openapiOnce sync.Once
	openapiDoc  []byte
)

func buildOpenAPI() []byte {
	envelope := map[string]any{
		"type": "object",
		"properties": map[string]any{
			"error": map[string]any{
				"type":     "object",
				"required": []string{"code", "message"},
				"properties": map[string]any{
					"code": map[string]any{
						"type": "string",
						"enum": []string{
							codeInvalidConfig, codeBadFormat, codeNotAcceptable,
							codeBadQuery, codeNotFound, codeNoStore,
							codeStudyIncomplete, codeJobNotReady, codeJobCanceled,
							codeJobFailed, codeQueueFull, codeDraining,
							codeSaturated, codeStudyTimeout, codeStudyFailed,
							codeInternal,
							codeShardConflict, codeVersionMismatch,
						},
					},
					"message":     map[string]any{"type": "string"},
					"retry_after": map[string]any{"type": "integer"},
				},
			},
		},
	}
	paths := map[string]map[string]any{}
	for _, rt := range routes() {
		method, path, _ := strings.Cut(rt.pattern, " ")
		op := map[string]any{"summary": rt.summary}
		maps.Copy(op, rt.openapi)
		if paths[path] == nil {
			paths[path] = map[string]any{}
		}
		paths[path][strings.ToLower(method)] = op
	}
	doc := map[string]any{
		"openapi": "3.0.3",
		"info": map[string]any{
			"title":       "NVMExplorer-Go study service",
			"description": "Sweep/study pipeline over the eNVM characterization engine, plus a read-optimized query surface over the persistent study store. Every non-2xx response body is the error envelope (components/schemas/Error).",
			"version":     "v1",
		},
		"components": map[string]any{"schemas": map[string]any{"Error": envelope}},
		"paths":      paths,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		// The document is built from static literals; a marshal failure is
		// a bug.
		panic(err)
	}
	return data
}

// handleOpenAPI serves the static API description.
func (s *Server) handleOpenAPI(w http.ResponseWriter, _ *http.Request) {
	openapiOnce.Do(func() { openapiDoc = buildOpenAPI() })
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(openapiDoc)
}
