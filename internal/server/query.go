package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"repro/internal/query"
	"repro/internal/sweep"
)

// The read side of the API: GET /v1/studies, GET /v1/studies/{fingerprint},
// and GET /v1/query answer from the warm query index (internal/query) over
// the persistent store — zero engine work, microsecond lookups. The index
// is synchronized with the store's manifests at the top of each request,
// so studies completed by this process are queryable at once and studies
// completed by another process sharing the store directory within a
// second, without restarts. A synchronization lists the store's
// manifests only when something may have changed (see query.Index.Refresh).

// storeRequired answers the no-store case for read-side endpoints.
func (s *Server) storeRequired(w http.ResponseWriter) bool {
	if s.idx == nil {
		apiError(w, http.StatusNotFound, codeNoStore,
			fmt.Errorf("no study store attached (start the server with -store)"))
		return false
	}
	return true
}

// handleStudiesList lists every stored study — fingerprint, name, grid
// size, and whether it is fully stored (queryable).
func (s *Server) handleStudiesList(w http.ResponseWriter, _ *http.Request) {
	if !s.storeRequired(w) {
		return
	}
	s.idx.Refresh()
	writeJSON(w, s.idx.Studies())
}

// handleStudyGet re-renders one stored study by fingerprint, byte-identical
// to the POST /v1/studies response for the same configuration — including
// the ETag, so a client can revalidate a POST response against the GET
// endpoint and vice versa. No engine work: rows replay from the store.
func (s *Server) handleStudyGet(w http.ResponseWriter, r *http.Request) {
	if !s.storeRequired(w) {
		return
	}
	format, err := sweep.Negotiate(r.Header.Get("Accept"), r.URL.Query().Get("format"))
	if err != nil {
		formatError(w, err)
		return
	}
	fp := r.PathValue("fingerprint")
	res, known, err := s.idx.Load(fp)
	if !known {
		apiError(w, http.StatusNotFound, codeNotFound,
			fmt.Errorf("no stored study with fingerprint %q", fp))
		return
	}
	if err != nil {
		apiError(w, http.StatusConflict, codeStudyIncomplete, err)
		return
	}
	if etag := etagFor(fp, string(format)); !notModified(w, r, etag) {
		_ = s.writeResult(w, etag, format, res)
	}
}

// parseQueryRequest maps URL parameters onto a query.Request. Unknown
// parameters are rejected rather than ignored: a typoed filter that
// silently matches everything is worse than a 400. Parameters:
//
//	study=<fp|name>   source studies (repeatable or comma-separated; all when absent)
//	cell=, technology=, pattern=, target=, capacity=   axis equality filters
//	min_<metric>=, max_<metric>=   inclusive metric bounds
//	sort=<metric>, order=asc|desc, top=<k>   ranking
//	frontier=<metric,metric>   Pareto frontier of the filtered union
//	format=json|ndjson|csv|html   output (also Accept-negotiated)
func parseQueryRequest(q url.Values) (query.Request, error) {
	var req query.Request
	for key, vals := range q {
		v := vals[len(vals)-1]
		switch {
		case key == "study":
			for _, raw := range vals {
				for _, sel := range strings.Split(raw, ",") {
					if sel = strings.TrimSpace(sel); sel != "" {
						req.Studies = append(req.Studies, sel)
					}
				}
			}
		case key == "frontier":
			for _, m := range strings.Split(v, ",") {
				if m = strings.TrimSpace(m); m != "" {
					req.Frontier = append(req.Frontier, m)
				}
			}
		case key == "cell":
			req.Cell = v
		case key == "technology":
			req.Technology = v
		case key == "pattern":
			req.Pattern = v
		case key == "target":
			req.Target = v
		case key == "capacity":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return req, fmt.Errorf("capacity %q is not a byte count", v)
			}
			req.Capacity = n
		case key == "sort":
			req.Sort = v
		case key == "order":
			switch v {
			case "asc", "":
			case "desc":
				req.Desc = true
			default:
				return req, fmt.Errorf("order %q (want asc or desc)", v)
			}
		case key == "top":
			n, err := strconv.Atoi(v)
			if err != nil {
				return req, fmt.Errorf("top %q is not a count", v)
			}
			req.Top = n
		case key == "format": // negotiated separately
		case strings.HasPrefix(key, "min_"):
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return req, fmt.Errorf("%s=%q is not a number", key, v)
			}
			if req.Min == nil {
				req.Min = map[string]float64{}
			}
			req.Min[strings.TrimPrefix(key, "min_")] = f
		case strings.HasPrefix(key, "max_"):
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return req, fmt.Errorf("%s=%q is not a number", key, v)
			}
			if req.Max == nil {
				req.Max = map[string]float64{}
			}
			req.Max[strings.TrimPrefix(key, "max_")] = f
		default:
			return req, fmt.Errorf("unknown parameter %q", key)
		}
	}
	return req, nil
}

// handleQuery answers one ad-hoc question over the stored studies: filter,
// rank, and Pareto-select rows across any subset of them, rendered through
// the same writers as every study response. The whole request is a warm
// column scan — no characterizations, no store reads.
//
// Responses carry a strong ETag keyed on (index generation, canonical
// request, format): it stays valid exactly until a Refresh actually changes
// the indexed study set, so clients polling the same question revalidate
// with 304 for free.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !s.storeRequired(w) {
		return
	}
	q := r.URL.Query()
	req, err := parseQueryRequest(q)
	if err != nil {
		apiError(w, http.StatusBadRequest, codeBadQuery, err)
		return
	}
	format, err := sweep.Negotiate(r.Header.Get("Accept"), q.Get("format"))
	if err != nil {
		formatError(w, err)
		return
	}
	gen := s.idx.Refresh()
	// url.Values.Encode sorts keys, so equivalent requests share an ETag.
	etag := etagFor(fmt.Sprintf("query\x00%d\x00%s", gen, q.Encode()), string(format))
	if notModified(w, r, etag) {
		return
	}
	resp, err := s.idx.Query(req)
	if err != nil {
		s.queryError(w, err)
		return
	}
	w.Header().Set("X-Query-Rows", strconv.Itoa(resp.Rows))
	w.Header().Set("X-Query-Generation", strconv.FormatInt(resp.Generation, 10))
	w.Header().Set("X-Query-Studies", resp.Studies)
	_ = s.writeResult(w, etag, format, resp.Results)
}

// queryError maps internal/query's typed errors onto the envelope.
func (s *Server) queryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, query.ErrUnknownStudy):
		apiError(w, http.StatusNotFound, codeNotFound, err)
	case errors.Is(err, query.ErrIncomplete):
		apiError(w, http.StatusConflict, codeStudyIncomplete, err)
	case errors.Is(err, query.ErrBadRequest), errors.Is(err, query.ErrAmbiguousStudy):
		apiError(w, http.StatusBadRequest, codeBadQuery, err)
	default:
		apiError(w, http.StatusInternalServerError, codeInternal, err)
	}
}

// The machine-readable API description. Built once (it is static) and
// served at GET /v1/openapi.json.
var (
	openapiOnce sync.Once
	openapiDoc  []byte
)

func buildOpenAPI() []byte {
	formats := "Output format; also negotiated from Accept (406 when Accept names only unproducible types)."
	formatParam := map[string]any{
		"name": "format", "in": "query", "description": formats,
		"schema": map[string]any{"type": "string", "enum": []string{"json", "ndjson", "csv", "html"}},
	}
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
	doc := map[string]any{
		"openapi": "3.0.3",
		"info": map[string]any{
			"title":       "NVMExplorer-Go study service",
			"description": "Sweep/study pipeline over the eNVM characterization engine, plus a read-optimized query surface over the persistent study store. Every non-2xx response body is the error envelope (components/schemas/Error).",
			"version":     "v1",
		},
		"components": map[string]any{"schemas": map[string]any{"Error": envelope}},
		"paths": map[string]any{
			"/v1/studies": map[string]any{
				"post": map[string]any{
					"summary":     "Run a sweep configuration",
					"description": "Body is a sweep config (JSON). ?pareto=metric,metric overrides the config's frontier; ?mode=adaptive runs Pareto-guided refinement instead of the exhaustive grid (requires a pareto selection; ?budget= caps evaluated points via successive halving, ?seed= fixes the halving tie-break), and the response then carries an `exploration` block (evaluated vs. exhaustive points, pruned counts, rounds) — identical (config, seed, budget) requests produce byte-identical bodies. ?async=1 queues a job and answers 202. Deterministic responses carry a strong ETag; If-None-Match revalidates with 304 without running the study.",
					"parameters": []any{formatParam,
						map[string]any{"name": "pareto", "in": "query", "schema": map[string]any{"type": "string"}},
						map[string]any{"name": "mode", "in": "query", "description": "Exploration mode override: exhaustive (default) or adaptive.", "schema": map[string]any{"type": "string", "enum": []string{"exhaustive", "adaptive"}}},
						map[string]any{"name": "budget", "in": "query", "description": "Adaptive point budget (0 = unlimited); spent deterministically by successive halving.", "schema": map[string]any{"type": "integer"}},
						map[string]any{"name": "seed", "in": "query", "description": "Adaptive halving tie-break seed; same (config, seed, budget) gives byte-identical output.", "schema": map[string]any{"type": "integer", "format": "int64"}},
						map[string]any{"name": "async", "in": "query", "schema": map[string]any{"type": "string"}}},
				},
				"get": map[string]any{
					"summary":     "List stored studies",
					"description": "Fingerprint, name, grid size, and completeness of every study manifest in the store.",
				},
			},
			"/v1/studies/{fingerprint}": map[string]any{
				"get": map[string]any{
					"summary":     "Re-render one stored study",
					"description": "Byte-identical to the POST response for the same configuration (same ETag), served from the store with zero engine work. 409 study_incomplete when points are missing.",
					"parameters": []any{formatParam,
						map[string]any{"name": "fingerprint", "in": "path", "required": true, "schema": map[string]any{"type": "string"}}},
				},
			},
			"/v1/query": map[string]any{
				"get": map[string]any{
					"summary":     "Query the stored studies",
					"description": "Filter (study=, cell=, technology=, pattern=, target=, capacity=, min_<metric>=, max_<metric>=), rank (sort=, order=, top=), and Pareto-select (frontier=metric,metric) rows across stored studies. Answers from a warm in-memory columnar index: zero characterizations. ETag is keyed on the index generation, so polls revalidate with 304.",
					"parameters": []any{formatParam,
						map[string]any{"name": "study", "in": "query", "description": "Source study fingerprint or unique name; repeatable. All complete studies when absent.", "schema": map[string]any{"type": "string"}},
						map[string]any{"name": "sort", "in": "query", "schema": map[string]any{"type": "string"}},
						map[string]any{"name": "order", "in": "query", "schema": map[string]any{"type": "string", "enum": []string{"asc", "desc"}}},
						map[string]any{"name": "top", "in": "query", "schema": map[string]any{"type": "integer"}},
						map[string]any{"name": "frontier", "in": "query", "schema": map[string]any{"type": "string"}}},
				},
			},
			"/v1/jobs":                            map[string]any{"get": map[string]any{"summary": "List async jobs in submission order"}},
			"/v1/jobs/{id}":                       map[string]any{"get": map[string]any{"summary": "One job: state + completed/total progress"}, "delete": map[string]any{"summary": "Cancel a queued or running job"}},
			"/v1/jobs/{id}/result":                map[string]any{"get": map[string]any{"summary": "A done job's study body", "parameters": []any{formatParam}}},
			"/v1/cells":                           map[string]any{"get": map[string]any{"summary": "The canonical tentpole cell database"}},
			"/v1/experiments":                     map[string]any{"get": map[string]any{"summary": "The paper-experiment registry"}},
			"/v1/experiments/{id}/dashboard.html": map[string]any{"get": map[string]any{"summary": "One experiment rendered as an HTML dashboard"}},
			"/v1/stats":                           map[string]any{"get": map[string]any{"summary": "Memo-cache, store, fabric, job, and query-index counters (schema_version-stamped)"}},
			"/v1/healthz":                         map[string]any{"get": map[string]any{"summary": "Liveness/readiness (503 while draining)"}},
			"/v1/openapi.json":                    map[string]any{"get": map[string]any{"summary": "This document"}},
			"/v1/version": map[string]any{
				"get": map[string]any{
					"summary":     "Protocol and schema versions for the peer handshake",
					"description": "The wire-protocol generation plus every schema version that crosses the wire (point keys, store records, shard payloads). Fabric coordinators refuse workers whose versions disagree (version_mismatch).",
				},
			},
			"/v1/shard": map[string]any{
				"post": map[string]any{
					"summary":     "Characterize a slice of a study's design space (fabric worker protocol)",
					"description": "Body: {protocol, fingerprint, config, indices}. The worker rebuilds the study from config and must arrive at the coordinator's fingerprint (409 shard_conflict otherwise; 400 version_mismatch on a protocol generation this worker doesn't speak). The response is a CRC-enveloped nvmx-shard/v2 payload of characterizations: each distinct characterization config of the named points that succeeded for every study target, with its per-target winners in target order, or failed for every target, with its per-target error messages. Other configs (a panic, or winners mixed with errors) are absent. The coordinator checks every entry, characterizes what is missing itself, and evaluates and stores every point; a shard reads and writes no store on the worker.",
				},
			},
		},
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		// The document is a static literal; a marshal failure is a bug.
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
