package server

import (
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/sweep"
)

// The single error contract of the /v1 API. Every non-2xx response body is
// the same envelope:
//
//	{"error": {"code": "...", "message": "...", "retry_after": N}}
//
// Code is a stable machine-readable identifier (the table below); message
// is human-readable and may change between releases; retry_after appears
// only on 429/503 responses that also carry a Retry-After header, so
// clients behind proxies that strip headers still see the hint. Before
// this, error bodies were ad-hoc {"error": "text"} maps and clients had to
// string-match.

// Stable error codes. These are API surface: changing one is a breaking
// change.
const (
	// codeInvalidConfig: the request body is not a runnable sweep
	// configuration (parse error, validation error, or a config that
	// cannot expand into a design space).
	codeInvalidConfig = "invalid_config"
	// codeBadFormat: an explicit ?format= value is not json|ndjson|csv|html.
	codeBadFormat = "bad_format"
	// codeNotAcceptable: the Accept header names only media types no study
	// writer produces (406).
	codeNotAcceptable = "not_acceptable"
	// codeBadQuery: a /v1/query parameter is unknown or malformed.
	codeBadQuery = "bad_query"
	// codeNotFound: no such job, study, experiment, or endpoint.
	codeNotFound = "not_found"
	// codeNoStore: the endpoint needs a persistent study store and the
	// server was started without one.
	codeNoStore = "no_store"
	// codeStudyIncomplete: the study's manifest exists but not all of its
	// points are in the store (interrupted run, shared directory).
	codeStudyIncomplete = "study_incomplete"
	// codeJobNotReady: the job is queued or running; no result yet.
	codeJobNotReady = "job_not_ready"
	// codeJobCanceled: the job was canceled; there will be no result.
	codeJobCanceled = "job_canceled"
	// codeJobFailed: the job ran and failed.
	codeJobFailed = "job_failed"
	// codeQueueFull: the async job queue is at capacity.
	codeQueueFull = "queue_full"
	// codeDraining: the server is shutting down and not accepting work.
	codeDraining = "draining"
	// codeSaturated: the sync study semaphore stayed full past the
	// load-shedding deadline (429 + Retry-After).
	codeSaturated = "saturated"
	// codeStudyTimeout: the study exceeded the server's execution budget.
	codeStudyTimeout = "study_timeout"
	// codeStudyFailed: the study ran and failed (engine or evaluation
	// error).
	codeStudyFailed = "study_failed"
	// codeInternal: an unexpected server-side failure.
	codeInternal = "internal"

	// The fabric worker protocol's codes (the /v1/shard endpoint — see
	// storeapi.go).

	// codeShardConflict: a shard request's study fingerprint does not match
	// the study its config rebuilds to, or names indices outside its design
	// space — the coordinator and worker disagree about what the work is.
	codeShardConflict = "shard_conflict"
	// codeVersionMismatch: the peer speaks a different protocol generation
	// or record schema than this binary.
	codeVersionMismatch = "version_mismatch"
)

// errorDetail is the envelope's payload.
type errorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfter mirrors the Retry-After header (seconds), present only on
	// load-shedding responses.
	RetryAfter int `json:"retry_after,omitempty"`
}

// errorBody is the envelope every non-2xx response uses.
type errorBody struct {
	Error errorDetail `json:"error"`
}

// apiError writes the error envelope.
func apiError(w http.ResponseWriter, status int, code string, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Error: errorDetail{Code: code, Message: err.Error()}})
}

// formatError maps a sweep.Negotiate failure to its response: an explicit
// bad ?format= is the client's mistake (400), an Accept header we cannot
// satisfy is 406.
func formatError(w http.ResponseWriter, err error) {
	if errors.Is(err, sweep.ErrNotAcceptable) {
		apiError(w, http.StatusNotAcceptable, codeNotAcceptable, err)
		return
	}
	apiError(w, http.StatusBadRequest, codeBadFormat, err)
}
