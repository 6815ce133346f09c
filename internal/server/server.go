// Package server is the NVMExplorer-Go study service: a long-running HTTP
// API over the characterization engine, the Go stand-in for the paper's
// always-on interactive front end (the Section II-C web dashboard). It
// exposes the sweep/study pipeline so many clients can pose eNVM design
// questions against one warm process — repeated and overlapping studies
// are served from the server's engine memo instead of recomputing,
// and with -store every evaluated point persists, so a restarted process
// replays stored points without characterizing them.
//
// Endpoints (all under /v1):
//
//	POST /v1/studies                        run a sweep.Config; ?format=json|ndjson|csv|html
//	                                        and ?pareto=metric,metric for frontier selection;
//	                                        ?async=1 queues the study and answers 202+job ID
//	GET  /v1/studies                        list stored studies (requires -store)
//	GET  /v1/studies/{fingerprint}          re-render one stored study, zero engine work
//	GET  /v1/query                          filter/rank/Pareto-select rows across stored
//	                                        studies from the warm query index
//	GET  /v1/jobs                           every async job, submission order
//	GET  /v1/jobs/{id}                      one job: state + completed/total progress
//	GET  /v1/jobs/{id}/result               a done job's study body (?format= as above)
//	DELETE /v1/jobs/{id}                    cancel a queued or running job
//	GET  /v1/cells                          the canonical tentpole cell database
//	GET  /v1/experiments                    the paper-experiment registry
//	GET  /v1/experiments/{id}/dashboard.html  one experiment rendered as an HTML dashboard
//	GET  /v1/stats                          memo-cache, study-store, fabric, job, and query counters
//	GET  /v1/healthz                        liveness/readiness (503 while draining)
//	GET  /v1/openapi.json                   machine-readable API description
//	GET  /v1/version                        protocol + schema versions for the peer handshake
//	GET/PUT /v1/store/points/{addr}         the store wire protocol: point records by content
//	GET/PUT /v1/store/studies[/{fp}]        address and study records, in the store's own
//	                                        CRC-enveloped byte format
//	POST /v1/shard                          characterize a slice of a study's design space
//	                                        (the fabric worker protocol — see internal/fabric)
//
// Responses for a given configuration are byte-identical to the batch CLI
// (`nvmexplorer run -format json|ndjson|csv`): both sides render through
// the same sweep writers, and study output is deterministic at any worker
// count. That determinism is also why study responses carry a strong ETag
// derived from the configuration fingerprint: a client that replays a
// configuration with If-None-Match gets 304 without the study running at
// all. A bounded job semaphore (Options.MaxConcurrentStudies) keeps
// concurrent studies — sync and async alike — from oversubscribing the
// per-study worker pools, and Options.Store plugs the persistent
// point-level study store (internal/store) under every run.
//
// Every study runs one lifecycle (Server.execute, exec.go): expand
// (sweep.Expand, shared with the CLI and the query index) → slot →
// prefill → run → manifest → render. Sync JSON/CSV/HTML and NDJSON
// requests, async jobs (fresh or resumed from the journal), and fabric
// shards differ only in their callbacks. A failure is classified once:
// client gone (nothing written), over budget (503 study_timeout; an NDJSON
// stream already answering 200 ends with a study_timeout error row), or
// failed (422 study_failed).
//
// Output format selection is shared across every rendering endpoint
// (sweep.Negotiate): an explicit ?format= always wins (400 bad_format on an
// unknown name), otherwise the Accept header is honored (406 not_acceptable
// when it names only unproducible types). Every non-2xx response uses one
// JSON error envelope with stable codes — see errors.go.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fabric"
	"repro/internal/nvsim"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/viz"
)

// maxConfigBytes bounds a POST /v1/studies request body.
const maxConfigBytes = 1 << 20

// Options configures a Server.
type Options struct {
	// MaxConcurrentStudies bounds how many studies (and dashboard
	// renders) run at once; further requests wait their turn. 0 means
	// GOMAXPROCS.
	MaxConcurrentStudies int
	// StudyWorkers is the per-study worker-pool size, and the cap on a
	// configuration's own: a "workers" outside 1..StudyWorkers gets
	// StudyWorkers. 0 divides GOMAXPROCS evenly across
	// MaxConcurrentStudies. Worker count never changes output.
	StudyWorkers int
	// Store, when non-nil, is attached to every study as its per-point
	// result cache, so repeated and overlapping studies replay stored
	// points instead of re-characterizing (see internal/store).
	Store *store.Store
	// JobWorkers sizes the async worker pool. 0 means
	// MaxConcurrentStudies. Running async jobs still count against the
	// study semaphore.
	JobWorkers int
	// JobQueueDepth bounds how many async jobs may wait beyond the ones
	// running; submissions past it answer 503. 0 means 16.
	JobQueueDepth int
	// SyncWait bounds how long a synchronous study (or dashboard) request
	// may wait for a study slot before being shed with 429 + Retry-After —
	// under overload, fast feedback beats a request that blocks until the
	// client gives up. 0 waits as long as the client does.
	SyncWait time.Duration
	// StudyTimeout bounds one synchronous study's execution; a run that
	// exceeds it answers 503. 0 means no limit. Async jobs are unaffected
	// (their budget is the job queue's).
	StudyTimeout time.Duration
	// Workers lists fabric worker base URLs (e.g. "http://w1:8080"). When
	// non-empty the server becomes a coordinator: before a study runs, the
	// characterization configs of its cold grid points are consistent-hashed
	// across the live workers and characterized remotely via POST
	// /v1/shard; the run then evaluates and stores every point itself, so
	// it stays byte-identical to a single-process execution. A coordinator
	// without a Store gets an in-memory one (the prefill probes it for
	// points already stored).
	Workers []string
	// Fabric tunes the coordinator's worker pool: its HTTP client (chaos
	// tests inject fault-wrapped transports), hedging, breaker backoff, and
	// the background re-handshake ticker (see fabric.Options). Ignored
	// without Workers.
	Fabric fabric.Options
}

// Server is the study service. Create with New; it is safe for concurrent
// use by the HTTP stack. Call Close when done to stop the async workers.
type Server struct {
	opts Options
	sem  chan struct{} // bounded job semaphore
	jobs *jobManager
	// idx is the read-optimized query index over the store's studies
	// (GET /v1/query, GET /v1/studies...); nil without a store.
	idx *query.Index
	// fabric is the coordinator's worker pool; nil unless Options.Workers
	// is set.
	fabric *fabric.Pool
	// engine characterizes every study, shard and dashboard this server
	// runs: one memo shared across its requests.
	engine *nvsim.Engine

	inFlight     atomic.Int64
	completed    atomic.Int64
	failed       atomic.Int64
	points       atomic.Int64 // study rows rendered across all formats; shards add none
	shed         atomic.Int64 // sync requests bounced with 429 under overload
	shardsServed atomic.Int64 // POST /v1/shard requests answered (worker role)
	draining     atomic.Bool  // set by Drain; flips /v1/healthz to 503

	// Completed adaptive runs and their evaluated/unevaluated point totals,
	// summed from each run's Results.Exploration.
	adaptiveStudies, adaptiveEvaluated, adaptivePruned atomic.Int64
}

// New creates a Server and starts its async worker pool.
func New(opts Options) *Server {
	if opts.MaxConcurrentStudies <= 0 {
		opts.MaxConcurrentStudies = runtime.GOMAXPROCS(0)
	}
	if opts.StudyWorkers <= 0 {
		opts.StudyWorkers = runtime.GOMAXPROCS(0) / opts.MaxConcurrentStudies
		if opts.StudyWorkers < 1 {
			opts.StudyWorkers = 1
		}
	}
	if opts.JobWorkers <= 0 {
		opts.JobWorkers = opts.MaxConcurrentStudies
	}
	if opts.JobQueueDepth <= 0 {
		opts.JobQueueDepth = 16
	}
	if len(opts.Workers) > 0 && opts.Store == nil {
		// A coordinator fans out only the points its store lacks; without a
		// configured store, an in-memory one keeps warm re-runs off the
		// fleet (just not across restarts).
		opts.Store, _ = store.Open("")
	}
	s := &Server{opts: opts, sem: make(chan struct{}, opts.MaxConcurrentStudies), engine: nvsim.NewEngine()}
	if len(opts.Workers) > 0 {
		s.fabric = fabric.NewPoolOptions(opts.Workers, opts.Fabric)
		s.fabric.Start(opts.Store)
	}
	if opts.Store != nil {
		s.idx = query.New(opts.Store)
		s.idx.Refresh() // warm the read side before the first request
	}
	s.jobs = newJobManager(s, opts.JobWorkers, opts.JobQueueDepth)
	// Replay the store's job journal: every async job that never reached a
	// terminal state before the last shutdown (graceful or not) is re-adopted
	// and re-queued. Already-stored points replay from the store, so a
	// resumed job recomputes at most the points that were in flight when the
	// process died.
	s.jobs.resume()
	return s
}

// ResumedJobs reports how many journaled jobs this server re-adopted at
// startup.
func (s *Server) ResumedJobs() int64 { return s.jobs.resumed.Load() }

// Close cancels every outstanding async job, stops the worker pool, and
// ends the fabric's background loops. In-flight synchronous requests are
// the HTTP server's to drain.
func (s *Server) Close() {
	s.jobs.close()
	if s.fabric != nil {
		s.fabric.Stop()
	}
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/studies", s.handleStudies)
	mux.HandleFunc("GET /v1/studies", s.handleStudiesList)
	mux.HandleFunc("GET /v1/studies/{fingerprint}", s.handleStudyGet)
	mux.HandleFunc("GET /v1/query", s.handleQuery)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/cells", s.handleCells)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /v1/experiments/{id}/dashboard.html", s.handleDashboard)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/openapi.json", s.handleOpenAPI)
	// The store/worker wire protocol (see storeapi.go). GET registrations
	// also answer HEAD, which is the protocol's "has" probe.
	mux.HandleFunc("GET /v1/version", s.handleVersion)
	mux.HandleFunc("GET /v1/store/points/{addr}", s.recordGet("addr", "no point record at %s", (*store.Store).ExportPoint))
	mux.HandleFunc("PUT /v1/store/points/{addr}", s.recordPut((*store.Store).ImportPoint))
	mux.HandleFunc("GET /v1/store/studies", s.handleStoreStudies)
	mux.HandleFunc("GET /v1/store/studies/{fingerprint}", s.recordGet("fingerprint", "no study record %s", (*store.Store).ExportStudy))
	mux.HandleFunc("PUT /v1/store/studies/{fingerprint}", s.recordPut((*store.Store).ImportStudy))
	mux.HandleFunc("POST /v1/shard", s.handleShard)
	mux.HandleFunc("GET /{$}", s.handleIndex)
	// Everything else gets the API's 404 envelope instead of the mux's
	// plain-text default (method mismatches land here too).
	mux.HandleFunc("/", s.handleNotFound)
	return mux
}

// Drain marks the server as shutting down: /v1/healthz starts answering
// 503 so load balancers stop routing new work, while requests already
// in flight run to completion (http.Server.Shutdown handles the drain).
func (s *Server) Drain() { s.draining.Store(true) }

// handleHealthz reports liveness plus readiness: 200 while serving (with
// status "degraded" once the store has fallen back to memory-only mode —
// still correct, no longer durable), 503 once draining, with the in-flight
// study count either way.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := http.StatusOK
	state := "ok"
	if s.opts.Store != nil && s.opts.Store.Degraded() {
		state = "degraded"
	}
	if s.draining.Load() {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":    state,
		"in_flight": s.inFlight.Load(),
	})
}

// handleNotFound is the catch-all: unknown paths (and method mismatches the
// mux routes here) answer the API's 404 envelope.
func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	apiError(w, http.StatusNotFound, codeNotFound,
		fmt.Errorf("no such endpoint: %s %s", r.Method, r.URL.Path))
}

// etagFor derives the strong ETag of a study response: study responses are
// deterministic functions of (configuration fingerprint, format), so the
// hash of that pair identifies the exact bytes without rendering them.
func etagFor(fingerprint, format string) string {
	sum := sha256.Sum256([]byte(fingerprint + "\x00" + format))
	return `"` + hex.EncodeToString(sum[:16]) + `"`
}

// notModified answers 304 when the request's If-None-Match matches etag
// (RFC 9110 §13.1.2: a comma-separated list or "*"; weak-compare).
func notModified(w http.ResponseWriter, r *http.Request, etag string) bool {
	for _, v := range strings.Split(r.Header.Get("If-None-Match"), ",") {
		v = strings.TrimPrefix(strings.TrimSpace(v), "W/")
		if v == etag || v == "*" {
			w.Header().Set("ETag", etag)
			w.WriteHeader(http.StatusNotModified)
			return true
		}
	}
	return false
}

// writeResult renders a study body under its ETag, counting the points
// served. Once it runs the response has started, so a caller can only
// count a write error, not answer it.
func (s *Server) writeResult(w http.ResponseWriter, etag string, format sweep.Format, res *core.Results) error {
	w.Header().Set("ETag", etag)
	w.Header().Set("Content-Type", format.ContentType())
	if err := format.Write(w, res); err != nil {
		return err
	}
	s.points.Add(int64(len(res.Metrics)))
	return nil
}

// studyRequest is one expanded POST /v1/studies request.
type studyRequest struct {
	x      *sweep.Expansion
	format sweep.Format
	// raw and ov are the request as received: async submissions journal
	// them, so a resumed job re-expands the identical study after a restart.
	raw []byte
	ov  sweep.Overrides
}

// readStudy expands a request body and its ?pareto=, ?mode=, ?budget= and
// ?seed= overrides into a runnable study and negotiates its format.
func (s *Server) readStudy(w http.ResponseWriter, r *http.Request) (studyRequest, bool) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxConfigBytes))
	if err != nil {
		apiError(w, http.StatusBadRequest, codeInvalidConfig, err)
		return studyRequest{}, false
	}
	q := r.URL.Query()
	ov, err := sweep.ParseOverrides(q.Get)
	if err != nil {
		apiError(w, http.StatusBadRequest, codeInvalidConfig, err)
		return studyRequest{}, false
	}
	x, err := sweep.Expand(raw, ov, s.opts.Store)
	format, ferr := sweep.Negotiate(r.Header.Get("Accept"), q.Get("format"))
	switch {
	case err != nil && !errors.As(err, new(*sweep.SpaceError)):
		configError(w, err)
	case ferr != nil: // a format error answers before a design-space 422
		formatError(w, ferr)
	case err != nil:
		configError(w, err)
	default:
		return studyRequest{x: x, format: format, raw: raw, ov: ov}, true
	}
	return studyRequest{}, false
}

// handleStudies runs one sweep configuration. JSON and CSV responses are
// rendered after the run completes; NDJSON streams one DesignPoint per
// line, flushed as the worker pool finishes grid points (in deterministic
// declaration order, so the concatenated stream is byte-identical to the
// batch writer's output). ?async=1 queues the study as a job and answers
// 202 immediately; a matching If-None-Match answers 304 without running.
func (s *Server) handleStudies(w http.ResponseWriter, r *http.Request) {
	req, ok := s.readStudy(w, r)
	if !ok {
		return
	}
	switch r.URL.Query().Get("async") {
	case "", "0", "false":
	default:
		s.submitAsync(w, req)
		return
	}
	// Deterministic responses make request-identity ETags exact: compute it
	// before running so a revalidation never costs a study.
	etag := etagFor(req.x.Fingerprint, string(req.format))
	if notModified(w, r, etag) {
		return
	}
	e := execution{x: req.x, sync: true}
	if req.format != sweep.FormatNDJSON {
		e.render = func(res *core.Results) error { return s.writeResult(w, etag, req.format, res) }
		if _, f := s.execute(r.Context(), e); f != nil {
			writeFailure(w, f, false)
		}
		return
	}

	// NDJSON: commit to 200 once the slot is held and stream rows as the
	// run's evaluation pass emits grid points (characterization happens up
	// front in the plan pass, so rows arrive after it completes — see
	// core.Study.RunStream). Rows render through a reused sweep.RowEncoder —
	// the same zero-alloc emit path as the batch writer, so the streamed
	// bytes stay identical to it.
	streaming := false
	rc := http.NewResponseController(w)
	var enc sweep.RowEncoder
	e.start = func() {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusOK)
		streaming = true
	}
	e.emit = func(pt core.PointResult) error {
		for i := range pt.Metrics {
			if err := enc.Encode(w, &pt.Metrics[i], req.x.Study); err != nil {
				return err
			}
			s.points.Add(1)
		}
		_ = rc.Flush() // a failed flush fails the next row's write
		return nil
	}
	// Trailers need the full result set, so they follow the rows — the same
	// failed-points and frontier lines sweep.WriteNDJSON emits in batch mode.
	e.render = func(res *core.Results) error {
		err := sweep.WriteNDJSONTrailers(w, res)
		if err != nil && r.Context().Err() == nil {
			writeFailure(w, &failure{http.StatusUnprocessableEntity, codeStudyFailed, err}, true)
		}
		return err
	}
	if _, f := s.execute(r.Context(), e); f != nil {
		writeFailure(w, f, streaming)
	}
}

// asyncAccepted is the 202 body of an async submission.
type asyncAccepted struct {
	JobID string   `json:"job_id"`
	State JobState `json:"state"`
	URL   string   `json:"url"`
	// Deduplicated reports that an identical configuration was already
	// queued or running, and this submission joined it.
	Deduplicated bool `json:"deduplicated,omitempty"`
}

// submitAsync queues a study as a background job and answers 202 with the
// job's ID — or the ID of an identical in-flight job (singleflight dedup).
// The raw config bytes and overrides are journaled write-ahead, so the job
// survives a crash.
func (s *Server) submitAsync(w http.ResponseWriter, req studyRequest) {
	if s.draining.Load() {
		apiError(w, http.StatusServiceUnavailable, codeDraining, fmt.Errorf("draining"))
		return
	}
	j, dedup, err := s.jobs.submit(req)
	if err != nil {
		apiError(w, http.StatusServiceUnavailable, codeQueueFull, err)
		return
	}
	st, _, _ := j.snapshot()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	w.WriteHeader(http.StatusAccepted)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(asyncAccepted{
		JobID: j.id, State: st, URL: "/v1/jobs/" + j.id, Deduplicated: dedup,
	})
}

// handleJobs lists every async job in submission order.
func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	jobs := s.jobs.list()
	rows := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		rows = append(rows, j.status())
	}
	writeJSON(w, rows)
}

// handleJob reports one job's state and grid-point progress.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(w, r)
	if !ok {
		return
	}
	writeJSON(w, j.status())
}

// handleJobResult renders a done job's study body. The format defaults to
// the one requested at submission and can be overridden with ?format=; the
// bytes are identical to the sync response and the batch CLI for the same
// configuration, and carry the same ETag.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(w, r)
	if !ok {
		return
	}
	st, res, jerr := j.snapshot()
	switch st {
	case JobQueued, JobRunning:
		apiError(w, http.StatusConflict, codeJobNotReady, fmt.Errorf("job %s is %s; no result yet", j.id, st))
		return
	case JobCanceled:
		apiError(w, http.StatusGone, codeJobCanceled, fmt.Errorf("job %s was canceled", j.id))
		return
	case JobFailed:
		apiError(w, http.StatusInternalServerError, codeJobFailed, fmt.Errorf("job %s failed: %v", j.id, jerr))
		return
	}
	// The format requested at submission is the default; an explicit
	// ?format= or an Accept header renegotiates (406 when unsatisfiable).
	format := sweep.Format(j.format)
	if p := r.URL.Query().Get("format"); p != "" || strings.TrimSpace(r.Header.Get("Accept")) != "" {
		var err error
		if format, err = sweep.Negotiate(r.Header.Get("Accept"), p); err != nil {
			formatError(w, err)
			return
		}
	}
	if etag := etagFor(j.x.Fingerprint, string(format)); !notModified(w, r, etag) {
		_ = s.writeResult(w, etag, format, res)
	}
}

// handleJobCancel cancels a queued or running job. Terminal jobs are left
// as they are; either way the job's current status is returned.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(w, r)
	if !ok {
		return
	}
	j.cancel()
	// A job still waiting in the queue settles here; a running one settles
	// in its worker when RunStream observes the cancellation.
	if st, _, _ := j.snapshot(); st == JobQueued {
		j.setState(JobCanceled, nil, context.Canceled)
		s.jobs.settle(j)
	}
	writeJSON(w, j.status())
}

// cellRow is one /v1/cells entry in engineering units.
type cellRow struct {
	Name            string      `json:"name"`
	Technology      string      `json:"technology"`
	Flavor          string      `json:"flavor"`
	AreaF2          sweep.Float `json:"area_f2"`
	NodeNM          sweep.Float `json:"node_nm"`
	ReadLatencyNS   sweep.Float `json:"read_latency_ns"`
	WriteLatencyNS  sweep.Float `json:"write_latency_ns"`
	ReadEnergyPJ    sweep.Float `json:"read_energy_pj"`
	WriteEnergyPJ   sweep.Float `json:"write_energy_pj"`
	EnduranceCycles sweep.Float `json:"endurance_cycles"`
	RetentionS      sweep.Float `json:"retention_s"`
	Sense           string      `json:"sense"`
}

func (s *Server) handleCells(w http.ResponseWriter, _ *http.Request) {
	var rows []cellRow
	for _, d := range cell.Canon() {
		rows = append(rows, cellRow{
			Name:            d.Name,
			Technology:      d.Tech.String(),
			Flavor:          d.Flavor.String(),
			AreaF2:          sweep.Float(d.AreaF2),
			NodeNM:          sweep.Float(d.NodeNM),
			ReadLatencyNS:   sweep.Float(d.ReadLatencyNS),
			WriteLatencyNS:  sweep.Float(d.WriteLatencyNS),
			ReadEnergyPJ:    sweep.Float(d.ReadEnergyPJ),
			WriteEnergyPJ:   sweep.Float(d.WriteEnergyPJ),
			EnduranceCycles: sweep.Float(d.EnduranceCycles),
			RetentionS:      sweep.Float(d.RetentionS),
			Sense:           d.Sense.String(),
		})
	}
	writeJSON(w, rows)
}

// experimentRow is one /v1/experiments entry.
type experimentRow struct {
	ID        string `json:"id"`
	Title     string `json:"title"`
	Dashboard string `json:"dashboard"`
}

func (s *Server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	var rows []experimentRow
	for _, e := range exp.All() {
		rows = append(rows, experimentRow{
			ID:        e.ID,
			Title:     e.Title,
			Dashboard: "/v1/experiments/" + e.ID + "/dashboard.html",
		})
	}
	writeJSON(w, rows)
}

// handleDashboard runs one registered experiment and renders its tables
// and scatter views as the self-contained HTML dashboard — the live form
// of `nvmviz`. Experiment runs count against the job semaphore like
// studies do.
func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	e, err := exp.Get(r.PathValue("id"))
	if err != nil {
		apiError(w, http.StatusNotFound, codeNotFound, err)
		return
	}
	// Experiment generators have no cancellation path, so a render that has
	// started runs to completion even if the client leaves; acquire at
	// least skips the work when the client is gone by the time a slot frees.
	if f := s.acquire(r.Context(), true); f != nil {
		writeFailure(w, f, false)
		return
	}
	defer s.release()
	res, err := e.Run(s.engine)
	if err != nil {
		s.failed.Add(1)
		apiError(w, http.StatusInternalServerError, codeInternal, err)
		return
	}
	dash := &viz.Dashboard{
		Title:    fmt.Sprintf("%s — %s", e.ID, e.Title),
		Scatters: res.Scatters,
		Tables:   res.Tables,
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := dash.WriteHTML(w); err != nil {
		s.failed.Add(1)
		return
	}
	s.completed.Add(1)
}

// statsSchemaVersion stamps the /v1/stats body. The schema is versioned
// API surface now: block and field names within a schema version are
// stable, and removals only happen across a version bump. v2 dropped the
// fabric block's shard-resume and store-reconciliation counters; v3
// dropped store.memo_discards and store.dir (the legacy alias of
// store.target).
const statsSchemaVersion = "v3"

// Stats is the /v1/stats body.
type Stats struct {
	// SchemaVersion identifies this body's layout; see statsSchemaVersion.
	SchemaVersion string `json:"schema_version"`
	Memo          struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"memo_cache"`
	// Store reports the persistent point store, when one is attached: a
	// hit is a design point served without touching the engine at all.
	Store struct {
		Enabled bool `json:"enabled"`
		// Backend is the store's backend kind ("local", "remote", or
		// "memory"); Target is its location — a directory for local
		// backends, a base URL for remote ones.
		Backend string `json:"backend,omitempty"`
		Target  string `json:"target,omitempty"`
		Hits    int64  `json:"hits"`
		Misses  int64  `json:"misses"`
		// Self-healing telemetry: quarantined corrupt files, disk
		// operations failed past retries, individual retry attempts, and
		// whether persistent failures demoted the store to memory-only.
		store.HealthStats
	} `json:"store"`
	// Fabric reports the distributed-study fabric: the coordinator's view
	// of its worker fleet (fabric.Stats) plus this process's worker role.
	Fabric struct {
		Enabled bool `json:"enabled"`
		fabric.Stats
		// ShardsServed counts POST /v1/shard requests this process answered
		// as a worker.
		ShardsServed int64 `json:"shards_served"`
	} `json:"fabric"`
	Jobs struct {
		InFlight      int64 `json:"in_flight"`
		MaxConcurrent int   `json:"max_concurrent"`
		StudyWorkers  int   `json:"study_workers"`
		Completed     int64 `json:"completed"`
		Failed        int64 `json:"failed"`
		PointsServed  int64 `json:"points_served"`
		// Shed counts sync requests bounced with 429 under overload.
		Shed int64 `json:"shed"`
	} `json:"jobs"`
	// Query reports the read-side index over the stored studies, when a
	// store is attached.
	Query struct {
		Enabled bool `json:"enabled"`
		query.Stats
	} `json:"query"`
	// Exploration reports the configs the engine's constraint pre-filter
	// proved infeasible before characterization, and the completed
	// adaptive runs with the grid points they evaluated and never touched.
	Exploration struct {
		PrefilteredConfigs      int64 `json:"prefiltered_configs"`
		AdaptiveStudies         int64 `json:"adaptive_studies"`
		AdaptivePointsEvaluated int64 `json:"adaptive_points_evaluated"`
		AdaptivePointsPruned    int64 `json:"adaptive_points_pruned"`
	} `json:"exploration"`
	// Async reports the background job subsystem.
	Async struct {
		Workers      int   `json:"workers"`
		QueueDepth   int   `json:"queue_depth"`
		Submitted    int64 `json:"submitted"`
		Deduplicated int64 `json:"deduplicated"`
		// Resumed counts journaled jobs re-adopted at startup.
		Resumed  int64 `json:"resumed"`
		Active   int64 `json:"active"`
		Finished int64 `json:"finished"`
	} `json:"async"`
}

// Snapshot returns the current counters (also served at /v1/stats).
func (s *Server) Snapshot() Stats {
	var st Stats
	st.SchemaVersion = statsSchemaVersion
	es := s.engine.Stats()
	st.Memo.Hits, st.Memo.Misses = es.MemoHits, es.MemoMisses
	if s.opts.Store != nil {
		st.Store.Enabled = true
		b := s.opts.Store.Backend()
		st.Store.Backend = b.Kind()
		st.Store.Target = b.Target()
		st.Store.Hits, st.Store.Misses = s.opts.Store.Stats()
		st.Store.HealthStats = s.opts.Store.Health()
	}
	if s.fabric != nil {
		st.Fabric.Enabled = true
		st.Fabric.Stats = s.fabric.Snapshot()
	}
	st.Fabric.ShardsServed = s.shardsServed.Load()
	st.Jobs.InFlight = s.inFlight.Load()
	st.Jobs.MaxConcurrent = s.opts.MaxConcurrentStudies
	st.Jobs.StudyWorkers = s.opts.StudyWorkers
	st.Jobs.Completed = s.completed.Load()
	st.Jobs.Failed = s.failed.Load()
	st.Jobs.PointsServed = s.points.Load()
	st.Jobs.Shed = s.shed.Load()
	if s.idx != nil {
		st.Query.Enabled = true
		st.Query.Stats = s.idx.Stats()
	}
	st.Exploration.PrefilteredConfigs = es.Prefiltered
	st.Exploration.AdaptiveStudies = s.adaptiveStudies.Load()
	st.Exploration.AdaptivePointsEvaluated = s.adaptiveEvaluated.Load()
	st.Exploration.AdaptivePointsPruned = s.adaptivePruned.Load()
	st.Async.Workers = s.opts.JobWorkers
	st.Async.QueueDepth = s.opts.JobQueueDepth
	st.Async.Submitted = s.jobs.submitted.Load()
	st.Async.Deduplicated = s.jobs.deduplicated.Load()
	st.Async.Resumed = s.jobs.resumed.Load()
	st.Async.Active, st.Async.Finished = s.jobs.counts()
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.Snapshot())
}

func (s *Server) handleIndex(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `NVMExplorer-Go study service
  POST /v1/studies                          run a sweep.Config (?format=json|ndjson|csv|html,
                                            ?pareto=metric,metric for frontier selection,
                                            ?mode=adaptive&budget=N&seed=S for Pareto-guided
                                            exploration under a point budget,
                                            ?async=1 to queue a job; ETag/If-None-Match honored)
  GET  /v1/studies                          list stored studies (requires -store)
  GET  /v1/studies/{fingerprint}            re-render one stored study, zero engine work
  GET  /v1/query                            filter/rank/Pareto-select rows across stored studies
                                            (study=, cell=, technology=, pattern=, target=,
                                            capacity=, min_<metric>=, max_<metric>=, sort=,
                                            order=, top=, frontier=; ?format= as above)
  GET  /v1/jobs                             every async job, submission order
  GET  /v1/jobs/{id}                        one job: state + completed/total progress
  GET  /v1/jobs/{id}/result                 a done job's study body (?format= as above)
  DELETE /v1/jobs/{id}                      cancel a queued or running job
  GET  /v1/cells                            canonical tentpole cell database
  GET  /v1/experiments                      paper-experiment registry
  GET  /v1/experiments/{id}/dashboard.html  live HTML dashboard for one experiment
  GET  /v1/stats                            memo-cache, study-store, fabric, job, and query counters
  GET  /v1/healthz                          liveness/readiness (503 while draining)
  GET  /v1/openapi.json                     machine-readable API description
  GET  /v1/version                          protocol + schema versions (peer handshake)
  GET  /v1/store/points/{addr}              one point record by content address (PUT to store)
  GET  /v1/store/studies[/{fp}]             stored study records (PUT /{fp} to store)
  POST /v1/shard                            characterize a slice of a study's design space (fabric worker)
`)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
