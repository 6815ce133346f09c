package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/sweep"
)

// configError answers an expansion failure: 422 for a configuration whose
// design space cannot be enumerated, 400 for any other.
func configError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	if errors.As(err, new(*sweep.SpaceError)) {
		status = http.StatusUnprocessableEntity
	}
	apiError(w, status, codeInvalidConfig, err)
}

// failure is an execution that produced no result. status is the HTTP
// answer: 0 when the caller is gone (answer nothing), 429 when no slot
// freed in time, 503 past the time budget, 422 when the run failed.
type failure struct {
	status int
	code   string
	err    error
}

// errSaturated is the load-shedding failure; clients retry after a second.
var errSaturated = &failure{http.StatusTooManyRequests, codeSaturated,
	errors.New("server saturated; retry in 1s")}

// writeFailure answers a failure: the error envelope (with Retry-After
// when shed) before a response has started, the envelope alone as the
// trailing row of a started NDJSON stream, nothing to a caller that is gone.
func writeFailure(w http.ResponseWriter, f *failure, streaming bool) {
	if f.status == 0 {
		return
	}
	d := errorDetail{Code: f.code, Message: f.err.Error()}
	if !streaming {
		w.Header().Set("Content-Type", "application/json")
		if f.status == http.StatusTooManyRequests {
			d.RetryAfter = 1
			w.Header().Set("Retry-After", "1")
		}
		w.WriteHeader(f.status)
	}
	_ = json.NewEncoder(w).Encode(errorBody{Error: d})
}

// acquire claims a study slot, the one place the study semaphore is taken.
// A sync caller waits until a slot frees, it leaves, or Options.SyncWait
// passes (shed: under overload, fast feedback beats a request that blocks
// until the client gives up); an async job waits on its context alone.
// Release an obtained slot with release.
func (s *Server) acquire(ctx context.Context, sync bool) *failure {
	var deadline <-chan time.Time
	if sync && s.opts.SyncWait > 0 {
		t := time.NewTimer(s.opts.SyncWait)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case s.sem <- struct{}{}:
		if err := ctx.Err(); err != nil { // gone while queued
			<-s.sem
			return &failure{err: err}
		}
		s.inFlight.Add(1)
		return nil
	case <-ctx.Done():
		return &failure{err: ctx.Err()}
	case <-deadline:
		s.shed.Add(1)
		return errSaturated
	}
}

// release returns a slot obtained by acquire.
func (s *Server) release() {
	s.inFlight.Add(-1)
	<-s.sem
}

// execution is one study run through the lifecycle.
type execution struct {
	x *sweep.Expansion
	// sync marks work a client waits on: it is shed past Options.SyncWait
	// and runs under Options.StudyTimeout. Async jobs are neither.
	sync bool
	// shard, when set, runs instead of the study: the fabric worker's
	// slice, with no prefill, frontier, or manifest, and an empty result.
	shard func(ctx context.Context, study *core.Study) error
	// start runs once the slot is held, emit receives each completed grid
	// point, and render answers the result; each may be nil. A render
	// error is the renderer's to report: the study counts as failed.
	start  func()
	emit   func(core.PointResult) error
	render func(*core.Results) error
}

// clampWorkers is the worker-pool size one run gets: the config's own
// "workers" when it lies in 1..limit, else limit (Options.StudyWorkers), so
// a request body cannot choose how many goroutines the server starts.
func clampWorkers(requested, limit int) int {
	if requested < 1 || requested > limit {
		return limit
	}
	return requested
}

// execute runs one expanded study through the lifecycle (see the package
// comment) under ctx, the caller's lifetime: the request or the async job.
// It owns the slot, the in-flight count, the time budget, the prefill, the
// run, the manifest, the completed/failed counters, and the one failure
// classification.
func (s *Server) execute(ctx context.Context, e execution) (*core.Results, *failure) {
	if f := s.acquire(ctx, e.sync); f != nil {
		return nil, f
	}
	defer s.release()
	if e.start != nil {
		e.start()
	}
	// A per-request execution budget: a study that outlives it is canceled
	// and answered 503, so one pathological configuration can't pin a slot
	// forever. ctx still tells "caller gone" apart.
	runCtx := ctx
	if e.sync && s.opts.StudyTimeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, s.opts.StudyTimeout)
		defer cancel()
	}
	study, what := e.x.Study, "study"
	study.Workers = clampWorkers(study.Workers, s.opts.StudyWorkers)
	study.Engine = s.engine
	var res *core.Results
	var err error
	if e.shard != nil {
		what = "shard"
		res, err = &core.Results{Study: study}, e.shard(runCtx, study)
	} else {
		// Coordinator role: characterize the study's cold configs on the
		// worker fleet first; the run then evaluates and stores every point
		// like a local run, so the bytes match at any worker count.
		if s.fabric != nil {
			s.fabric.Prefill(runCtx, study, e.x.Config, s.opts.Store, "")
		}
		res, err = study.RunStream(runCtx, e.emit)
		if err == nil {
			// Materialize any Pareto frontier while this run is res's only
			// owner: a done job's result is rendered concurrently, read-only.
			err = res.EnsureFrontier()
		}
	}
	switch {
	case err == nil:
	case ctx.Err() != nil: // the caller left: neither an answer nor a failure
		return nil, &failure{err: err}
	case runCtx.Err() != nil:
		s.failed.Add(1)
		return nil, &failure{http.StatusServiceUnavailable, codeStudyTimeout,
			fmt.Errorf("%s exceeded the %s execution budget", what, s.opts.StudyTimeout)}
	default:
		s.failed.Add(1)
		return nil, &failure{http.StatusUnprocessableEntity, codeStudyFailed, err}
	}
	if x := res.Exploration; x != nil {
		s.adaptiveStudies.Add(1)
		s.adaptiveEvaluated.Add(int64(x.EvaluatedPoints))
		s.adaptivePruned.Add(int64(x.ExhaustivePoints - x.EvaluatedPoints))
	}
	// Record the study in the store's manifest set, making it addressable
	// by GET /v1/studies/{fingerprint} and the query index. A manifest
	// write failure degrades queryability, never the response.
	if rec, ok := e.x.Manifest(res); ok && e.shard == nil && s.opts.Store != nil {
		if err := s.opts.Store.SaveStudy(rec); err != nil {
			log.Printf("server: saving study manifest %s: %v", rec.Fingerprint, err)
		}
	}
	if e.render != nil && e.render(res) != nil {
		s.failed.Add(1)
		return res, nil
	}
	s.completed.Add(1)
	return res, nil
}
