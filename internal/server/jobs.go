package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/sweep"
)

// errQueueFull reports a submission bounced off the bounded job queue;
// callers answer 503 so load balancers can retry elsewhere.
var errQueueFull = errors.New("job queue full")

// testHookJobRunning, when non-nil, runs after a job transitions to
// running and before its study executes. Tests install a blocking hook to
// hold a worker deterministically (set before the server is created, so
// the write happens-before every worker read).
var testHookJobRunning func(*job)

// testHookJobPoint, when non-nil, runs after each grid point of an async
// job is emitted, with the job's count of emitted points. Crash-recovery
// tests install a hook that parks the worker at a chosen point so the
// process can be "killed" mid-job, its record still in the journal.
var testHookJobPoint func(j *job, completed int)

// pointDelay stretches every async and shard grid point by
// NVMX_POINT_DELAY. The analytical model evaluates a whole study in
// milliseconds, far too fast for an external harness to interrupt one
// mid-flight; end-to-end crash tests set the variable so a kill lands with
// the job provably in progress. Unset (the default) it costs one nil check per point.
var pointDelay, _ = time.ParseDuration(os.Getenv("NVMX_POINT_DELAY"))

// delayPoints sleeps n pointDelays, or until ctx ends.
func delayPoints(ctx context.Context, n int) error {
	if pointDelay <= 0 {
		return nil
	}
	select {
	case <-time.After(time.Duration(n) * pointDelay):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// maxFinishedJobs bounds how many terminal jobs (and their retained
// Results) the registry keeps: past the cap, the oldest terminal jobs are
// evicted at submission time, so a long-lived server under steady async
// traffic holds a sliding window of recent results instead of growing
// without bound. Queued and running jobs are never evicted.
const maxFinishedJobs = 128

// The async job subsystem. POST /v1/studies?async=1 turns a study into a
// job: the request returns 202 with a job ID immediately, a fixed worker
// pool runs the study in the background (each running job still counts
// against the server's study semaphore, so sync and async work share one
// concurrency budget), and GET /v1/jobs/{id} reports queued → running (with
// completed/total grid-point progress) → done|failed|canceled. Identical
// configurations submitted while one is queued or running deduplicate onto
// the same job (study-level singleflight keyed by core.Study.Fingerprint);
// the queue is bounded, and DELETE /v1/jobs/{id} cancels.
//
// Completed jobs keep their Results in memory and render them on demand at
// GET /v1/jobs/{id}/result?format=json|ndjson|csv|html, through the same
// sweep writers as the sync path — so an async study's bytes are identical
// to the sync response and to the batch CLI.

// JobState is the lifecycle phase of an async study job.
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// terminal reports whether a job in this state is finished for good.
func (st JobState) terminal() bool {
	return st == JobDone || st == JobFailed || st == JobCanceled
}

// job is one async study.
type job struct {
	id        string
	x         *sweep.Expansion
	format    string // format requested at submission; result default
	completed atomic.Int64

	ctx    context.Context
	cancel context.CancelFunc

	mu    sync.Mutex
	state JobState
	res   *core.Results
	err   error
}

// setState transitions the job; a terminal state is final.
func (j *job) setState(st JobState, res *core.Results, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return
	}
	j.state, j.res, j.err = st, res, err
}

// snapshot reads the job's externally visible state in one shot.
func (j *job) snapshot() (st JobState, res *core.Results, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.res, j.err
}

// jobManager owns the async worker pool, the job registry, and the
// in-flight singleflight index.
type jobManager struct {
	srv   *Server
	queue chan *job
	quit  chan struct{}
	wg    sync.WaitGroup

	mu       sync.Mutex
	seq      int
	jobs     map[string]*job
	order    []*job
	inflight map[string]*job // fingerprint -> queued/running job

	closeOnce sync.Once
	// closing is set at the start of a graceful shutdown: terminal states
	// reached because of it (mass cancellation) keep their journal records,
	// so the next boot re-adopts the interrupted jobs. Deliberate per-job
	// outcomes (done, failed, DELETE-canceled) still clear their journal.
	closing atomic.Bool

	submitted    atomic.Int64
	deduplicated atomic.Int64
	resumed      atomic.Int64
}

func newJobManager(srv *Server, workers, queueDepth int) *jobManager {
	m := &jobManager{
		srv:      srv,
		queue:    make(chan *job, queueDepth),
		quit:     make(chan struct{}),
		jobs:     map[string]*job{},
		inflight: map[string]*job{},
	}
	for w := 0; w < workers; w++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// newJob constructs a queued job over an expanded study.
func newJob(id string, x *sweep.Expansion, format string) *job {
	ctx, cancel := context.WithCancel(context.Background())
	return &job{
		id: id, x: x, format: format,
		ctx: ctx, cancel: cancel, state: JobQueued,
	}
}

// enqueueLocked queues a job and registers it; false (and the job
// canceled) when the queue is full. Caller holds m.mu.
func (m *jobManager) enqueueLocked(j *job) bool {
	select {
	case m.queue <- j:
	default:
		j.cancel()
		return false
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j)
	m.inflight[j.x.Fingerprint] = j
	return true
}

// submit registers a study as a job, deduplicating against identical
// in-flight configurations. The returned bool reports whether an existing
// job was reused. The job's effective config is journaled write-ahead
// (before the job can run) so a crashed process can rebuild the identical
// study on restart. The only error is a full queue (callers answer 503).
func (m *jobManager) submit(req studyRequest) (*job, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.inflight[req.x.Fingerprint]; ok {
		m.deduplicated.Add(1)
		return j, true, nil
	}
	m.seq++
	j := newJob(fmt.Sprintf("job-%d", m.seq), req.x, string(req.format))
	// Write-ahead journal: the record must be durable before the job can
	// start, so a crash at any later moment finds it on replay. A journal
	// write failure downgrades durability, never availability.
	st := m.srv.opts.Store
	if st != nil {
		if err := st.JournalJob(store.JobRecord{
			ID: j.id, Fingerprint: j.x.Fingerprint, Name: j.x.Study.Name, Format: j.format,
			Config: j.x.Config, Total: j.x.Points,
		}); err != nil {
			log.Printf("server: journaling %s: %v (job will not survive a restart)", j.id, err)
		}
	}
	if !m.enqueueLocked(j) {
		m.seq--
		if st != nil {
			st.JournalDone(j.id)
		}
		return nil, false, fmt.Errorf("%w (%d queued)", errQueueFull, cap(m.queue))
	}
	m.submitted.Add(1)
	m.pruneLocked()
	return j, false, nil
}

// resume replays the store's job journal at startup, re-adopting every job
// that never reached a terminal state. Unreplayable records (schema drift,
// a config that no longer parses or rebuilds to another study) are dropped
// with their journal; a full queue leaves the journal intact for the next
// restart.
func (m *jobManager) resume() {
	st := m.srv.opts.Store
	if st == nil {
		return
	}
	for _, rec := range st.IncompleteJobs() {
		j, err := m.adopt(rec)
		if err != nil {
			log.Printf("server: dropping journaled job %s (%q): %v", rec.ID, rec.Name, err)
			st.JournalDone(rec.ID)
			continue
		}
		if j == nil {
			log.Printf("server: job queue full; journaled job %s (%q) deferred to next restart", rec.ID, rec.Name)
			continue
		}
		m.resumed.Add(1)
		log.Printf("server: resumed job %s (%q, %d points)", rec.ID, rec.Name, rec.Total)
	}
}

// adopt rebuilds one journaled job from its effective config — the
// identical study the request expanded to (same fingerprint, and for an
// adaptive job the same evaluated subset) — and queues it under its
// original ID. Returns (nil, nil) when the queue is full — leave the
// journal, retry on the next boot.
func (m *jobManager) adopt(rec store.JobRecord) (*job, error) {
	x, err := sweep.Rebuild(rec.Config, rec.Fingerprint, m.srv.opts.Store)
	if err != nil {
		return nil, err
	}
	format, err := sweep.ParseFormat(rec.Format)
	if err != nil {
		format = sweep.FormatJSON
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if seq := store.JobSeq(rec.ID); seq > m.seq {
		m.seq = seq // new submissions must not collide with resumed IDs
	}
	j := newJob(rec.ID, x, string(format))
	if !m.enqueueLocked(j) {
		return nil, nil
	}
	return j, nil
}

// pruneLocked evicts the oldest terminal jobs beyond maxFinishedJobs.
// Caller holds m.mu.
func (m *jobManager) pruneLocked() {
	terminal := func(j *job) bool {
		st, _, _ := j.snapshot()
		return st.terminal()
	}
	finished := 0
	for _, j := range m.order {
		if terminal(j) {
			finished++
		}
	}
	if finished <= maxFinishedJobs {
		return
	}
	kept := m.order[:0]
	for _, j := range m.order {
		if finished > maxFinishedJobs && terminal(j) {
			delete(m.jobs, j.id)
			finished--
			continue
		}
		kept = append(kept, j)
	}
	m.order = kept
}

// get looks up the job a /v1/jobs/{id} request names, answering 404 when
// there is none.
func (m *jobManager) get(w http.ResponseWriter, r *http.Request) (*job, bool) {
	m.mu.Lock()
	j, ok := m.jobs[r.PathValue("id")]
	m.mu.Unlock()
	if !ok {
		apiError(w, http.StatusNotFound, codeNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
	}
	return j, ok
}

// list returns every job in submission order.
func (m *jobManager) list() []*job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*job(nil), m.order...)
}

// settle removes a job from the in-flight index once it is terminal, and
// clears its journal record — unless the terminal state was forced by a
// graceful shutdown, in which case the journal survives so the next boot
// resumes the job.
func (m *jobManager) settle(j *job) {
	if state, _, _ := j.snapshot(); m.srv.opts.Store != nil && !m.closing.Load() && state.terminal() {
		m.srv.opts.Store.JournalDone(j.id)
	}
	m.mu.Lock()
	if m.inflight[j.x.Fingerprint] == j {
		delete(m.inflight, j.x.Fingerprint)
	}
	m.mu.Unlock()
}

// counts reports (queued+running, finished) job totals.
func (m *jobManager) counts() (active, finished int64) {
	for _, j := range m.list() {
		if st, _, _ := j.snapshot(); st.terminal() {
			finished++
		} else {
			active++
		}
	}
	return active, finished
}

// worker drains the queue, running one job at a time under the server's
// study semaphore.
func (m *jobManager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.quit:
			return
		case j := <-m.queue:
			m.run(j)
		}
	}
}

// run executes one job to a terminal state through the study lifecycle
// (see execute): it shares the sync path's concurrency budget, and a
// cancellation (or manager shutdown, which cancels every job) unblocks the
// wait for a slot.
func (m *jobManager) run(j *job) {
	defer m.settle(j)
	// Per-point panics are already isolated inside RunStream; this blanket
	// recover is the last line of defense (a panicking hook, a bug in the
	// result pipeline): the job fails structurally, the worker survives.
	defer func() {
		if r := recover(); r != nil {
			m.srv.failed.Add(1)
			j.setState(JobFailed, nil, fmt.Errorf("job panic: %v", r))
		}
	}()
	res, f := m.srv.execute(j.ctx, execution{
		x: j.x,
		start: func() {
			j.setState(JobRunning, nil, nil)
			if h := testHookJobRunning; h != nil {
				h(j)
			}
		},
		emit: func(core.PointResult) error {
			if err := delayPoints(j.ctx, 1); err != nil {
				return err
			}
			// A job's durable progress is its points in the store: a
			// resumed job re-probes the store and computes only the
			// points it does not find.
			n := j.completed.Add(1)
			if h := testHookJobPoint; h != nil {
				h(j, int(n))
			}
			return nil
		},
	})
	switch {
	case f == nil:
		// points_served counts rendered responses; it accrues when the
		// result is actually fetched (handleJobResult), not here.
		j.setState(JobDone, res, nil)
	case f.status == 0:
		// Deliberate cancellation is neither a completion nor a failure.
		j.setState(JobCanceled, nil, j.ctx.Err())
	default:
		j.setState(JobFailed, nil, f.err)
	}
}

// close cancels every non-terminal job and stops the workers. Used by
// Server.Close on shutdown and by tests; safe to call more than once.
func (m *jobManager) close() {
	m.closeOnce.Do(m.closeAll)
}

func (m *jobManager) closeAll() {
	// From here on, forced-terminal jobs keep their journal records: a
	// graceful shutdown is a restart boundary, not a job outcome.
	m.closing.Store(true)
	close(m.quit)
	for _, j := range m.list() {
		j.cancel()
	}
	// Mark still-queued jobs canceled so waiters unblock; running jobs
	// settle through their worker.
	for {
		select {
		case j := <-m.queue:
			j.setState(JobCanceled, nil, context.Canceled)
			m.settle(j)
			continue
		default:
		}
		break
	}
	m.wg.Wait()
}

// JobStatus is the JSON shape of one job on /v1/jobs and /v1/jobs/{id}.
type JobStatus struct {
	ID    string   `json:"id"`
	Study string   `json:"study"`
	State JobState `json:"state"`
	// Progress counts completed design-space grid points.
	Progress struct {
		Completed int `json:"completed"`
		Total     int `json:"total"`
	} `json:"progress"`
	// Format is the output format requested at submission (the result
	// endpoint's default).
	Format string `json:"format"`
	// Error is set for failed jobs.
	Error string `json:"error,omitempty"`
	// Result is the result URL, present once the job is done.
	Result string `json:"result,omitempty"`
}

// status renders a job's externally visible state.
func (j *job) status() JobStatus {
	st, _, err := j.snapshot()
	s := JobStatus{ID: j.id, Study: j.x.Study.Name, State: st, Format: j.format}
	s.Progress.Completed = int(j.completed.Load())
	s.Progress.Total = j.x.Points
	switch st {
	case JobDone:
		s.Result = "/v1/jobs/" + j.id + "/result"
		s.Progress.Completed = j.x.Points
	case JobFailed:
		if err != nil {
			s.Error = err.Error()
		}
	}
	return s
}
