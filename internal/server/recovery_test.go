package server

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	iofs "io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nvsim"
	"repro/internal/store"
	"repro/internal/sweep"
)

// TestCrashRecoveryResumesJournaledJob is the tentpole's acceptance gate: a
// server killed without any shutdown path (no Close, no journal cleanup —
// the moral equivalent of SIGKILL) leaves its async job's record on disk;
// a fresh server over the same store re-adopts the job under the same ID,
// completes it entirely from stored points (zero engine
// characterizations), and serves bytes identical to the batch CLI.
func TestCrashRecoveryResumesJournaledJob(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig("crash-recovery", "STT", 1<<21)
	want := batchOutput(t, cfg, "json")

	// Server A's worker parks once the final grid point is emitted, so the
	// "kill" happens with every point computed and the job unsettled.
	park := make(chan struct{})
	parked := make(chan struct{})
	var once sync.Once
	testHookJobPoint = func(j *job, completed int) {
		if completed == j.x.Points {
			once.Do(func() { close(parked) })
			<-park
		}
	}
	defer func() {
		once.Do(func() { close(parked) })
		close(park)
	}()
	t.Cleanup(func() { testHookJobPoint = nil })

	stA, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srvA := New(Options{MaxConcurrentStudies: 2, StudyWorkers: 2,
		JobWorkers: 1, JobQueueDepth: 4, Store: stA})
	tsA := httptest.NewServer(srvA.Handler())
	code, acc := submitAsync(t, tsA, cfg)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	<-parked
	// Every point is emitted; wait for the async cache putter to land the
	// point files too (they flush independently of emission).
	deadline := time.Now().Add(30 * time.Second)
	for {
		files, err := filepath.Glob(filepath.Join(dir, "points", "*", "*.gob"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d point files on disk", len(files))
		}
		time.Sleep(2 * time.Millisecond)
	}
	// "SIGKILL": drop the frontend and abandon srvA mid-run. Close() is
	// deliberately not called — the job never settles, and the journal stays
	// exactly as the crash left it.
	tsA.Close()
	if jobs := stA.IncompleteJobs(); len(jobs) != 1 || jobs[0].ID != acc.JobID || jobs[0].Total != 2 {
		t.Fatalf("journal after crash: %+v", jobs)
	}

	// Reboot: a fresh server, with its own cold engine, over the same store.
	testHookJobPoint = nil
	srvB, tsB := newStoreServer(t, dir)
	if n := srvB.ResumedJobs(); n != 1 {
		t.Fatalf("ResumedJobs = %d, want 1", n)
	}
	st := waitState(t, tsB, acc.JobID, JobDone)
	if st.State != JobDone {
		t.Fatalf("resumed job finished %s (%s), want done", st.State, st.Error)
	}
	if st.Progress.Completed != 2 || st.Progress.Total != 2 {
		t.Fatalf("resumed progress %d/%d, want 2/2", st.Progress.Completed, st.Progress.Total)
	}

	// The resumed result is byte-identical to the batch CLI, and the engine
	// never characterized anything: every point replayed from the store.
	resp, err := http.Get(tsB.URL + st.Result)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("resumed result: status %d, bytes match: %v", resp.StatusCode, bytes.Equal(got, want))
	}
	if es := srvB.engine.Stats(); es.MemoHits != 0 || es.MemoMisses != 0 {
		t.Fatalf("resume characterized: memo hits=%d misses=%d, want 0/0", es.MemoHits, es.MemoMisses)
	}

	// The finished job's journal is gone: the next boot resumes nothing.
	stC, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if jobs := stC.IncompleteJobs(); len(jobs) != 0 {
		t.Fatalf("journal not cleared after completion: %+v", jobs)
	}
	// /v1/stats reports the resumption.
	var stats Stats
	resp, err = http.Get(tsB.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Async.Resumed != 1 {
		t.Fatalf("stats resumed = %d, want 1", stats.Async.Resumed)
	}
}

// TestGracefulShutdownKeepsJournal pins the counterpart contract: a
// *graceful* Close cancels running jobs but keeps their journals, so a
// SIGTERM'd deployment resumes its interrupted work on the next boot.
func TestGracefulShutdownKeepsJournal(t *testing.T) {
	release := blockWorker(t)
	dir := t.TempDir()
	stA, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srvA := New(Options{MaxConcurrentStudies: 2, StudyWorkers: 2,
		JobWorkers: 1, JobQueueDepth: 4, Store: stA})
	tsA := httptest.NewServer(srvA.Handler())
	t.Cleanup(release)

	code, acc := submitAsync(t, tsA, testConfig("blocker-sigterm", "STT", 1<<21))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	waitState(t, tsA, acc.JobID, JobRunning)
	tsA.Close()
	// Begin the graceful shutdown first, and only unpark the worker once the
	// manager is marked closing — otherwise the tiny study could finish
	// normally (journal cleared) before Close gets going.
	closed := make(chan struct{})
	go func() { srvA.Close(); close(closed) }()
	for !srvA.jobs.closing.Load() {
		time.Sleep(time.Millisecond)
	}
	release()
	<-closed

	if jobs := stA.IncompleteJobs(); len(jobs) != 1 || jobs[0].ID != acc.JobID {
		t.Fatalf("journal after graceful shutdown: %+v, want the interrupted job", jobs)
	}

	// Next boot picks it up and finishes it.
	testHookJobRunning = nil
	srvB, tsB := newStoreServer(t, dir)
	if n := srvB.ResumedJobs(); n != 1 {
		t.Fatalf("ResumedJobs = %d, want 1", n)
	}
	if st := waitState(t, tsB, acc.JobID, JobDone); st.State != JobDone {
		t.Fatalf("resumed job finished %s (%s)", st.State, st.Error)
	}
}

// TestJobCancelEvictionRace hammers DELETE against concurrent eviction
// (the maxFinishedJobs prune) and unknown IDs: every response must be a
// clean 404 or the job's status — never a panic or a 500. Run under -race
// in CI.
func TestJobCancelEvictionRace(t *testing.T) {
	_, ts := newJobServer(t, 8)

	// An unknown job is a 404, full stop.
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/job-999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown job: %d, want 404", resp.StatusCode)
	}

	// One real finished job, then concurrent DELETEs of it, of unknown IDs,
	// and of each other.
	code, acc := submitAsync(t, ts, testConfig("race-target", "STT", 1<<21))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	waitState(t, ts, acc.JobID, JobDone)

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := acc.JobID
			if i%2 == 1 {
				id = fmt.Sprintf("job-%d", 1000+i) // unknown
			}
			req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+id, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
				t.Errorf("concurrent DELETE %s: status %d", id, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
}

// TestSyncLoadShedding saturates the study semaphore and requires the sync
// path to answer 429 with a Retry-After hint instead of queueing forever.
func TestSyncLoadShedding(t *testing.T) {
	release := blockWorker(t)
	srv := New(Options{MaxConcurrentStudies: 1, StudyWorkers: 1,
		JobWorkers: 1, JobQueueDepth: 4, SyncWait: time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { release(); ts.Close(); srv.Close() })

	code, blocker := submitAsync(t, ts, testConfig("blocker-shed", "STT", 1<<21))
	if code != http.StatusAccepted {
		t.Fatalf("blocker submit status %d", code)
	}
	waitState(t, ts, blocker.JobID, JobRunning) // the only slot is now held

	resp, err := http.Post(ts.URL+"/v1/studies?format=json", "application/json",
		strings.NewReader(testConfig("shed-victim", "RRAM", 1<<21)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated sync POST: status %d (%s), want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	if srv.Snapshot().Jobs.Shed == 0 {
		t.Fatal("shed counter did not move")
	}
}

// TestStudyTimeout bounds a sync study's execution budget: a run that
// exceeds Options.StudyTimeout answers 503, not a hung connection.
func TestStudyTimeout(t *testing.T) {
	srv := New(Options{MaxConcurrentStudies: 2, StudyWorkers: 2,
		StudyTimeout: time.Nanosecond})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	resp, err := http.Post(ts.URL+"/v1/studies?format=json", "application/json",
		strings.NewReader(testConfig("budget", "STT", 1<<21)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-budget study: status %d (%s), want 503", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("execution budget")) {
		t.Fatalf("503 body %s should name the execution budget", body)
	}

	// NDJSON commits to 200 before the run, so the budget failure arrives as
	// the stream's trailing error row — with the same code as the 503.
	resp, err = http.Post(ts.URL+"/v1/studies?format=ndjson", "application/json",
		strings.NewReader(testConfig("budget", "STT", 1<<21)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	var row errorBody
	if err := json.Unmarshal(lines[len(lines)-1], &row); err != nil {
		t.Fatalf("ndjson trailing row %q: %v", lines[len(lines)-1], err)
	}
	if resp.StatusCode != http.StatusOK || row.Error.Code != codeStudyTimeout ||
		!strings.Contains(row.Error.Message, "execution budget") {
		t.Fatalf("over-budget ndjson study: status %d, trailing row %+v; want 200 and %s naming the execution budget",
			resp.StatusCode, row.Error, codeStudyTimeout)
	}
}

// TestResumedJobReplaysOverrides: an async job submitted with every
// request-level override (?pareto=, ?mode=, ?budget=, ?seed=) and killed
// mid-run is resumed from its journal on a fresh server over the same
// store, and finishes as the identical study — same fingerprint, ETag, and
// body bytes as the sync POST of the same request.
func TestResumedJobReplaysOverrides(t *testing.T) {
	dir := t.TempDir()
	cfg := `{"name": "resume-overrides",
	  "cells": [{"technology": "STT", "flavor": "Opt"}, {"technology": "SRAM", "flavor": "Ref"},
	            {"technology": "RRAM", "flavor": "Opt"}],
	  "capacities_bytes": [65536, 131072, 262144, 524288, 1048576, 2097152],
	  "traffic": {"fixed": [{"name": "p", "reads_per_sec": 1e6, "writes_per_sec": 1e5}]}}`
	const query = "format=json&pareto=read_latency_ns,read_energy_pj&mode=adaptive&budget=5&seed=7"
	// The study the request expands to: the job's fingerprint.
	opts := map[string]string{"pareto": "read_latency_ns,read_energy_pj", "mode": "adaptive",
		"budget": "5", "seed": "7"}
	x, err := sweep.Expand([]byte(cfg), func(name string) string { return opts[name] }, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Server A's worker parks after the first evaluated point, so the
	// "kill" lands with the job provably mid-run.
	park := make(chan struct{})
	parked := make(chan struct{})
	var once sync.Once
	testHookJobPoint = func(j *job, completed int) {
		if completed == 1 {
			once.Do(func() { close(parked) })
			<-park
		}
	}
	t.Cleanup(func() { testHookJobPoint = nil })
	stA, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srvA := New(Options{MaxConcurrentStudies: 2, StudyWorkers: 2,
		JobWorkers: 1, JobQueueDepth: 4, Store: stA})
	defer func() {
		once.Do(func() { close(parked) })
		close(park)
		srvA.Close()
	}()
	tsA := httptest.NewServer(srvA.Handler())
	resp, err := http.Post(tsA.URL+"/v1/studies?async=1&"+query, "application/json", strings.NewReader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	var acc asyncAccepted
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	<-parked
	tsA.Close() // the "kill": srvA is abandoned mid-job, its journal left as is
	jobs := stA.IncompleteJobs()
	if len(jobs) != 1 {
		t.Fatalf("journal after the kill holds %d jobs, want 1", len(jobs))
	}
	if _, err := sweep.Rebuild(jobs[0].Config, x.Fingerprint, nil); err != nil {
		t.Fatalf("the journaled config does not rebuild the job's study: %v\n%s", err, jobs[0].Config)
	}

	testHookJobPoint = nil
	srvB, tsB := newStoreServer(t, dir)
	if n := srvB.ResumedJobs(); n != 1 {
		t.Fatalf("ResumedJobs = %d, want 1", n)
	}
	if st := waitState(t, tsB, acc.JobID, JobDone); st.State != JobDone {
		t.Fatalf("resumed job finished %s (%s), want done", st.State, st.Error)
	}
	resp, err = http.Get(tsB.URL + "/v1/jobs/" + acc.JobID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	gotBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	gotETag := resp.Header.Get("ETag")

	// The reference: the sync POST of the same request on a fresh server.
	srvC := New(Options{MaxConcurrentStudies: 2, StudyWorkers: 2})
	tsC := httptest.NewServer(srvC.Handler())
	t.Cleanup(func() { tsC.Close(); srvC.Close() })
	resp, err = http.Post(tsC.URL+"/v1/studies?"+query, "application/json", strings.NewReader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	wantBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync POST: status %d: %s", resp.StatusCode, wantBody)
	}
	if !bytes.Contains(wantBody, []byte(`"exploration"`)) {
		t.Fatalf("the reference study is not adaptive: %s", wantBody)
	}
	if wantETag := resp.Header.Get("ETag"); gotETag != wantETag || !bytes.Equal(gotBody, wantBody) {
		t.Fatalf("resumed job: ETag %s, want %s; bytes match: %v", gotETag, wantETag, bytes.Equal(gotBody, wantBody))
	}
	// Same fingerprint: the resumed job recorded the manifest the request
	// expands to.
	if want := etagFor(x.Fingerprint, "json"); gotETag != want {
		t.Fatalf("resumed job ETag %s, want %s for fingerprint %s", gotETag, want, x.Fingerprint)
	}
	stD, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := stD.LoadStudy(x.Fingerprint); !ok {
		t.Fatalf("no manifest for fingerprint %s after the resumed job", x.Fingerprint)
	}
}

// TestMalformedOptionsRejected: an unparseable ?budget= or ?seed= answers
// 400 invalid_config, sync and async alike, and an async submission so
// rejected journals nothing.
func TestMalformedOptionsRejected(t *testing.T) {
	dir := t.TempDir()
	_, ts := newStoreServer(t, dir)
	cfg := testConfig("malformed-options", "STT", 1<<20)
	for _, opt := range []string{"budget=abc", "seed=1.5"} {
		for _, async := range []string{"", "&async=1"} {
			resp, err := http.Post(ts.URL+"/v1/studies?format=json&"+opt+async, "application/json",
				strings.NewReader(cfg))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || errCode(t, body) != codeInvalidConfig {
				t.Errorf("?%s%s: status %d: %s; want 400 %s",
					opt, async, resp.StatusCode, body, codeInvalidConfig)
			}
		}
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if jobs := st.IncompleteJobs(); len(jobs) != 0 {
		t.Fatalf("rejected submissions were journaled: %+v", jobs)
	}
}

// TestJournaledJobRebuildingToAnotherStudyIsDropped: a journaled job whose
// config rebuilds to a study other than its fingerprint is not resumed —
// neither a record naming another study outright nor one an older version
// wrote, whose raw body leaves its options in separate fields. The new
// server resumes nothing, removes both records and lists no job.
func TestJournaledJobRebuildingToAnotherStudyIsDropped(t *testing.T) {
	dir := t.TempDir()
	cfgA := testConfig("rebuild-a", "STT", 1<<20)
	other, err := sweep.Expand([]byte(testConfig("rebuild-b", "RRAM", 1<<20)), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	paretoA, err := sweep.Expand([]byte(cfgA), func(name string) string {
		return map[string]string{"pareto": "read_latency_ns,area_mm2"}[name]
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.JournalJob(store.JobRecord{ID: "job-1", Fingerprint: other.Fingerprint,
		Name: "rebuild-a", Format: "json", Config: []byte(cfgA), Total: other.Points}); err != nil {
		t.Fatal(err)
	}
	writeParentJob(t, dir, parentJobRecord{Version: "nvmx-journal/v1", ID: "job-2",
		Fingerprint: paretoA.Fingerprint, Name: "rebuild-a", Format: "json", Config: []byte(cfgA),
		ParetoSet: true, Pareto: []string{"read_latency_ns", "area_mm2"}, Total: paretoA.Points})

	srv, ts := newStoreServer(t, dir)
	if n := srv.ResumedJobs(); n != 0 {
		t.Fatalf("ResumedJobs = %d, want 0", n)
	}
	if jobs := st.IncompleteJobs(); len(jobs) != 0 {
		t.Fatalf("journal still holds %+v", jobs)
	}
	code, _, body := get(t, ts.URL+"/v1/jobs", nil)
	var rows []JobStatus
	if code != http.StatusOK || json.Unmarshal(body, &rows) != nil || len(rows) != 0 {
		t.Fatalf("GET /v1/jobs: status %d: %s; want no job", code, body)
	}
}

// brokenFS fails every write, driving a store into degraded mode.
type brokenFS struct{ store.FS }

func (brokenFS) WriteFileAtomic(path string, data []byte) error {
	return errors.New("injected: volume gone")
}
func (brokenFS) ReadFile(path string) ([]byte, error) {
	return nil, errors.New("injected: volume gone")
}
func (brokenFS) ReadDir(path string) ([]iofs.DirEntry, error) {
	return nil, errors.New("injected: volume gone")
}

// TestHealthzReportsDegradedStore drives the store into memory-only
// fallback and checks the operational surface: healthz flips to "degraded"
// (still 200 — the service is correct, just not durable), /v1/stats carries
// the failure counters, and studies keep completing.
func TestHealthzReportsDegradedStore(t *testing.T) {
	st, err := store.OpenFS(t.TempDir(), brokenFS{FS: store.DiskFS})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{MaxConcurrentStudies: 2, StudyWorkers: 2, Store: st})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	// Studies succeed even while every disk op fails; each distinct study
	// (fresh points — a repeated one would hit the memory mirror and never
	// touch the dead disk again) feeds the degradation threshold.
	for i := 0; i < 6 && !st.Degraded(); i++ {
		code, body := post(t, ts, testConfig("degraded", "STT", 1<<(21+i)), "json")
		if code != http.StatusOK {
			t.Fatalf("study on a broken volume: status %d: %s", code, body)
		}
	}
	if !st.Degraded() {
		t.Fatal("store never degraded despite a dead volume")
	}

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health.Status != "degraded" {
		t.Fatalf("healthz: %d %q, want 200 \"degraded\"", resp.StatusCode, health.Status)
	}

	stats := srv.Snapshot()
	if !stats.Store.Degraded || stats.Store.IOErrors == 0 {
		t.Fatalf("stats: degraded=%v io_errors=%d", stats.Store.Degraded, stats.Store.IOErrors)
	}

	// And the service still serves studies from memory.
	if code, _ := post(t, ts, testConfig("degraded", "STT", 1<<21), "json"); code != http.StatusOK {
		t.Fatalf("degraded study: status %d", code)
	}
}

// TestMemoryOnlyStoreDegradedPastBudget: a memory-only store is its own
// data, so once its points fill the memory budget it drops new ones — and
// says so: /v1/stats store.degraded turns true and healthz reports
// "degraded", while every point it kept still serves.
func TestMemoryOnlyStoreDegradedPastBudget(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{MaxConcurrentStudies: 1, StudyWorkers: 1, Store: st})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	health := func() string {
		t.Helper()
		var body struct {
			Status string `json:"status"`
		}
		if code, _, raw := get(t, ts.URL+"/v1/healthz", nil); code != http.StatusOK || json.Unmarshal(raw, &body) != nil {
			t.Fatalf("healthz: status %d: %s", code, raw)
		}
		return body.Status
	}
	if h := health(); h != "ok" {
		t.Fatalf("fresh memory-only store: healthz %q, want ok", h)
	}

	// Every point shares one ~9 MB row slice: each costs the budget its
	// rows, but the test holds them once.
	big := core.CachedPoint{Arrays: make([]nvsim.Result, 1<<15)}
	for i := 0; !st.Degraded(); i++ {
		if i == 64 {
			t.Fatal("memory-only store never filled its budget")
		}
		st.Put(fmt.Sprintf("big-point-%d", i), big)
	}

	var stats struct {
		Store struct {
			Degraded bool `json:"degraded"`
		} `json:"store"`
	}
	if code, _, raw := get(t, ts.URL+"/v1/stats", nil); code != http.StatusOK || json.Unmarshal(raw, &stats) != nil {
		t.Fatalf("stats: status %d: %s", code, raw)
	}
	if !stats.Store.Degraded {
		t.Fatal("/v1/stats store.degraded is false after the store dropped a point")
	}
	if h := health(); h != "degraded" {
		t.Fatalf("healthz %q, want degraded", h)
	}
	if _, ok := st.Get("big-point-0"); !ok {
		t.Fatal("a kept point was lost")
	}
}

// parentJobRecord is store.JobRecord as older versions encoded it: the raw
// request body beside separate option fields, and the progress count that
// replay filled from jobs/<id>.progress.
type parentJobRecord struct {
	Version, ID, Fingerprint, Name, Format string
	Config                                 []byte
	ParetoSet                              bool
	Pareto                                 []string
	ModeSet                                bool
	Mode                                   string
	BudgetSet                              bool
	Budget                                 int
	SeedSet                                bool
	Seed                                   int64
	Total                                  int
	Completed                              int
}

// writeParentJob writes rec as an older version framed it: the gob record
// inside a CRC-32-checksummed, version-stamped envelope.
func writeParentJob(t *testing.T, dir string, rec parentJobRecord) {
	t.Helper()
	var payload, env bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&rec); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&env).Encode(&struct {
		Version string
		Sum     uint32
		Payload []byte
	}{rec.Version, crc32.ChecksumIEEE(payload.Bytes()), payload.Bytes()}); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs", rec.ID+".job"), env.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLegacyShardAndSyncFilesAreIgnored: a store written by an older
// version may hold files this one never opens — fabric shard-assignment
// records (jobs/*.shards), anti-entropy sync records (sync/*.gob), per-point
// job progress (jobs/*.progress) and the engine memo snapshot (memo.gob) —
// and job records whose gob type still carries a progress count. An
// incomplete job beside them resumes and finishes byte-identical to the
// batch CLI, and nothing is quarantined or touched. fsck counts the files
// as legacy without calling the store unclean, and fsck -repair removes
// them.
func TestLegacyShardAndSyncFilesAreIgnored(t *testing.T) {
	cfg := testConfig("legacy-store", "STT", 1<<20)
	x, err := sweep.Expand([]byte(cfg), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := batchOutput(t, cfg, "json")
	for _, c := range []struct {
		name  string
		files []string // relative to the store directory
		// parentJob writes the job record in the older shape.
		parentJob bool
	}{
		{"shards and sync", []string{"jobs/job-1.shards", "sync/00000000000000000001-deadbeef.gob"}, false},
		{"memo and progress", []string{"memo.gob", "jobs/job-1.progress"}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if c.parentJob {
				writeParentJob(t, dir, parentJobRecord{Version: "nvmx-journal/v1", ID: "job-1",
					Fingerprint: x.Fingerprint, Name: "legacy-store", Format: "json",
					Config: []byte(cfg), Total: x.Points})
			} else {
				st, err := store.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				err = st.JournalJob(store.JobRecord{ID: "job-1", Fingerprint: x.Fingerprint, Name: "legacy-store",
					Format: "json", Config: []byte(cfg), Total: x.Points})
				if err != nil {
					t.Fatal(err)
				}
			}
			// No file is decoded, so any bytes stand in for the old records.
			old := []byte("written by an older version")
			legacy := make([]string, len(c.files))
			for i, name := range c.files {
				legacy[i] = filepath.Join(dir, name)
				if err := os.MkdirAll(filepath.Dir(legacy[i]), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(legacy[i], old, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			st, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			srv := New(Options{MaxConcurrentStudies: 2, StudyWorkers: 2, Store: st})
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(func() { ts.Close(); srv.Close() })
			if n := srv.ResumedJobs(); n != 1 {
				t.Fatalf("ResumedJobs = %d, want 1", n)
			}
			if js := waitState(t, ts, "job-1", JobDone); js.State != JobDone {
				t.Fatalf("resumed job finished %s (%s), want done", js.State, js.Error)
			}
			resp, err := http.Get(ts.URL + "/v1/jobs/job-1/result")
			if err != nil {
				t.Fatal(err)
			}
			got, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("resumed result: status %d, matches batch CLI: %v", resp.StatusCode, bytes.Equal(got, want))
			}
			if q := st.Health().Quarantined; q != 0 {
				t.Fatalf("the live store quarantined %d file(s)", q)
			}
			for _, path := range legacy {
				if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, old) {
					t.Fatalf("legacy file %s disturbed by the live store: %v", path, err)
				}
			}

			rep, err := store.Fsck(dir, false)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Legacy != 2 || !rep.Clean() {
				t.Fatalf("fsck: legacy=%d clean=%v, want 2/true: %+v", rep.Legacy, rep.Clean(), rep)
			}
			if !strings.Contains(rep.Summary(), "legacy: 2") {
				t.Fatalf("summary does not report the legacy files:\n%s", rep.Summary())
			}
			if rep, err = store.Fsck(dir, true); err != nil {
				t.Fatal(err)
			}
			if rep.Removed != 2 {
				t.Fatalf("fsck -repair removed %d file(s), want 2", rep.Removed)
			}
			for _, path := range legacy {
				if _, err := os.Stat(path); !os.IsNotExist(err) {
					t.Fatalf("fsck -repair left %s in place (%v)", path, err)
				}
			}
			if rep, err = store.Fsck(dir, false); err != nil {
				t.Fatal(err)
			}
			if rep.Legacy != 0 || !rep.Clean() {
				t.Fatalf("fsck after repair: legacy=%d clean=%v, want 0/true", rep.Legacy, rep.Clean())
			}
		})
	}
}
