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
	"time"
)

// newJobServer builds a store-less server with a single async worker (so
// queue order is deterministic) and the given queue depth.
func newJobServer(t *testing.T, queueDepth int) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Options{
		MaxConcurrentStudies: 2, StudyWorkers: 2,
		JobWorkers: 1, JobQueueDepth: queueDepth,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

// submitAsync posts a configuration with ?async=1 and decodes the 202 body.
func submitAsync(t *testing.T, ts *httptest.Server, cfgJSON string) (int, asyncAccepted) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/studies?async=1&format=json",
		"application/json", strings.NewReader(cfgJSON))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var acc asyncAccepted
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(body, &acc); err != nil {
			t.Fatalf("decoding 202 body %q: %v", body, err)
		}
	}
	return resp.StatusCode, acc
}

// getStatus fetches one job's status.
func getStatus(t *testing.T, ts *httptest.Server, id string) (int, JobStatus) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, st
}

// waitState polls a job until it reaches want (or any terminal state) and
// returns its final status.
func waitState(t *testing.T, ts *httptest.Server, id string, want JobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, st := getStatus(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s: status %d", id, code)
		}
		switch st.State {
		case want, JobDone, JobFailed, JobCanceled:
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobStatus{}
}

// blockWorker installs the job-running test hook so that any job whose
// study name starts with "blocker" parks until the returned release func
// runs. It must be called before the server is created (the hook write
// happens-before worker reads via the job queue); the caller must register
// the release as a cleanup *after* creating the server, so teardown order
// is release → server close → hook reset.
func blockWorker(t *testing.T) (release func()) {
	t.Helper()
	ch := make(chan struct{})
	var once sync.Once
	testHookJobRunning = func(j *job) {
		if strings.HasPrefix(j.x.Study.Name, "blocker") {
			<-ch
		}
	}
	t.Cleanup(func() { testHookJobRunning = nil })
	return func() { once.Do(func() { close(ch) }) }
}

func TestAsyncJobLifecycle(t *testing.T) {
	_, ts := newJobServer(t, 8)
	cfg := testConfig("async-lifecycle", "STT", 1<<21)
	want := batchOutput(t, cfg, "json")
	wantCSV := batchOutput(t, cfg, "csv")

	code, acc := submitAsync(t, ts, cfg)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", code)
	}
	if acc.JobID == "" || acc.Deduplicated {
		t.Fatalf("unexpected 202 body %+v", acc)
	}

	st := waitState(t, ts, acc.JobID, JobDone)
	if st.State != JobDone {
		t.Fatalf("job finished %s (%s), want done", st.State, st.Error)
	}
	if st.Progress.Total != 2 || st.Progress.Completed != st.Progress.Total {
		t.Fatalf("progress %d/%d, want 2/2", st.Progress.Completed, st.Progress.Total)
	}
	if st.Result == "" {
		t.Fatal("done job has no result URL")
	}

	// The listing includes the job.
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var all []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(all) != 1 || all[0].ID != acc.JobID {
		t.Fatalf("job listing %+v", all)
	}

	// The rendered result matches the batch CLI byte for byte, in the
	// submitted format and in an overridden one.
	resp, err = http.Get(ts.URL + st.Result)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("result status %d; bytes match batch CLI: %v", resp.StatusCode, bytes.Equal(got, want))
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("result has no ETag")
	}
	resp, err = http.Get(ts.URL + st.Result + "?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	gotCSV, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(gotCSV, wantCSV) {
		t.Fatal("csv result differs from batch CLI")
	}

	// Result revalidation via If-None-Match.
	req, _ := http.NewRequest("GET", ts.URL+st.Result, nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("result revalidation status %d, want 304", resp.StatusCode)
	}

	// Unknown jobs 404.
	if code, _ := getStatus(t, ts, "job-999"); code != http.StatusNotFound {
		t.Fatalf("unknown job status %d, want 404", code)
	}
}

// TestAsyncDedupConcurrentSubmissions covers the singleflight guarantee:
// identical configurations submitted while one is in flight all land on the
// same job. The single worker is held busy by a blocker job so the target
// stays queued for the whole submission burst.
func TestAsyncDedupConcurrentSubmissions(t *testing.T) {
	release := blockWorker(t)
	srv, ts := newJobServer(t, 8)
	t.Cleanup(release)
	code, blocker := submitAsync(t, ts, testConfig("blocker-dedup", "STT", 1<<21))
	if code != http.StatusAccepted {
		t.Fatalf("blocker submit status %d", code)
	}
	waitState(t, ts, blocker.JobID, JobRunning)

	cfg := testConfig("async-dedup", "RRAM", 1<<21)
	const n = 5
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, acc := submitAsync(t, ts, cfg)
			if code != http.StatusAccepted {
				t.Errorf("submit %d: status %d", i, code)
				return
			}
			ids[i] = acc.JobID
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("submission %d got job %q, submission 0 got %q", i, ids[i], ids[0])
		}
	}
	if d := srv.jobs.deduplicated.Load(); d != n-1 {
		t.Fatalf("deduplicated = %d, want %d", d, n-1)
	}

	// The shared job still completes and serves the right bytes.
	release()
	st := waitState(t, ts, ids[0], JobDone)
	if st.State != JobDone {
		t.Fatalf("dedup job finished %s (%s)", st.State, st.Error)
	}
	resp, err := http.Get(ts.URL + st.Result)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := batchOutput(t, cfg, "json"); !bytes.Equal(got, want) {
		t.Fatal("dedup job result differs from batch CLI")
	}

	// Once done, the fingerprint is no longer in flight: a fresh
	// submission starts a new job.
	code, acc := submitAsync(t, ts, cfg)
	if code != http.StatusAccepted || acc.Deduplicated || acc.JobID == ids[0] {
		t.Fatalf("post-completion resubmit: %d %+v", code, acc)
	}
}

// TestAsyncResultConcurrentRenders fetches one done job's result from many
// goroutines at once — with a Pareto selection declared, so the frontier
// materialization path is shared — and requires every response to match
// the batch CLI bytes (run under -race in CI).
func TestAsyncResultConcurrentRenders(t *testing.T) {
	_, ts := newJobServer(t, 8)
	cfg := `{
	  "name": "async-pareto",
	  "cells": [{"technology": "STT", "flavor": "Opt"},
	            {"technology": "RRAM", "flavor": "Pess"}],
	  "capacities_bytes": [2097152],
	  "opt_targets": ["ReadEDP", "Area"],
	  "pareto": {"metrics": ["total_power_mw", "area_mm2"]},
	  "traffic": {"generic": {"read_gbs_lo": 1, "read_gbs_hi": 10,
	               "write_gbs_lo": 0.01, "write_gbs_hi": 0.1, "points": 2}}
	}`
	want := batchOutput(t, cfg, "json")

	code, acc := submitAsync(t, ts, cfg)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	st := waitState(t, ts, acc.JobID, JobDone)
	if st.State != JobDone {
		t.Fatalf("job finished %s (%s)", st.State, st.Error)
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + st.Result)
			if err != nil {
				t.Error(err)
				return
			}
			got, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if !bytes.Equal(got, want) {
				t.Error("concurrent render differs from batch CLI")
			}
		}()
	}
	wg.Wait()
}

// TestJobPruning exercises the terminal-job retention cap directly: the
// oldest finished jobs are evicted past maxFinishedJobs, while queued and
// running jobs survive regardless of age.
func TestJobPruning(t *testing.T) {
	m := &jobManager{jobs: map[string]*job{}, inflight: map[string]*job{}}
	mkJob := func(id string, st JobState) *job {
		j := &job{id: id, state: st}
		m.jobs[id] = j
		m.order = append(m.order, j)
		return j
	}
	running := mkJob("job-running", JobRunning) // oldest of all, must survive
	for i := 0; i < maxFinishedJobs+10; i++ {
		mkJob(fmt.Sprintf("job-%d", i), JobDone)
	}
	m.mu.Lock()
	m.pruneLocked()
	m.mu.Unlock()
	if len(m.jobs) != maxFinishedJobs+1 {
		t.Fatalf("retained %d jobs, want %d finished + 1 running", len(m.jobs), maxFinishedJobs+1)
	}
	if m.jobs[running.id] == nil {
		t.Fatal("pruning evicted a running job")
	}
	// The ten oldest finished jobs are the ones gone.
	for i := 0; i < 10; i++ {
		if m.jobs[fmt.Sprintf("job-%d", i)] != nil {
			t.Fatalf("job-%d should have been evicted", i)
		}
	}
	if m.jobs[fmt.Sprintf("job-%d", maxFinishedJobs+9)] == nil {
		t.Fatal("newest finished job should survive")
	}
	if len(m.order) != len(m.jobs) {
		t.Fatalf("order (%d) out of sync with jobs (%d)", len(m.order), len(m.jobs))
	}
}

func TestAsyncCancel(t *testing.T) {
	release := blockWorker(t)
	_, ts := newJobServer(t, 8)
	t.Cleanup(release)
	code, blocker := submitAsync(t, ts, testConfig("blocker-cancel", "STT", 1<<21))
	if code != http.StatusAccepted {
		t.Fatal("blocker submit failed")
	}
	waitState(t, ts, blocker.JobID, JobRunning)
	code, acc := submitAsync(t, ts, testConfig("async-cancel", "PCM", 1<<21))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+acc.JobID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != JobCanceled {
		// The job may have been mid-pop; either way it must settle canceled.
		st = waitState(t, ts, acc.JobID, JobCanceled)
	}
	if st.State != JobCanceled {
		t.Fatalf("state %s after DELETE, want canceled", st.State)
	}

	// Canceled jobs have no result.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + acc.JobID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("canceled result status %d, want 410", resp.StatusCode)
	}
}

func TestAsyncQueueFullAndFailure(t *testing.T) {
	release := blockWorker(t)
	_, ts := newJobServer(t, 1)
	t.Cleanup(release)
	code, blocker := submitAsync(t, ts, testConfig("blocker-queue", "STT", 1<<21))
	if code != http.StatusAccepted {
		t.Fatal("blocker submit failed")
	}
	waitState(t, ts, blocker.JobID, JobRunning)

	if code, _ = submitAsync(t, ts, testConfig("queued-1", "STT", 1<<21)); code != http.StatusAccepted {
		t.Fatalf("first queued submit status %d", code)
	}
	// Queue depth 1 is now exhausted; a distinct config must bounce.
	if code, _ = submitAsync(t, ts, testConfig("queued-2", "RRAM", 1<<21)); code != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity submit status %d, want 503", code)
	}

	// Drain, then exercise the failure path: a study whose constraints
	// exclude every organization fails at run time and reports its error.
	release()
	waitState(t, ts, blocker.JobID, JobDone)
	failing := `{
	  "name": "doomed",
	  "cells": [{"technology": "STT"}],
	  "capacities_bytes": [2097152],
	  "max_area_mm2": 1e-9,
	  "traffic": {"fixed": [{"name": "t", "reads_per_sec": 1e6, "writes_per_sec": 1e4}]}
	}`
	code, acc := submitAsync(t, ts, failing)
	if code != http.StatusAccepted {
		t.Fatalf("failing submit status %d", code)
	}
	st := waitState(t, ts, acc.JobID, JobFailed)
	if st.State != JobFailed || st.Error == "" {
		t.Fatalf("state %s (error %q), want failed with error", st.State, st.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + acc.JobID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failed-job result status %d, want 500", resp.StatusCode)
	}
}
