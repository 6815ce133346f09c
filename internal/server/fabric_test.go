package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/store"
	"repro/internal/sweep"
)

// newWorker builds a store-less worker server: it answers /v1/version and
// POST /v1/shard, shipping the points each shard's run emits.
func newWorker(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Options{MaxConcurrentStudies: 2, StudyWorkers: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

// newCoordinator builds a coordinator over the given worker URLs. A nil
// store means the server's own auto-created memory store.
func newCoordinator(t *testing.T, workers []string, st *store.Store) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Options{MaxConcurrentStudies: 2, StudyWorkers: 2, Store: st, Workers: workers})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

// errCode decodes the stable machine-readable code out of an error
// envelope.
func errCode(t *testing.T, body []byte) string {
	t.Helper()
	var e struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("not an error envelope: %s", body)
	}
	return e.Error.Code
}

func TestVersionHandshakeEndpoint(t *testing.T) {
	_, ts := newWorker(t)
	resp, err := http.Get(ts.URL + "/v1/version")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/version: status %d", resp.StatusCode)
	}
	var v store.VersionInfo
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.Protocol != store.ProtocolVersion || v.PointKey != core.PointKeyVersion ||
		v.StoreRecord != store.RecordVersion || v.ShardWire != store.ShardWireVersion {
		t.Fatalf("version handshake body out of sync with this binary: %+v", v)
	}
}

func TestStoreAPIErrorContract(t *testing.T) {
	// A server with no store refuses the store API with the stable
	// store_unavailable code, so peers can tell "no store" from "no such
	// record".
	_, tsNoStore := newWorker(t)
	resp, err := http.Get(tsNoStore.URL + "/v1/store/points/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || errCode(t, body) != "store_unavailable" {
		t.Fatalf("store API without a store: status %d code %q", resp.StatusCode, errCode(t, body))
	}

	_, ts := newStoreServer(t, t.TempDir())

	// Missing records are clean 404 misses.
	resp, err = http.Get(ts.URL + "/v1/store/points/" + store.Addr("nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing point: status %d, want 404", resp.StatusCode)
	}

	// A garbage record upload is refused with store_corrupt — never stored.
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/store/points/"+store.Addr("x"),
		strings.NewReader("not a point record"))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || errCode(t, body) != "store_corrupt" {
		t.Fatalf("garbage point upload: status %d code %q", resp.StatusCode, errCode(t, body))
	}

	// Shard requests from a different protocol generation are refused.
	cfg := testConfig("shard-errors", "STT", 1<<20)
	shard := func(protocol, fingerprint string) (int, []byte) {
		b, err := json.Marshal(fabric.ShardRequest{
			Protocol: protocol, Fingerprint: fingerprint,
			Config: json.RawMessage(cfg), Indices: []int{0},
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/shard", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}
	code, body := shard("v0", "whatever")
	if code != http.StatusBadRequest || errCode(t, body) != "version_mismatch" {
		t.Fatalf("foreign-protocol shard: status %d code %q", code, errCode(t, body))
	}
	// A fingerprint this worker cannot reproduce from the config means the
	// two processes disagree about study identity: 409 shard_conflict.
	code, body = shard(store.ProtocolVersion, "not-the-fingerprint")
	if code != http.StatusConflict || errCode(t, body) != "shard_conflict" {
		t.Fatalf("conflicting shard: status %d code %q", code, errCode(t, body))
	}
}

func TestStoreAPIRecordRoundTrip(t *testing.T) {
	dirA := t.TempDir()
	_, tsA := newStoreServer(t, dirA)
	cfg := testConfig("store-api-rt", "STT", 1<<21)
	if code, body := post(t, tsA, cfg, "json"); code != http.StatusOK {
		t.Fatalf("seed study: status %d: %s", code, body)
	}
	var files []string
	deadline := time.Now().Add(30 * time.Second)
	for len(files) == 0 {
		var err error
		files, err = filepath.Glob(filepath.Join(dirA, "points", "*", "*.gob"))
		if err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("no point files landed on disk")
		}
		time.Sleep(2 * time.Millisecond)
	}
	rec, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	addrHex := strings.TrimSuffix(filepath.Base(files[0]), ".gob")

	// The record's exact bytes survive a PUT to a second store and a GET
	// back: the wire carries store envelopes verbatim.
	_, tsB := newStoreServer(t, t.TempDir())
	req, _ := http.NewRequest(http.MethodPut, tsB.URL+"/v1/store/points/"+addrHex, bytes.NewReader(rec))
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("point PUT: status %d, want 204", resp.StatusCode)
	}
	resp, err = http.Get(tsB.URL + "/v1/store/points/" + addrHex)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, rec) {
		t.Fatalf("point GET: status %d, %d bytes, want the %d uploaded bytes",
			resp.StatusCode, len(got), len(rec))
	}
	// HEAD on the same route is the free existence probe.
	resp, err = http.Head(tsB.URL + "/v1/store/points/" + addrHex)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("point HEAD: status %d, want 200", resp.StatusCode)
	}

	// Study manifests replicate the same way.
	resp, err = http.Get(tsA.URL + "/v1/store/studies")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Fingerprints []string `json:"fingerprints"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Fingerprints) == 0 {
		t.Fatal("seed server lists no study fingerprints")
	}
	fp := list.Fingerprints[0]
	resp, err = http.Get(tsA.URL + "/v1/store/studies/" + fp)
	if err != nil {
		t.Fatal(err)
	}
	manifest, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("study GET: status %d", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodPut, tsB.URL+"/v1/store/studies/"+fp, bytes.NewReader(manifest))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("study PUT: status %d, want 204", resp.StatusCode)
	}
}

// TestRemoteStoreWarmRunZeroCharacterizations is the remote half of the
// store acceptance gate: a server whose -store target is another server's
// /v1/store/* API re-runs a study entirely from the peer's records — byte
// identical, zero engine characterizations.
func TestRemoteStoreWarmRunZeroCharacterizations(t *testing.T) {
	cfg := testConfig("remote-store-warm", "RRAM", 1<<21)
	want := batchOutput(t, cfg, "json")

	_, tsPeer := newStoreServer(t, t.TempDir())

	stB, err := store.OpenRemote(tsPeer.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	srvB := New(Options{MaxConcurrentStudies: 2, StudyWorkers: 2, Store: stB})
	tsB := httptest.NewServer(srvB.Handler())
	t.Cleanup(func() { tsB.Close(); srvB.Close() })
	code, cold := post(t, tsB, cfg, "json")
	if code != http.StatusOK || !bytes.Equal(cold, want) {
		t.Fatalf("cold remote-store run: status %d, matches batch: %v", code, bytes.Equal(cold, want))
	}

	// A third process, cold engine, same remote store: every point must
	// come off the peer.
	stC, err := store.OpenRemote(tsPeer.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	srvC := New(Options{MaxConcurrentStudies: 2, StudyWorkers: 2, Store: stC})
	tsC := httptest.NewServer(srvC.Handler())
	t.Cleanup(func() { tsC.Close(); srvC.Close() })
	code, warm := post(t, tsC, cfg, "json")
	if code != http.StatusOK || !bytes.Equal(warm, want) {
		t.Fatalf("warm remote-store run: status %d, matches batch: %v", code, bytes.Equal(warm, want))
	}
	if hits, misses := stC.Stats(); misses != 0 || hits == 0 {
		t.Fatalf("warm remote-store run: store hits=%d misses=%d, want 0 misses", hits, misses)
	}
	if es := srvC.engine.Stats(); es.MemoHits != 0 || es.MemoMisses != 0 {
		t.Fatalf("warm remote-store run characterized: memo hits=%d misses=%d", es.MemoHits, es.MemoMisses)
	}
}

// TestFabricByteIdenticalAcrossWorkerCounts is the fabric acceptance gate:
// the same study through a coordinator over 1, 2, and 4 workers returns
// exactly the bytes of the sequential batch CLI, in every output format,
// cold and warm — including a full bits×word×write-buffer×fault axis
// study.
func TestFabricByteIdenticalAcrossWorkerCounts(t *testing.T) {
	cfg := testConfig("fabric-scale", "FeFET", 1<<21)
	axesCfg := `{
	  "name": "fabric-axes",
	  "cells": [{"technology": "STT", "flavor": "Opt"},
	            {"technology": "FeFET", "flavor": "Opt"}],
	  "bits_per_cell": [1, 2],
	  "capacities_bytes": [1048576, 4194304],
	  "word_bits_axis": [128, 512],
	  "write_buffers": [null, {"mask_latency": true, "buffer_latency_ns": 1.5}],
	  "fault": {"modes": ["raw", "secded"], "seed": 3},
	  "opt_targets": ["ReadEDP"],
	  "traffic": {"generic": {"read_gbs_lo": 1, "read_gbs_hi": 10,
	               "write_gbs_lo": 0.01, "write_gbs_hi": 0.1, "points": 2}}
	}`
	want := map[string][]byte{}
	for _, f := range []string{"json", "ndjson", "csv"} {
		want[f] = batchOutput(t, cfg, f)
	}
	wantAxes := batchOutput(t, axesCfg, "json")

	for _, n := range []int{1, 2, 4} {
		var urls []string
		for i := 0; i < n; i++ {
			_, ts := newWorker(t)
			urls = append(urls, ts.URL)
		}
		srv, ts := newCoordinator(t, urls, nil)

		for _, f := range []string{"json", "ndjson", "csv"} {
			code, body := post(t, ts, cfg, f)
			if code != http.StatusOK {
				t.Fatalf("%d workers, %s: status %d: %s", n, f, code, body)
			}
			if !bytes.Equal(body, want[f]) {
				t.Fatalf("%d workers: %s output diverges from the batch CLI", n, f)
			}
		}
		if code, body := post(t, ts, axesCfg, "json"); code != http.StatusOK || !bytes.Equal(body, wantAxes) {
			t.Fatalf("%d workers: bits×word×wb×fault study diverged (status %d)", n, code)
		}

		stats := srv.Snapshot()
		if !stats.Fabric.Enabled || stats.Fabric.Workers != n || stats.Fabric.Live != n {
			t.Fatalf("%d workers: fabric stats %+v", n, stats.Fabric)
		}
		if stats.Fabric.RemoteHits == 0 || stats.Fabric.RemoteMisses != 0 {
			t.Fatalf("%d workers: remote_hits=%d remote_misses=%d, want all points remote",
				n, stats.Fabric.RemoteHits, stats.Fabric.RemoteMisses)
		}
		// Warm: the coordinator's store already holds every point, so a
		// re-run fans nothing out and still matches.
		shardsBefore := stats.Fabric.Shards
		code, body := post(t, ts, cfg, "json")
		if code != http.StatusOK || !bytes.Equal(body, want["json"]) {
			t.Fatalf("%d workers: warm re-run diverged (status %d)", n, code)
		}
		if again := srv.Snapshot().Fabric.Shards; again != shardsBefore {
			t.Fatalf("%d workers: warm re-run fanned out %d new shard(s)", n, again-shardsBefore)
		}
	}
}

// TestFabricFleetLossDegradedToLocal kills every worker mid-fleet and
// verifies the coordinator silently computes the lost shards itself:
// identical bytes, counted as remote misses, workers marked dead.
func TestFabricFleetLossDegradedToLocal(t *testing.T) {
	srvW1, tsW1 := newWorker(t)
	srvW2, tsW2 := newWorker(t)
	srv, ts := newCoordinator(t, []string{tsW1.URL, tsW2.URL}, nil)

	cfgA := testConfig("fleet-loss-a", "STT", 1<<20)
	if code, body := post(t, ts, cfgA, "json"); code != http.StatusOK {
		t.Fatalf("healthy-fleet study: status %d: %s", code, body)
	}
	if live := srv.Snapshot().Fabric.Live; live != 2 {
		t.Fatalf("live workers = %d, want 2", live)
	}

	// The whole fleet dies. The coordinator still believes both workers are
	// alive (liveness only decays when a shard fails), so the next cold
	// study fans out, loses every shard, and falls back to local execution.
	tsW1.Close()
	srvW1.Close()
	tsW2.Close()
	srvW2.Close()

	cfgB := testConfig("fleet-loss-b", "RRAM", 2<<20)
	want := batchOutput(t, cfgB, "json")
	code, body := post(t, ts, cfgB, "json")
	if code != http.StatusOK {
		t.Fatalf("fleet-loss study: status %d: %s", code, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("fleet-loss study diverged from the batch CLI")
	}
	stats := srv.Snapshot()
	if stats.Fabric.RemoteMisses == 0 {
		t.Fatalf("no remote misses recorded after total fleet loss: %+v", stats.Fabric)
	}

	// Another study: any worker the ring still trusted fails its shard now,
	// and the refresh cannot resurrect either peer — the fleet ends fully
	// dead while results stay byte-identical.
	cfgC := testConfig("fleet-loss-c", "PCM", 1<<20)
	wantC := batchOutput(t, cfgC, "json")
	code, body = post(t, ts, cfgC, "json")
	if code != http.StatusOK || !bytes.Equal(body, wantC) {
		t.Fatalf("no-workers study: status %d, matches batch: %v", code, bytes.Equal(body, wantC))
	}
	if live := srv.Snapshot().Fabric.Live; live != 0 {
		t.Fatalf("dead workers still counted live after failing their shards: live=%d", live)
	}
}

// TestFabricCoordinatorCrashRecoveryResumes kills a coordinator without any
// shutdown path mid-job and verifies a fresh coordinator over the same
// store re-adopts the job, fans the points its store still lacks out to
// the fleet, and produces bytes identical to the batch CLI.
func TestFabricCoordinatorCrashRecoveryResumes(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig("fabric-crash", "STT", 1<<21)
	want := batchOutput(t, cfg, "json")

	// Coordinator A parks after its first completed point, so the crash
	// leaves a half-finished job: some points stored, some not. The parked
	// goroutine is never released — it is the dead coordinator's corpse,
	// pinned inside the hook so it cannot observe the hook reset below.
	park := make(chan struct{})
	parked := make(chan struct{})
	var once sync.Once
	testHookJobPoint = func(j *job, completed int) {
		if completed == 1 {
			once.Do(func() { close(parked) })
			<-park
		}
	}
	defer once.Do(func() { close(parked) })
	t.Cleanup(func() { testHookJobPoint = nil })

	stA, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srvA := New(Options{MaxConcurrentStudies: 2, StudyWorkers: 1,
		JobWorkers: 1, JobQueueDepth: 4, Store: stA})
	tsA := httptest.NewServer(srvA.Handler())
	code, acc := submitAsync(t, tsA, cfg)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	<-parked
	deadline := time.Now().Add(30 * time.Second)
	for {
		files, err := filepath.Glob(filepath.Join(dir, "points", "*", "*.gob"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no point file landed before the crash")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// "SIGKILL" the coordinator: drop the frontend, abandon the server.
	tsA.Close()

	// Reboot as a fabric coordinator over the same store, with a live
	// worker this time.
	testHookJobPoint = nil
	_, tsW := newWorker(t)
	stB, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srvB := New(Options{MaxConcurrentStudies: 2, StudyWorkers: 2,
		JobWorkers: 1, JobQueueDepth: 4, Store: stB, Workers: []string{tsW.URL}})
	tsB := httptest.NewServer(srvB.Handler())
	t.Cleanup(func() { tsB.Close(); srvB.Close() })
	if n := srvB.ResumedJobs(); n != 1 {
		t.Fatalf("ResumedJobs = %d, want 1", n)
	}
	st := waitState(t, tsB, acc.JobID, JobDone)
	if st.State != JobDone {
		t.Fatalf("resumed job finished %s (%s), want done", st.State, st.Error)
	}

	resp, err := http.Get(tsB.URL + st.Result)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("resumed result: status %d, matches batch CLI: %v",
			resp.StatusCode, bytes.Equal(got, want))
	}

	stats := srvB.Snapshot()
	if stats.Fabric.RemoteHits == 0 {
		t.Fatalf("the resumed job's missing points were not computed remotely: %+v", stats.Fabric)
	}

	// Completion clears the job journal.
	if files, _ := filepath.Glob(filepath.Join(dir, "jobs", "*")); len(files) != 0 {
		t.Fatalf("journal not cleared after the resumed job finished: %v", files)
	}
}

// TestShardsServedCounter: a worker reports how many shards it has
// answered, via the schema-versioned /v1/stats fabric block.
func TestShardsServedCounter(t *testing.T) {
	srvW, tsW := newWorker(t)
	_, ts := newCoordinator(t, []string{tsW.URL}, nil)
	cfg := testConfig("shards-served", "CTT", 1<<20)
	if code, body := post(t, ts, cfg, "json"); code != http.StatusOK {
		t.Fatalf("study: status %d: %s", code, body)
	}
	stats := srvW.Snapshot()
	if stats.SchemaVersion != statsSchemaVersion {
		t.Fatalf("stats schema_version = %q, want %q", stats.SchemaVersion, statsSchemaVersion)
	}
	if stats.Fabric.ShardsServed == 0 {
		t.Fatalf("worker served no shards: %+v", stats.Fabric)
	}
}

// TestColdShardCountsNoStoreHits: each point is written once, by the
// coordinator. A cold 2-worker study, with the coordinator and one worker
// on store directories, leaves one record per grid point in the
// coordinator's store, while the worker's store holds no points and was
// never probed. The coordinator's run characterizes nothing the workers
// served: its engine records no work, and the workers' engines together
// record one miss per config and no hit.
func TestColdShardCountsNoStoreHits(t *testing.T) {
	cfg := `{
	  "name": "shard-cold",
	  "cells": [{"technology": "STT", "flavor": "Opt"}, {"technology": "FeFET", "flavor": "Opt"},
	            {"technology": "PCM", "flavor": "Opt"}, {"technology": "RRAM", "flavor": "Opt"}],
	  "capacities_bytes": [1048576, 4194304],
	  "opt_targets": ["ReadEDP", "Area"],
	  "traffic": {"generic": {"read_gbs_lo": 1, "read_gbs_hi": 10,
	               "write_gbs_lo": 0.01, "write_gbs_hi": 0.1, "points": 2}}
	}`
	want := batchOutput(t, cfg, "json")
	x, err := sweep.Expand([]byte(cfg), sweep.Overrides{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const configs = 8 // 4 cells × 2 capacities, one point each

	wst, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	wsrv := New(Options{MaxConcurrentStudies: 2, StudyWorkers: 2, Store: wst})
	wts := httptest.NewServer(wsrv.Handler())
	t.Cleanup(func() { wts.Close(); wsrv.Close() })
	wsrv2, tsW2 := newWorker(t)
	cdir := t.TempDir()
	cst, err := store.Open(cdir)
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newCoordinator(t, []string{wts.URL, tsW2.URL}, cst)

	code, body := post(t, ts, cfg, "json")
	if code != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("cold fabric study: status %d, matches batch: %v", code, bytes.Equal(body, want))
	}
	if f := srv.Snapshot().Fabric; f.RemoteHits != int64(x.Points) || f.RemoteMisses != 0 {
		t.Fatalf("fabric stats %+v, want %d remote hits and no miss", f, x.Points)
	}
	files, err := filepath.Glob(filepath.Join(cdir, "points", "*", "*.gob"))
	if err != nil {
		t.Fatal(err)
	}
	// Cold points are written through to disk, none kept resident.
	if len(files) != x.Points || cst.Len() != 0 {
		t.Fatalf("coordinator store: %d file(s), %d resident point(s), want %d and 0", len(files), cst.Len(), x.Points)
	}
	if hits, misses := wst.Stats(); wst.Len() != 0 || hits != 0 || misses != 0 {
		t.Fatalf("worker store: %d point(s), hits=%d misses=%d, want 0/0/0", wst.Len(), hits, misses)
	}
	if es := srv.engine.Stats(); es.MemoHits != 0 || es.MemoMisses != 0 {
		t.Fatalf("coordinator memo: hits=%d misses=%d, want 0/0", es.MemoHits, es.MemoMisses)
	}
	w1, w2 := wsrv.engine.Stats(), wsrv2.engine.Stats()
	if hits, misses := w1.MemoHits+w2.MemoHits, w1.MemoMisses+w2.MemoMisses; hits != 0 || misses != configs {
		t.Fatalf("workers' memos: hits=%d misses=%d, want 0 hits and %d misses", hits, misses, configs)
	}

	// A warm re-read serves every point from disk and keeps it resident.
	if code, body := post(t, ts, cfg, "json"); code != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("warm fabric study: status %d, matches batch: %v", code, bytes.Equal(body, want))
	}
	if cst.Len() != x.Points {
		t.Fatalf("coordinator store after a warm re-read: %d resident point(s), want %d", cst.Len(), x.Points)
	}
}

// TestOpenAPIAdvertisesFabricProtocol: the wire contract — new paths and
// stable error codes — is published in the machine-readable API document.
func TestOpenAPIAdvertisesFabricProtocol(t *testing.T) {
	_, ts := newWorker(t)
	resp, err := http.Get(ts.URL + "/v1/openapi.json")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/openapi.json: status %d", resp.StatusCode)
	}
	for _, needle := range []string{
		"/v1/version", "/v1/store/points/{addr}",
		"/v1/store/studies/{fingerprint}", "/v1/shard",
		"store_unavailable", "shard_conflict", "version_mismatch", "store_corrupt",
	} {
		if !bytes.Contains(body, []byte(fmt.Sprintf("%q", needle))) &&
			!bytes.Contains(body, []byte(needle)) {
			t.Errorf("openapi.json does not mention %q", needle)
		}
	}
	if bytes.Contains(body, []byte("/v1/store/memo")) {
		t.Error("openapi.json still advertises /v1/store/memo")
	}
}

// FuzzShardRequest feeds arbitrary POST /v1/shard bodies through the
// worker's request handling — JSON parse, protocol check, expansion,
// fingerprint and index checks, and the shard itself. It must never panic,
// and it answers either 200 with an nvmx-shard/v2 payload that decodes or
// an error envelope with a stable code. Seeds are the test config fixtures
// as well-formed, refused and malformed shard requests.
func FuzzShardRequest(f *testing.F) {
	for _, tech := range []string{"STT", "RRAM"} {
		cfg := testConfig("fuzz-shard-"+tech, tech, 1<<20)
		x, err := sweep.Expand([]byte(cfg), sweep.Overrides{}, nil)
		if err != nil {
			f.Fatal(err)
		}
		for _, req := range []fabric.ShardRequest{
			{Protocol: store.ProtocolVersion, Fingerprint: x.Fingerprint, Indices: []int{0, 1}},
			{Protocol: "v0", Fingerprint: x.Fingerprint, Indices: []int{0}},
			{Protocol: store.ProtocolVersion, Fingerprint: "not-the-fingerprint", Indices: []int{0}},
			{Protocol: store.ProtocolVersion, Fingerprint: x.Fingerprint, Indices: []int{-1, x.Points}},
		} {
			req.Config = json.RawMessage(cfg)
			body, err := json.Marshal(req)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(body)
		}
	}
	f.Add([]byte(`{"protocol":`))
	f.Add([]byte("not json"))

	srv := New(Options{MaxConcurrentStudies: 1, StudyWorkers: 1, StudyTimeout: 5 * time.Second})
	f.Cleanup(srv.Close)
	h := srv.Handler()
	codes := map[string]bool{"invalid_config": true, "version_mismatch": true, "shard_conflict": true,
		"study_failed": true, "study_timeout": true, "saturated": true}
	f.Fuzz(func(t *testing.T, body []byte) {
		// The design space has no size limit yet, and generic traffic makes
		// points² patterns: a mutated points count would spend this target's
		// time and memory building patterns. Such inputs are skipped until
		// sweep parsing bounds the grid.
		var probe struct {
			Config struct {
				Traffic struct {
					Generic *struct{ Points int } `json:"generic"`
				} `json:"traffic"`
			} `json:"config"`
		}
		json.Unmarshal(body, &probe)
		if g := probe.Config.Traffic.Generic; g != nil && g.Points > 64 {
			t.Skip("generic traffic grid larger than this target explores")
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/shard", bytes.NewReader(body)))
		if rec.Code == http.StatusOK {
			if _, err := store.DecodeShard(rec.Body.Bytes()); err != nil {
				t.Fatalf("200 with an undecodable shard payload: %v", err)
			}
			return
		}
		var e errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !codes[e.Error.Code] {
			t.Fatalf("status %d: body %q is not an error envelope with a stable code", rec.Code, rec.Body.Bytes())
		}
	})
}
