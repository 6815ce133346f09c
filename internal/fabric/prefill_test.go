package fabric

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/nvsim"
	"repro/internal/store"
	"repro/internal/traffic"
)

// prefillStudy builds a small four-point study (2 cells × 2 capacities)
// whose characterization keys spread across a multi-worker ring.
func prefillStudy() *core.Study {
	s := core.NewStudy("fabric-prefill-test")
	s.AddTentpole(cell.STT, cell.Optimistic)
	s.AddTentpole(cell.RRAM, cell.Pessimistic)
	s.AddCapacity(1 << 20)
	s.AddCapacity(1 << 22)
	s.AddTarget(nvsim.OptReadEDP, nvsim.OptArea)
	s.AddPattern(traffic.Pattern{Name: "p", ReadsPerSec: 1e7, WritesPerSec: 1e5})
	return s
}

// shardWorker is an in-test worker process: it answers the /v1/version
// handshake with this binary's versions and serves /v1/shard from a
// pre-computed point store — the same contract as a real worker, without
// routing through the HTTP server package (which would be an import cycle).
type shardWorker struct {
	study  *core.Study
	points *store.Store
	served atomic.Int64 // hedged shards hit one worker concurrently
}

func newShardWorker(t *testing.T) *shardWorker { return newShardWorkerFor(t, prefillStudy) }

// newShardWorkerFor is newShardWorker serving the study build returns.
func newShardWorkerFor(t *testing.T, build func() *core.Study) *shardWorker {
	t.Helper()
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	s := build()
	s.Cache = st
	s.Workers = 1
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return &shardWorker{study: build(), points: st}
}

func (sw *shardWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/version":
		json.NewEncoder(w).Encode(store.VersionInfo{
			Protocol:  store.ProtocolVersion,
			PointKey:  core.PointKeyVersion,
			ShardWire: store.ShardWireVersion,
		})
	case "/v1/shard":
		var req ShardRequest
		body, _ := io.ReadAll(r.Body)
		if err := json.Unmarshal(body, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		specs, err := sw.study.Space()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		var pts []store.ShardPoint
		for _, i := range req.Indices {
			key := sw.study.PointKey(specs[i])
			if pt, ok := sw.points.Get(key); ok {
				pts = append(pts, store.ShardPoint{Index: i, Key: key, Point: pt})
			}
		}
		data, err := store.EncodeShardPoints(pts)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		sw.served.Add(1)
		w.Write(data)
	default:
		http.NotFound(w, r)
	}
}

func TestFabricPrefillFansOutAndMerges(t *testing.T) {
	nvsim.ResetMemo()
	w1 := newShardWorker(t)
	ts1 := httptest.NewServer(w1)
	defer ts1.Close()
	w2 := newShardWorker(t)
	ts2 := httptest.NewServer(w2)
	defer ts2.Close()

	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	study := prefillStudy()
	specs, err := study.Space()
	if err != nil {
		t.Fatal(err)
	}

	p := NewPool([]string{ts1.URL, ts2.URL}, nil)
	p.Prefill(context.Background(), study, []byte(`{"synthetic":"cfg"}`), st, "")

	for i := range specs {
		if !st.Probe(study.PointKey(specs[i])) {
			t.Fatalf("point %d missing from the coordinator store after prefill", i)
		}
	}
	s := p.Snapshot()
	if s.RemoteHits != int64(len(specs)) || s.RemoteMisses != 0 {
		t.Fatalf("counters after full fan-out: %+v, want %d hits / 0 misses", s, len(specs))
	}
	if s.Shards == 0 || s.Live != 2 {
		t.Fatalf("counters after full fan-out: %+v, want >0 shards and 2 live", s)
	}

	// Points from a filled store must deep-equal a local computation: the
	// fabric's whole promise is that distribution never changes results.
	nvsim.ResetMemo()
	local, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	ref := prefillStudy()
	ref.Cache = local
	ref.Workers = 1
	if _, err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		key := study.PointKey(specs[i])
		want, _ := local.Get(key)
		got, _ := st.Get(key)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("point %d differs between fabric and local computation", i)
		}
	}

	// A warm store has nothing to distribute: prefill is a no-op.
	before := s.Shards
	p.Prefill(context.Background(), study, []byte(`{"synthetic":"cfg"}`), st, "")
	if after := p.Snapshot().Shards; after != before {
		t.Fatalf("warm prefill fanned out %d shard(s)", after-before)
	}
}

func TestFabricPrefillShardFailureFallsBackToLocal(t *testing.T) {
	// Three failure shapes, one invariant: the affected points stay
	// unfilled (counted as remote misses) and the worker leaves the ring.
	cases := map[string]http.HandlerFunc{
		"http 500": func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "worker exploded", http.StatusInternalServerError)
		},
		"torn payload": func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("half an envelope"))
		},
		"refused": func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, `{"error":{"code":"shard_conflict"}}`, http.StatusConflict)
		},
	}
	for name, shardHandler := range cases {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/version" {
					json.NewEncoder(w).Encode(store.VersionInfo{
						Protocol:  store.ProtocolVersion,
						PointKey:  core.PointKeyVersion,
						ShardWire: store.ShardWireVersion,
					})
					return
				}
				shardHandler(w, r)
			}))
			defer ts.Close()

			st, err := store.Open("")
			if err != nil {
				t.Fatal(err)
			}
			study := prefillStudy()
			specs, err := study.Space()
			if err != nil {
				t.Fatal(err)
			}
			p := NewPool([]string{ts.URL}, nil)
			p.Prefill(context.Background(), study, []byte(`{}`), st, "")

			if st.Len() != 0 {
				t.Fatal("a failed shard still filled the store")
			}
			s := p.Snapshot()
			if s.RemoteMisses != int64(len(specs)) {
				t.Fatalf("RemoteMisses = %d, want %d (the whole grid)", s.RemoteMisses, len(specs))
			}
			if s.Live != 0 {
				t.Fatalf("failed worker still live: %+v", s)
			}
		})
	}
}

// A URL listed twice is one worker. Two entries would carry two breakers,
// and only the first is ever fed: the second would stay closed and keep a
// dead worker in the ring for good.
func TestFabricPoolDedupesWorkerURLs(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/version" {
			json.NewEncoder(w).Encode(store.VersionInfo{
				Protocol:  store.ProtocolVersion,
				PointKey:  core.PointKeyVersion,
				ShardWire: store.ShardWireVersion,
			})
			return
		}
		http.Error(w, "worker exploded", http.StatusInternalServerError)
	}))
	defer ts.Close()

	p := NewPool([]string{ts.URL, ts.URL}, nil)
	if p.Workers() != 1 {
		t.Fatalf("Workers() = %d, want 1 for one URL listed twice", p.Workers())
	}
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	p.Prefill(context.Background(), prefillStudy(), []byte(`{}`), st, "")
	if p.Live() != 0 {
		t.Fatalf("Live() = %d after a failed prefill, want 0: %+v", p.Live(), p.Snapshot())
	}
}

func TestFabricPrefillRejectsMislabeledPoints(t *testing.T) {
	// A worker that returns syntactically valid points under the wrong
	// keys must contribute nothing: the coordinator pins every returned
	// point to the exact key it asked for.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/version" {
			json.NewEncoder(w).Encode(store.VersionInfo{
				Protocol:  store.ProtocolVersion,
				PointKey:  core.PointKeyVersion,
				ShardWire: store.ShardWireVersion,
			})
			return
		}
		var req ShardRequest
		json.NewDecoder(r.Body).Decode(&req)
		var pts []store.ShardPoint
		for _, i := range req.Indices {
			pts = append(pts, store.ShardPoint{Index: i, Key: "not-the-key-you-asked-for"})
		}
		data, _ := store.EncodeShardPoints(pts)
		w.Write(data)
	}))
	defer ts.Close()

	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	study := prefillStudy()
	specs, err := study.Space()
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool([]string{ts.URL}, nil)
	p.Prefill(context.Background(), study, []byte(`{}`), st, "")

	if st.Len() != 0 {
		t.Fatal("a mislabeled point was stored")
	}
	s := p.Snapshot()
	if s.RemoteHits != 0 || s.RemoteMisses != int64(len(specs)) {
		t.Fatalf("counters = %+v, want 0 hits / %d misses", s, len(specs))
	}
}

func TestFabricPrefillJournalsShardsAndCountsResume(t *testing.T) {
	nvsim.ResetMemo()
	worker := newShardWorker(t)
	ts := httptest.NewServer(worker)
	defer ts.Close()

	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	study := prefillStudy()
	fp, err := study.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	// First fan-out of this job: journaled, but nothing to resume.
	p := NewPool([]string{ts.URL}, nil)
	p.Prefill(context.Background(), study, []byte(`{}`), st, "job-42")
	if s := p.Snapshot(); s.ResumedShards != 0 {
		t.Fatalf("fresh fan-out counted resumed shards: %+v", s)
	}
	rec, ok := st.LoadShards("job-42")
	if !ok {
		t.Fatal("prefill left no shard journal record")
	}
	if rec.ID != "job-42" || rec.Fingerprint != fp {
		t.Fatalf("journaled record %+v, want ID job-42 / fingerprint %s", rec, fp)
	}
	if len(rec.Assigns) != 1 || rec.Assigns[0].Worker != ts.URL {
		t.Fatalf("journaled assignment %+v, want one shard on %s", rec.Assigns, ts.URL)
	}

	// A surviving record plus missing points is the crash signature: the
	// re-fanned shards count as resumed. (Wipe the store but keep the
	// journal, as a coordinator that died before any point landed would.)
	st2, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.JournalShards(rec); err != nil {
		t.Fatal(err)
	}
	p2 := NewPool([]string{ts.URL}, nil)
	p2.Prefill(context.Background(), study, []byte(`{}`), st2, "job-42")
	s := p2.Snapshot()
	if s.ResumedShards == 0 {
		t.Fatalf("resume not counted: %+v", s)
	}
	if s.RemoteHits == 0 {
		t.Fatalf("resumed fan-out merged nothing: %+v", s)
	}
}
