package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/nvsim"
	"repro/internal/store"
	"repro/internal/sweep"
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
// handshake with this binary's versions and characterizes each shard's
// configs on its own engine, as a worker server does, without routing
// through the HTTP server package (which would be an import cycle).
type shardWorker struct {
	build  func() *core.Study
	engine *nvsim.Engine
	served atomic.Int64 // hedged shards hit one worker concurrently
	// mangle, when set, rewrites each shipped entry: a worker that lies.
	mangle func(*core.Characterization)
}

func newShardWorker() *shardWorker { return newShardWorkerFor(prefillStudy) }

// newShardWorkerFor is newShardWorker serving the study build returns.
func newShardWorkerFor(build func() *core.Study) *shardWorker {
	return &shardWorker{build: build, engine: nvsim.NewEngine()}
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
		s := sw.build()
		s.Workers = 1
		s.Engine = sw.engine
		cs, err := s.Characterize(r.Context(), req.Indices)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if sw.mangle != nil {
			for i := range cs {
				sw.mangle(&cs[i])
			}
		}
		data, err := store.EncodeShard(cs)
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

// runJSON runs a study single-threaded on a fresh engine (s.Engine
// afterwards) over st (a fresh memory store when nil) and returns its JSON
// bytes and the store.
func runJSON(t *testing.T, s *core.Study, st *store.Store) ([]byte, *store.Store) {
	t.Helper()
	if st == nil {
		var err error
		if st, err = store.Open(""); err != nil {
			t.Fatal(err)
		}
	}
	s.Cache = st
	s.Workers = 1
	s.Engine = nvsim.NewEngine()
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sweep.WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), st
}

func TestFabricPrefillFansOutAndMerges(t *testing.T) {
	w1 := newShardWorker()
	ts1 := httptest.NewServer(w1)
	defer ts1.Close()
	w2 := newShardWorker()
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

	p := NewPoolOptions([]string{ts1.URL, ts2.URL}, Options{})
	p.Prefill(context.Background(), study, []byte(`{"synthetic":"cfg"}`), st, "")

	// The prefill hands winners to the study and stores nothing: the
	// study's run writes each point, once.
	if st.Len() != 0 {
		t.Fatalf("prefill stored %d point(s), want 0", st.Len())
	}
	s := p.Snapshot()
	if s.RemoteHits != int64(len(specs)) || s.RemoteMisses != 0 {
		t.Fatalf("counters after full fan-out: %+v, want %d hits / 0 misses", s, len(specs))
	}
	if s.Shards == 0 || s.Live != 2 {
		t.Fatalf("counters after full fan-out: %+v, want >0 shards and 2 live", s)
	}

	// The workers' engines did the study's engine work, each config once.
	if m := w1.engine.Stats().MemoMisses + w2.engine.Stats().MemoMisses; m != int64(len(specs)) {
		t.Fatalf("workers characterized %d config(s), want %d", m, len(specs))
	}
	// The run over the shipped winners does no engine work and must equal
	// a local computation byte for byte: the fabric's whole promise is that
	// distribution never changes results.
	got, _ := runJSON(t, study, st)
	if es := study.Engine.Stats(); es.MemoHits != 0 || es.MemoMisses != 0 {
		t.Fatalf("run over shipped winners touched the memo: %d hits / %d misses", es.MemoHits, es.MemoMisses)
	}
	if st.Len() != len(specs) {
		t.Fatalf("run stored %d point(s), want %d", st.Len(), len(specs))
	}
	want, local := runJSON(t, prefillStudy(), nil)
	if !bytes.Equal(got, want) {
		t.Fatal("study over shipped winners differs from a local run")
	}
	for i := range specs {
		key := study.PointKey(specs[i])
		w, _ := local.Get(key)
		g, _ := st.Get(key)
		if !reflect.DeepEqual(g, w) {
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
			p := NewPoolOptions([]string{ts.URL}, Options{})
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

	p := NewPoolOptions([]string{ts.URL, ts.URL}, Options{})
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

// TestFabricPrefillRejectsMislabeledPoints: shipped winners are checked,
// not trusted. A worker whose entries name another cell or capacity, list
// the targets out of order, come up short, or break the study's area
// budget contributes nothing: every entry is ignored, counted as a remote
// miss, and characterized locally, and the study's bytes equal a local
// run's.
func TestFabricPrefillRejectsMislabeledPoints(t *testing.T) {
	// An area budget every real winner meets, so a mangled one can break it.
	build := func() *core.Study {
		s := prefillStudy()
		s.MaxAreaMM2 = 1e3
		return s
	}
	other := cell.MustTentpole(cell.PCM, cell.Optimistic)
	cases := map[string]func(c *core.Characterization){
		"another cell": func(c *core.Characterization) { c.Arrays[0].Cell = other },
		"another capacity": func(c *core.Characterization) {
			for i := range c.Arrays {
				c.Arrays[i].CapacityBytes *= 2
			}
		},
		"targets out of order": func(c *core.Characterization) { c.Arrays[0], c.Arrays[1] = c.Arrays[1], c.Arrays[0] },
		"short slice":          func(c *core.Characterization) { c.Arrays = c.Arrays[:1] },
		"over the area budget": func(c *core.Characterization) { c.Arrays[1].AreaMM2 = 2e3 },
	}
	want, _ := runJSON(t, build(), nil)
	for name, mangle := range cases {
		t.Run(name, func(t *testing.T) {
			sw := newShardWorkerFor(build)
			sw.mangle = mangle
			ts := httptest.NewServer(sw)
			defer ts.Close()

			st, err := store.Open("")
			if err != nil {
				t.Fatal(err)
			}
			study := build()
			specs, err := study.Space()
			if err != nil {
				t.Fatal(err)
			}
			p := NewPoolOptions([]string{ts.URL}, Options{})
			p.Prefill(context.Background(), study, []byte(`{}`), st, "")
			if sw.served.Load() == 0 {
				t.Fatal("the worker never served a shard")
			}
			s := p.Snapshot()
			if s.RemoteHits != 0 || s.RemoteMisses != int64(len(specs)) {
				t.Fatalf("counters = %+v, want 0 hits / %d misses", s, len(specs))
			}
			if s.Live != 1 {
				t.Fatalf("a worker that answered was ejected: %+v", s)
			}
			// Every config was characterized locally: each one is a memo miss.
			got, _ := runJSON(t, study, nil)
			if misses := study.Engine.Stats().MemoMisses; misses != int64(len(specs)) {
				t.Fatalf("local characterizations = %d, want %d", misses, len(specs))
			}
			if !bytes.Equal(got, want) {
				t.Fatal("study bytes differ from a local run")
			}
		})
	}
}

// TestFabricPrefillShipsFailedConfigs: a config that fails under the
// study's constraints is shipped as its errors, so the coordinator renders
// its skip lines without walking the organizations the worker already
// walked. Here a read-latency budget rules out both RRAM configs in the
// engine (the area prefilter cannot see it).
func TestFabricPrefillShipsFailedConfigs(t *testing.T) {
	build := func() *core.Study {
		s := prefillStudy()
		s.MaxReadLatencyNS = 5
		return s
	}
	want, _ := runJSON(t, build(), nil)
	if !bytes.Contains(want, []byte("constraints exclude")) {
		t.Fatalf("local run has no constraint skip lines: %s", want)
	}
	var urls []string
	for range 2 {
		ts := httptest.NewServer(newShardWorkerFor(build))
		defer ts.Close()
		urls = append(urls, ts.URL)
	}

	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	study := build()
	specs, err := study.Space()
	if err != nil {
		t.Fatal(err)
	}
	p := NewPoolOptions(urls, Options{})
	p.Prefill(context.Background(), study, []byte(`{}`), st, "")
	if s := p.Snapshot(); s.RemoteHits != int64(len(specs)) || s.RemoteMisses != 0 {
		t.Fatalf("counters = %+v, want %d hits / 0 misses", s, len(specs))
	}

	got, _ := runJSON(t, study, st)
	if es := study.Engine.Stats(); es.MemoHits != 0 || es.MemoMisses != 0 {
		t.Fatalf("run over shipped outcomes touched the memo: %d hits / %d misses", es.MemoHits, es.MemoMisses)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("study over shipped outcomes differs from a local run")
	}
}

// TestFabricPrefillDeadlineSparesWorkers: the coordinator's own deadline
// or cancellation is not a worker failure. A prefill that gives up before
// its handshake or while its shards are in flight trips no breaker,
// counts no miss, and leaves the fleet serving the next study.
func TestFabricPrefillDeadlineSparesWorkers(t *testing.T) {
	sw := newShardWorker()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/shard" {
			time.Sleep(200 * time.Millisecond)
		}
		sw.ServeHTTP(w, r)
	}))
	defer ts.Close()
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPoolOptions([]string{ts.URL}, Options{})
	spared := func(when string) {
		t.Helper()
		if s := p.Snapshot(); s.BreakerTrips != 0 || s.RemoteMisses != 0 || s.RemoteHits != 0 {
			t.Fatalf("%s: %+v, want no trips, misses or hits", when, s)
		}
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	p.Prefill(canceled, prefillStudy(), []byte(`{}`), st, "")
	spared("canceled before the handshake")

	short, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	p.Prefill(short, prefillStudy(), []byte(`{}`), st, "")
	cancel()
	spared("deadline while the shard ran")
	if p.Live() != 1 {
		t.Fatalf("Live() = %d after the coordinator's deadline, want 1", p.Live())
	}

	study := prefillStudy()
	specs, err := study.Space()
	if err != nil {
		t.Fatal(err)
	}
	p.Prefill(context.Background(), study, []byte(`{}`), st, "")
	if s := p.Snapshot(); s.RemoteHits != int64(len(specs)) || s.BreakerTrips != 0 {
		t.Fatalf("next study: %+v, want %d hits and no trips", s, len(specs))
	}
}
