package fabric

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/nvsim"
	"repro/internal/store"
	"repro/internal/traffic"
)

// localReference computes the prefill study single-process and returns the
// store to compare fabric results against.
func localReference(t *testing.T) *store.Store {
	t.Helper()
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
	return local
}

// assertMatchesLocal checks what a prefill handed study against the local
// reference: the prefill itself stores nothing, and the study's run over
// st then characterizes nothing — every config came from a worker — and
// writes every point equal to the reference's.
func assertMatchesLocal(t *testing.T, study *core.Study, st *store.Store, local *store.Store) {
	t.Helper()
	if st.Len() != 0 {
		t.Fatalf("prefill stored %d point(s), want 0: the run stores each point", st.Len())
	}
	nvsim.ResetMemo()
	study.Cache = st
	if _, err := study.Run(); err != nil {
		t.Fatal(err)
	}
	if _, misses := nvsim.MemoStats(); misses != 0 {
		t.Fatalf("run over the prefill characterized %d config(s) locally, want 0", misses)
	}
	specs, err := study.Space()
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		key := study.PointKey(specs[i])
		want, ok := local.Get(key)
		if !ok {
			t.Fatalf("reference run is missing point %d", i)
		}
		got, ok := st.Get(key)
		if !ok {
			t.Fatalf("point %d missing after the run", i)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("point %d differs between fabric and local computation", i)
		}
	}
}

// A fleet answering well under the hedge threshold never hedges: the
// second copy is pure waste when the primary is healthy.
func TestFabricHedgeDoesNotFireUnderThreshold(t *testing.T) {
	nvsim.ResetMemo()
	ts1 := httptest.NewServer(newShardWorker(t))
	defer ts1.Close()
	ts2 := httptest.NewServer(newShardWorker(t))
	defer ts2.Close()

	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPoolOptions([]string{ts1.URL, ts2.URL}, Options{HedgeAfter: 5 * time.Second})
	p.Prefill(context.Background(), prefillStudy(), []byte(`{}`), st, "")

	s := p.Snapshot()
	if s.Hedges != 0 || s.HedgesWon != 0 || s.HedgesLost != 0 {
		t.Fatalf("fast workers still hedged: %+v", s)
	}
	if s.RemoteMisses != 0 || s.Live != 2 {
		t.Fatalf("counters after fast fan-out: %+v, want 0 misses / 2 live", s)
	}
}

// The slow-worker path: a worker that is alive but straggling (latency,
// not death) gets hedged, the fast copy wins, and the merge stays
// byte-identical to a local run. The cancelled straggler must not trip
// its breaker — slowness is not failure.
func TestFabricHedgeBeatsSlowShardAndMergesIdentically(t *testing.T) {
	nvsim.ResetMemo()
	// Whichever worker receives the fleet's first shard request straggles
	// on it (and only it): its hedge lands on the other, fast worker. Keyed
	// to the request rather than the worker so the test holds however the
	// ring spreads the study.
	var slow atomic.Int32
	wrap := func(id int32, sw *shardWorker) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/shard" && slow.CompareAndSwap(0, id) {
				time.Sleep(250 * time.Millisecond)
			}
			sw.ServeHTTP(w, r)
		})
	}
	ts1 := httptest.NewServer(wrap(1, newShardWorker(t)))
	defer ts1.Close()
	ts2 := httptest.NewServer(wrap(2, newShardWorker(t)))
	defer ts2.Close()

	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	study := prefillStudy()
	p := NewPoolOptions([]string{ts1.URL, ts2.URL}, Options{HedgeAfter: 15 * time.Millisecond})
	start := time.Now()
	p.Prefill(context.Background(), study, []byte(`{}`), st, "")
	if d := time.Since(start); d >= 250*time.Millisecond {
		t.Fatalf("Prefill took %v: the hedge did not beat the 250ms straggler", d)
	}

	s := p.Snapshot()
	if s.Hedges == 0 {
		t.Fatalf("straggling shard was never hedged: %+v", s)
	}
	if s.HedgesWon == 0 {
		t.Fatalf("fast hedge copy never beat the straggler: %+v", s)
	}
	if s.RemoteMisses != 0 {
		t.Fatalf("hedging lost points to local fallback: %+v", s)
	}
	if s.BreakerTrips != 0 || s.Live != 2 {
		t.Fatalf("a slow (not dead) worker tripped a breaker: %+v", s)
	}
	assertMatchesLocal(t, study, st, localReference(t))
}

// A failed shard's points re-hash across the surviving ring instead of
// falling straight back to local compute.
func TestFabricReshardMovesFailedShardToSurvivor(t *testing.T) {
	nvsim.ResetMemo()
	// Whichever worker receives the fleet's first shard request fails every
	// shard from then on; the other worker stays healthy. Exactly one
	// worker fails, however the ring assigned the study.
	var failing atomic.Int32
	wrap := func(id int32, sw *shardWorker) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/shard" {
				failing.CompareAndSwap(0, id)
				if failing.Load() == id {
					http.Error(w, "induced shard failure", http.StatusInternalServerError)
					return
				}
			}
			sw.ServeHTTP(w, r)
		})
	}
	ts1 := httptest.NewServer(wrap(1, newShardWorker(t)))
	defer ts1.Close()
	ts2 := httptest.NewServer(wrap(2, newShardWorker(t)))
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
	p.Prefill(context.Background(), study, []byte(`{}`), st, "")

	s := p.Snapshot()
	if s.RemoteHits != int64(len(specs)) || s.RemoteMisses != 0 {
		t.Fatalf("counters = %+v, want the whole grid (%d) remote despite one failing worker", s, len(specs))
	}
	if s.Resharded == 0 || s.ShardRetries == 0 {
		t.Fatalf("failed shard never resharded: %+v", s)
	}
	if s.BreakerTrips == 0 || s.Live != 1 {
		t.Fatalf("failing worker kept a closed breaker: %+v", s)
	}
	assertMatchesLocal(t, study, st, localReference(t))
}

// A one-shard study walks the whole ring: with the first two owners
// failing, the shard reaches the third instead of falling back to local
// compute.
func TestFabricRouteWalksWholeRing(t *testing.T) {
	nvsim.ResetMemo()
	oneKey := func() *core.Study {
		s := core.NewStudy("fabric-route-test")
		s.AddTentpole(cell.STT, cell.Optimistic)
		s.AddCapacity(1 << 20)
		s.AddTarget(nvsim.OptReadEDP, nvsim.OptArea)
		s.AddPattern(traffic.Pattern{Name: "p", ReadsPerSec: 1e7, WritesPerSec: 1e5})
		return s
	}
	// The first two workers to receive a shard request fail every shard
	// from then on, however the ring orders the owners.
	var (
		mu      sync.Mutex
		failing = map[int]bool{}
	)
	wrap := func(id int, sw *shardWorker) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/shard" {
				mu.Lock()
				if len(failing) < 2 {
					failing[id] = true
				}
				fail := failing[id]
				mu.Unlock()
				if fail {
					http.Error(w, "induced shard failure", http.StatusInternalServerError)
					return
				}
			}
			sw.ServeHTTP(w, r)
		})
	}
	var urls []string
	for id := 1; id <= 3; id++ {
		ts := httptest.NewServer(wrap(id, newShardWorkerFor(t, oneKey)))
		defer ts.Close()
		urls = append(urls, ts.URL)
	}

	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	study := oneKey()
	specs, err := study.Space()
	if err != nil {
		t.Fatal(err)
	}
	p := NewPoolOptions(urls, Options{})
	p.Prefill(context.Background(), study, []byte(`{}`), st, "")

	s := p.Snapshot()
	if s.RemoteMisses != 0 || s.RemoteHits != int64(len(specs)) {
		t.Fatalf("counters = %+v, want the whole grid (%d) remote after two failing owners", s, len(specs))
	}
	if s.ShardRetries != 2 {
		t.Fatalf("ShardRetries = %d, want 2 (one per failed owner): %+v", s.ShardRetries, s)
	}
}

// The Start ticker re-handshakes open breakers between prefills, so a
// revived worker rejoins the ring with no coordinator restart and no new
// study to trigger an inline refresh.
func TestFabricRehandshakeTickerRevivesWorker(t *testing.T) {
	var up atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !up.Load() {
			http.Error(w, "rebooting", http.StatusServiceUnavailable)
			return
		}
		versionHandler(store.VersionInfo{
			Protocol:  store.ProtocolVersion,
			PointKey:  core.PointKeyVersion,
			ShardWire: store.ShardWireVersion,
		}).ServeHTTP(w, r)
	}))
	defer ts.Close()

	p := NewPoolOptions([]string{ts.URL}, Options{
		Rehandshake:       5 * time.Millisecond,
		BreakerBackoff:    time.Millisecond,
		BreakerMaxBackoff: 4 * time.Millisecond,
	})
	p.Start(nil)
	defer p.Stop()

	deadline := time.Now().Add(2 * time.Second)
	for p.Snapshot().BreakerTrips == 0 {
		if time.Now().After(deadline) {
			t.Fatal("ticker never probed the down worker")
		}
		time.Sleep(time.Millisecond)
	}
	if p.Live() != 0 {
		t.Fatal("down worker counted as live")
	}

	up.Store(true)
	for p.Live() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("revived worker never rejoined the ring: %+v", p.Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
	if p.Snapshot().BreakerResets == 0 {
		t.Fatalf("revival not counted as a breaker reset: %+v", p.Snapshot())
	}
}
