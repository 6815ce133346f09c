package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("cell-%d\n%d,%d", i%7, 1<<uint(20+i%4), 64)
	}
	return out
}

func TestFabricRingIsDeterministic(t *testing.T) {
	// Construction order must not matter: the ring sorts its points, so
	// the same worker set always yields the same assignment — what shard
	// resume and the no-double-characterization guarantee rely on.
	a := newRing([]string{"http://w1", "http://w2", "http://w3"})
	b := newRing([]string{"http://w3", "http://w1", "http://w2"})
	for _, k := range keys(500) {
		if a.owner(k) != b.owner(k) {
			t.Fatalf("key %q: owner differs across construction orders (%s vs %s)",
				k, a.owner(k), b.owner(k))
		}
	}
}

func TestFabricRingSpreadsLoad(t *testing.T) {
	r := newRing([]string{"http://w1", "http://w2", "http://w3"})
	counts := map[string]int{}
	for _, k := range keys(3000) {
		counts[r.owner(k)]++
	}
	for url, n := range counts {
		if n == 0 {
			t.Fatalf("worker %s owns nothing", url)
		}
	}
	if len(counts) != 3 {
		t.Fatalf("only %d of 3 workers own keys: %v", len(counts), counts)
	}
}

func TestFabricRingConsistentUnderWorkerLoss(t *testing.T) {
	// Consistent hashing's defining property: removing one worker moves
	// only that worker's keys. Keys owned by a survivor must not migrate,
	// or a shrunk fleet would re-characterize configs it already has.
	full := newRing([]string{"http://w1", "http://w2", "http://w3"})
	less := newRing([]string{"http://w1", "http://w2"})
	for _, k := range keys(1000) {
		was := full.owner(k)
		if was == "http://w3" {
			continue // the dead worker's keys may land anywhere
		}
		if now := less.owner(k); now != was {
			t.Fatalf("key %q migrated %s -> %s despite its owner surviving", k, was, now)
		}
	}
}

func TestFabricRingOwnersWalkTheSurvivorRings(t *testing.T) {
	// A shard's owner list is every worker once, its owner first, and each
	// later entry is where the key would re-hash if every worker before it
	// left the ring — so walking the list reshards exactly as consistent
	// hashing over the survivors would.
	urls := []string{"http://w1", "http://w2", "http://w3", "http://w4"}
	full := newRing(urls)
	for _, k := range keys(200) {
		owners := full.owners(k)
		if len(owners) != len(urls) {
			t.Fatalf("key %q: owners %v, want every worker once", k, owners)
		}
		for i, u := range owners {
			survivors := newRing(owners[i:])
			if got := survivors.owner(k); got != u {
				t.Fatalf("key %q: owners[%d] = %s, but the ring without %v assigns %s", k, i, u, owners[:i], got)
			}
		}
	}
}

func TestFabricFnv64aReferenceVectors(t *testing.T) {
	// Published FNV-1a 64-bit test vectors.
	cases := map[string]uint64{
		"":    14695981039346656037,
		"a":   0xaf63dc4c8601ec8c,
		"foo": 0xdcb27518fed9d577,
	}
	for in, want := range cases {
		if got := fnv64a(in); got != want {
			t.Errorf("fnv64a(%q) = %#x, want %#x", in, got, want)
		}
	}
}

func versionHandler(v store.VersionInfo) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/version" {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(v)
	})
}

func TestFabricPoolHandshakeGatesTheRing(t *testing.T) {
	good := httptest.NewServer(versionHandler(store.VersionInfo{
		Protocol:  store.ProtocolVersion,
		PointKey:  core.PointKeyVersion,
		ShardWire: store.ShardWireVersion,
	}))
	defer good.Close()
	stale := httptest.NewServer(versionHandler(store.VersionInfo{
		Protocol:  "v0",
		PointKey:  core.PointKeyVersion,
		ShardWire: store.ShardWireVersion,
	}))
	defer stale.Close()

	p := NewPoolOptions([]string{good.URL, stale.URL, "http://127.0.0.1:1"}, Options{})
	if p.Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", p.Workers())
	}
	if p.Live() != 0 {
		t.Fatal("workers must start unproven")
	}
	p.refresh(context.Background())
	if p.Live() != 1 {
		t.Fatalf("Live() = %d after refresh, want 1 (only the protocol-compatible worker)", p.Live())
	}

	// A tripped worker leaves the ring and, its retry window already past,
	// rejoins on the next refresh.
	p.find(good.URL).bk.onFailure(time.Time{})
	if p.Live() != 0 {
		t.Fatalf("Live() = %d after a trip, want 0", p.Live())
	}
	p.refresh(context.Background())
	if p.Live() != 1 {
		t.Fatalf("Live() = %d after re-handshake, want 1", p.Live())
	}
}

func TestFabricPrefillWithoutStoreOrWorkersIsANoOp(t *testing.T) {
	p := NewPoolOptions(nil, Options{})
	p.Prefill(context.Background(), &core.Study{}, []byte("{}"), nil, "")
	if s := p.Snapshot(); s.Shards != 0 || s.RemoteHits != 0 || s.RemoteMisses != 0 {
		t.Fatalf("no-op prefill moved counters: %+v", s)
	}
}
