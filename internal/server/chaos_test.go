package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/store"
)

// The seeded chaos soak: a deterministic fault schedule — latency
// injection, in-flight partitions, torn response bodies, and whole-host
// kill/revive windows — driven into every coordinator→worker request by a
// seeded RNG. Under every schedule the resilience layer (breakers, the
// owner walk with its hedges, local fallback) must keep study output
// byte-identical to the sequential batch CLI, and once the chaos lifts,
// anti-entropy must converge every store in the fleet to the same
// point-key digest.

// chaosTransport injects faults into a RoundTripper from a seeded
// schedule. All randomness is drawn under the mutex so one seed yields
// one draw sequence; sleeps happen outside it.
type chaosTransport struct {
	base http.RoundTripper

	mu        sync.Mutex
	rng       *rand.Rand
	reqs      int
	downUntil map[string]int // host → request count at which it revives

	calm atomic.Bool // true: pass everything through untouched
}

func newChaosTransport(seed int64) *chaosTransport {
	return &chaosTransport{
		base:      http.DefaultTransport,
		rng:       rand.New(rand.NewSource(seed)),
		downUntil: map[string]int{},
	}
}

func (c *chaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if c.calm.Load() {
		return c.base.RoundTrip(req)
	}
	c.mu.Lock()
	c.reqs++
	n, host := c.reqs, req.URL.Host
	if until, ok := c.downUntil[host]; ok && n < until {
		c.mu.Unlock()
		return nil, fmt.Errorf("chaos: %s is down until request %d", host, until)
	}
	var (
		delay time.Duration
		torn  bool
	)
	roll := c.rng.Float64()
	switch {
	case roll < 0.08: // kill the host; it revives on its own a few requests later
		c.downUntil[host] = n + 2 + c.rng.Intn(6)
		c.mu.Unlock()
		return nil, fmt.Errorf("chaos: killed %s", host)
	case roll < 0.20: // partition this request in flight
		c.mu.Unlock()
		return nil, fmt.Errorf("chaos: partition")
	case roll < 0.32: // tear the response body in half
		torn = true
	case roll < 0.60: // straggle
		delay = time.Duration(1+c.rng.Intn(25)) * time.Millisecond
	}
	c.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	resp, err := c.base.RoundTrip(req)
	if err != nil || !torn {
		return resp, err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	cut := len(body) / 2
	resp.Body = io.NopCloser(bytes.NewReader(body[:cut]))
	resp.ContentLength = int64(cut)
	return resp, nil
}

// chaosSeeds honours the CI matrix override: NVMX_CHAOS_SEED pins one
// schedule, the default soaks three.
func chaosSeeds(t *testing.T) []int64 {
	if v := os.Getenv("NVMX_CHAOS_SEED"); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("NVMX_CHAOS_SEED=%q: %v", v, err)
		}
		return []int64{seed}
	}
	return []int64{1, 2, 3}
}

func digestOf(t *testing.T, ts *httptest.Server) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/store/digest")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var d struct {
		Points int    `json:"points"`
		Digest string `json:"digest"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d.Points, d.Digest
}

func TestChaosSoakByteIdenticalAndConvergent(t *testing.T) {
	cfg := testConfig("chaos-soak", "STT", 1<<20)
	want := batchOutput(t, cfg, "json")

	var faultsSeen int64
	for _, seed := range chaosSeeds(t) {
		for _, n := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, n), func(t *testing.T) {
				chaos := newChaosTransport(seed)

				var urls []string
				var workerTSs []*httptest.Server
				for i := 0; i < n; i++ {
					wst, err := store.Open("")
					if err != nil {
						t.Fatal(err)
					}
					wsrv := New(Options{MaxConcurrentStudies: 2, StudyWorkers: 2, Store: wst})
					wts := httptest.NewServer(wsrv.Handler())
					t.Cleanup(func() { wts.Close(); wsrv.Close() })
					urls = append(urls, wts.URL)
					workerTSs = append(workerTSs, wts)
				}

				cst, err := store.Open("")
				if err != nil {
					t.Fatal(err)
				}
				srv := New(Options{
					MaxConcurrentStudies: 2, StudyWorkers: 2,
					Store: cst, Workers: urls,
					Fabric: fabric.Options{
						Client:            &http.Client{Transport: chaos, Timeout: 30 * time.Second},
						HedgeAfter:        20 * time.Millisecond,
						BreakerBackoff:    5 * time.Millisecond,
						BreakerMaxBackoff: 50 * time.Millisecond,
						BreakerSeed:       seed,
						Rehandshake:       10 * time.Millisecond,
						AntiEntropy:       15 * time.Millisecond,
					},
				})
				ts := httptest.NewServer(srv.Handler())
				t.Cleanup(func() { ts.Close(); srv.Close() })

				// The soak itself: the study must come out byte-identical
				// however the schedule mangles the fleet.
				code, body := post(t, ts, cfg, "json")
				if code != http.StatusOK {
					t.Fatalf("chaos study: status %d: %s", code, body)
				}
				if !bytes.Equal(body, want) {
					t.Fatalf("seed %d, %d workers: output diverged from the batch CLI", seed, n)
				}

				f := srv.Snapshot().Fabric
				faultsSeen += f.BreakerTrips + f.Hedges + f.Resharded + f.RemoteMisses

				// Chaos lifts; the background re-handshake revives dead
				// breakers and anti-entropy drives every store in the fleet
				// to the coordinator's digest.
				chaos.calm.Store(true)
				wantPoints, wantDigest := digestOf(t, ts)
				if wantPoints == 0 {
					t.Fatal("coordinator store empty after a completed study")
				}
				deadline := time.Now().Add(30 * time.Second)
				for _, wts := range workerTSs {
					for {
						points, digest := digestOf(t, wts)
						if points == wantPoints && digest == wantDigest {
							break
						}
						if time.Now().After(deadline) {
							t.Fatalf("seed %d: worker %s never converged: %d points (digest %s), want %d (%s)",
								seed, wts.URL, points, digest, wantPoints, wantDigest)
						}
						time.Sleep(5 * time.Millisecond)
					}
				}
			})
		}
	}
	// Across three seeds and nine fleets the schedules must actually have
	// bitten — a soak that never injected an observable fault tests nothing.
	if faultsSeen == 0 {
		t.Fatal("no breaker trips, hedges, reshards, or local fallbacks across the whole soak")
	}
}

// TestAntiEntropyConvergesAfterPartition is the targeted recovery path:
// a worker partitioned for a whole study misses every point; healing the
// partition lets the re-handshake ticker revive it and anti-entropy push
// the full point set over, converging the two stores to one digest —
// with the pass durably recorded and the store left fsck-clean.
func TestAntiEntropyConvergesAfterPartition(t *testing.T) {
	wdir, cdir := t.TempDir(), t.TempDir()
	wst, err := store.Open(wdir)
	if err != nil {
		t.Fatal(err)
	}
	wsrv := New(Options{MaxConcurrentStudies: 2, StudyWorkers: 2, Store: wst})
	wts := httptest.NewServer(wsrv.Handler())
	t.Cleanup(func() { wts.Close(); wsrv.Close() })

	// A hard partition: every request to the worker fails until healed.
	// Down before the coordinator exists, so not even the first handshake
	// gets through.
	partitioned := &partitionTransport{}
	partitioned.down.Store(true)

	cst, err := store.Open(cdir)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{
		MaxConcurrentStudies: 2, StudyWorkers: 2,
		Store: cst, Workers: []string{wts.URL},
		Fabric: fabric.Options{
			Client:            &http.Client{Transport: partitioned, Timeout: 30 * time.Second},
			BreakerBackoff:    5 * time.Millisecond,
			BreakerMaxBackoff: 50 * time.Millisecond,
			Rehandshake:       10 * time.Millisecond,
			AntiEntropy:       15 * time.Millisecond,
		},
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	cfg := testConfig("partition-recovery", "RRAM", 1<<20)
	want := batchOutput(t, cfg, "json")
	code, body := post(t, ts, cfg, "json")
	if code != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("partitioned study: status %d, matches batch: %v", code, bytes.Equal(body, want))
	}
	f := srv.Snapshot().Fabric
	if f.RemoteMisses == 0 || f.Live != 0 {
		t.Fatalf("partitioned fleet stats %+v, want all points local and 0 live", f)
	}
	_, workerDigest := digestOf(t, wts)
	_, coordDigest := digestOf(t, ts)
	if workerDigest == coordDigest {
		t.Fatal("partitioned worker already matches the coordinator digest")
	}

	// Heal. The ticker re-handshakes the worker back in, anti-entropy
	// pushes the study's points over, and the digests meet.
	partitioned.down.Store(false)
	wantPoints, wantDigest := digestOf(t, ts)
	deadline := time.Now().Add(30 * time.Second)
	for {
		points, digest := digestOf(t, wts)
		if points == wantPoints && digest == wantDigest {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never converged: %d points (%s), want %d (%s)", points, digest, wantPoints, wantDigest)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The digest can converge an instant before the pass finishes bumping
	// its counters, so poll rather than assert.
	deadline = time.Now().Add(5 * time.Second)
	for {
		f = srv.Snapshot().Fabric
		if f.BreakerResets > 0 && f.AntiEntropyRuns > 0 && f.AntiEntropyPushed > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("convergence without recovery counters: %+v", f)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The pass left a durable, fsck-visible audit record on the
	// coordinator's store.
	deadline = time.Now().Add(5 * time.Second)
	for len(cst.SyncRecords()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no sync record after a counted anti-entropy pass")
		}
		time.Sleep(5 * time.Millisecond)
	}
	rec := cst.SyncRecords()[0]
	if rec.Peer != wts.URL || rec.Pushed == 0 {
		t.Fatalf("sync record %+v, want pushes to %s", rec, wts.URL)
	}
	srv.Close() // quiesce the tickers before fsck walks the directory
	rep, err := store.Fsck(cdir, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.SyncOK == 0 {
		t.Fatalf("coordinator store not clean after recovery: %+v", rep)
	}
}

// partitionTransport fails every request while down; a healed partition
// passes through untouched.
type partitionTransport struct {
	down atomic.Bool
}

func (p *partitionTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if p.down.Load() {
		return nil, fmt.Errorf("chaos: partitioned")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestStoreDiffAndDigestEndpoints pins the anti-entropy wire contract:
// the digest probe and the diff answer agree with each other, foreign
// protocol generations are refused with the stable version_mismatch
// code, garbage is store_corrupt, and store-less servers answer 503
// store_unavailable.
func TestStoreDiffAndDigestEndpoints(t *testing.T) {
	_, ts := newStoreServer(t, t.TempDir())
	cfg := testConfig("diff-endpoint", "STT", 1<<20)
	if code, body := post(t, ts, cfg, "json"); code != http.StatusOK {
		t.Fatalf("seed study: status %d: %s", code, body)
	}

	wantPoints, wantDigest := digestOf(t, ts)
	if wantPoints == 0 || wantDigest == "" {
		t.Fatalf("digest after a study: %d points, %q", wantPoints, wantDigest)
	}

	diff := func(req store.DiffRequest) (int, []byte) {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/store/diff", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	// An empty requester lacks everything this store holds.
	code, body := diff(store.DiffRequest{Protocol: store.ProtocolVersion, Addrs: []string{}})
	if code != http.StatusOK {
		t.Fatalf("diff: status %d: %s", code, body)
	}
	var d store.DiffResponse
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Missing) != 0 || len(d.Extra) != wantPoints {
		t.Fatalf("empty-set diff = %d missing / %d extra, want 0 / %d", len(d.Missing), len(d.Extra), wantPoints)
	}
	if d.Points != wantPoints || d.Digest != wantDigest {
		t.Fatalf("diff self-report (%d, %s) disagrees with /v1/store/digest (%d, %s)",
			d.Points, d.Digest, wantPoints, wantDigest)
	}

	// A requester holding exactly this store's set diffs to nothing, and
	// the response marshals empty slices as [], never null.
	code, body = diff(store.DiffRequest{Protocol: store.ProtocolVersion, Addrs: d.Extra})
	if code != http.StatusOK {
		t.Fatalf("converged diff: status %d: %s", code, body)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	if string(raw["missing"]) != "[]" || string(raw["extra"]) != "[]" {
		t.Fatalf("converged diff body %s, want empty [] arrays", body)
	}

	code, body = diff(store.DiffRequest{Protocol: "v0", Addrs: []string{}})
	if code != http.StatusBadRequest || errCode(t, body) != "version_mismatch" {
		t.Fatalf("foreign-protocol diff: status %d code %q", code, errCode(t, body))
	}

	resp, err := http.Post(ts.URL+"/v1/store/diff", "application/json", bytes.NewReader([]byte("not json")))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || errCode(t, body) != "store_corrupt" {
		t.Fatalf("garbage diff: status %d code %q", resp.StatusCode, errCode(t, body))
	}

	// Store-less servers refuse both endpoints with the stable code.
	_, tsNoStore := newWorker(t)
	for _, probe := range []func() (*http.Response, error){
		func() (*http.Response, error) {
			return http.Post(tsNoStore.URL+"/v1/store/diff", "application/json", bytes.NewReader([]byte(`{}`)))
		},
		func() (*http.Response, error) { return http.Get(tsNoStore.URL + "/v1/store/digest") },
	} {
		resp, err := probe()
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || errCode(t, body) != "store_unavailable" {
			t.Fatalf("store-less diff/digest: status %d code %q", resp.StatusCode, errCode(t, body))
		}
	}
}
