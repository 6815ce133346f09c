package server

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
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
// byte-identical to the sequential batch CLI.

// chaosTransport injects faults into a RoundTripper from a seeded
// schedule. All randomness is drawn under the mutex so one seed yields
// one draw sequence; sleeps happen outside it.
type chaosTransport struct {
	base http.RoundTripper

	mu        sync.Mutex
	rng       *rand.Rand
	reqs      int
	downUntil map[string]int // host → request count at which it revives
}

func newChaosTransport(seed int64) *chaosTransport {
	return &chaosTransport{
		base:      http.DefaultTransport,
		rng:       rand.New(rand.NewSource(seed)),
		downUntil: map[string]int{},
	}
}

func (c *chaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
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

func TestChaosSoakByteIdentical(t *testing.T) {
	cfg := testConfig("chaos-soak", "STT", 1<<20)
	want := batchOutput(t, cfg, "json")

	var faultsSeen int64
	for _, seed := range chaosSeeds(t) {
		for _, n := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, n), func(t *testing.T) {
				chaos := newChaosTransport(seed)

				var urls []string
				for i := 0; i < n; i++ {
					wst, err := store.Open("")
					if err != nil {
						t.Fatal(err)
					}
					wsrv := New(Options{MaxConcurrentStudies: 2, StudyWorkers: 2, Store: wst})
					wts := httptest.NewServer(wsrv.Handler())
					t.Cleanup(func() { wts.Close(); wsrv.Close() })
					urls = append(urls, wts.URL)
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

			})
		}
	}
	// Across three seeds and nine fleets the schedules must actually have
	// bitten — a soak that never injected an observable fault tests nothing.
	if faultsSeen == 0 {
		t.Fatal("no breaker trips, hedges, reshards, or local fallbacks across the whole soak")
	}
}
