// Package fabric is the distributed-study coordinator: it fans the
// characterization configs of a study's cold grid points out across a
// fleet of worker `nvmexplorer serve` processes, which ship back per-target
// winners (or, for a failed config, errors), not points. The coordinator
// checks them and hands them to the study, whose one run evaluates and
// stores every point as a local run does — so the bytes match a
// single-process run at any worker count.
//
// The unit of distribution is the characterization config, not the grid
// point: points are consistent-hashed by core.Study.CharacterizationKey
// (cell × capacity × word width — exactly what the plan phase dedupes
// engine passes by), so every point of one characterization config lands
// on the same worker and no config is ever characterized on two machines.
// The hash ring is deterministic over the live worker set, which is what
// lets a resumed coordinator recompute the same assignment instead of
// journaling point lists.
//
// Failure model: every worker sits behind a circuit breaker (breaker.go).
// A worker that cannot be reached, answers non-200, or returns a torn
// shard payload (CRC mismatch — see store.DecodeShard) loses the
// whole shard and trips its breaker. Each shard walks one owner list —
// every live worker once, in ring order from the shard's first
// characterization key — skipping open breakers and moving to the next
// owner at each error; a shard that exhausts the list falls back to
// coordinator-local compute ("degrade to local"), so worker loss can slow
// a study down but never change its bytes. A straggling copy is hedged
// (Options.HedgeAfter): once per shard the next owner starts early, the
// first success wins, and the rest are cancelled. Open breakers are
// re-probed by the /v1/version re-handshake — at the next prefill, and
// between prefills by the background ticker Start launches — with
// seeded-jitter exponential backoff, so a revived worker rejoins the ring
// without coordinator restarts and a flapping one is probed ever more
// lazily.
//
// A shard reads and writes no store on the worker, so a worker running
// with its own persistent store holds only what it computed for studies of
// its own; nothing reconciles it with the coordinator's store. A resumed
// coordinator needs no record of its earlier fan-out either: the store
// probe leaves only the still-missing points pending, and the ring assigns
// them again.
package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// ShardRequest is the POST /v1/shard body: the protocol generation, the
// study's fingerprint (the worker rebuilds the study from Config and must
// arrive at the same identity, or the shard is refused with 409
// shard_conflict), the effective sweep configuration, and the design-space
// indices this worker owns.
type ShardRequest struct {
	Protocol    string          `json:"protocol"`
	Fingerprint string          `json:"fingerprint"`
	Config      json.RawMessage `json:"config"`
	Indices     []int           `json:"indices"`
}

// shardTimeout bounds one shard round trip. Shards carry whole engine
// characterizations, so this is generous; a coordinator that trips it
// computes the shard locally.
var shardTimeout = 10 * time.Minute

// Option defaults: the backoff pair governs how lazily an open breaker is
// re-probed.
const (
	DefaultBreakerBackoff    = 500 * time.Millisecond
	DefaultBreakerMaxBackoff = 30 * time.Second
)

// Options tunes a Pool's resilience machinery. The zero value of every
// field selects a sensible default; zero HedgeAfter disables hedging and
// zero Rehandshake disables the background re-handshake ticker (Prefill
// still re-handshakes inline).
type Options struct {
	// Client issues every worker request. nil uses a default with the
	// shard timeout; tests inject fault-wrapped clients.
	Client *http.Client
	// HedgeAfter launches a second copy of a still-running shard on the
	// next ring owner after this long. 0 disables hedging.
	HedgeAfter time.Duration
	// BreakerBackoff and BreakerMaxBackoff bound the open interval's
	// exponential growth.
	BreakerBackoff    time.Duration
	BreakerMaxBackoff time.Duration
	// BreakerSeed seeds the per-worker jitter deterministically; the same
	// seed and failure sequence replays the same retry schedule.
	BreakerSeed int64
	// Rehandshake, when positive, re-probes open breakers on a background
	// ticker so revived workers rejoin between prefills.
	Rehandshake time.Duration
}

func (o Options) withDefaults() Options {
	if o.Client == nil {
		o.Client = &http.Client{Timeout: shardTimeout}
	}
	if o.BreakerBackoff <= 0 {
		o.BreakerBackoff = DefaultBreakerBackoff
	}
	if o.BreakerMaxBackoff <= 0 {
		o.BreakerMaxBackoff = DefaultBreakerMaxBackoff
	}
	return o
}

// Stats is the coordinator's counter snapshot, surfaced in the /v1/stats
// fabric block.
type Stats struct {
	Workers int `json:"workers"` // configured worker processes
	Live    int `json:"live"`    // workers with a closed breaker

	Shards       int64 `json:"shards"`        // shard requests fanned out
	RemoteHits   int64 `json:"remote_hits"`   // points whose configs workers characterized
	RemoteMisses int64 `json:"remote_misses"` // points that fell back to local execution

	BreakerOpen   int   `json:"breaker_open"`   // workers with an open or half-open breaker (gauge)
	BreakerTrips  int64 `json:"breaker_trips"`  // breaker transitions to open
	BreakerResets int64 `json:"breaker_resets"` // breaker transitions back to closed
	ShardRetries  int64 `json:"shard_retries"`  // shard requests sent to a later owner after a failure
	Resharded     int64 `json:"resharded"`      // points sent to a later owner after a failure

	Hedges     int64 `json:"hedges"`      // hedge requests launched
	HedgesWon  int64 `json:"hedges_won"`  // shards resolved by the hedge copy
	HedgesLost int64 `json:"hedges_lost"` // shards resolved by another copy after hedging
}

// worker is one configured peer behind its circuit breaker.
type worker struct {
	url string
	bk  *breaker
}

// Pool coordinates a fixed set of worker processes. Safe for concurrent
// use; every study's prefill shares the one pool so breaker state and
// counters are process-wide.
type Pool struct {
	opts    Options
	client  *http.Client
	workers []*worker

	shards        atomic.Int64
	remoteHits    atomic.Int64
	remoteMisses  atomic.Int64
	breakerTrips  atomic.Int64
	breakerResets atomic.Int64
	shardRetries  atomic.Int64
	resharded     atomic.Int64
	hedges        atomic.Int64
	hedgesWon     atomic.Int64
	hedgesLost    atomic.Int64

	stopOnce sync.Once
	stop     chan struct{}
	bg       sync.WaitGroup
}

// NewPoolOptions builds a coordinator over worker base URLs (e.g.
// "http://w1:8080"). Workers start unproven — breaker open with an
// immediate retry window — and are handshaken on first use. A URL listed
// twice is one worker: a second entry would sit behind a breaker nothing
// ever feeds.
func NewPoolOptions(urls []string, opts Options) *Pool {
	opts = opts.withDefaults()
	p := &Pool{opts: opts, client: opts.Client, stop: make(chan struct{})}
	cfg := breakerConfig{
		backoff:    opts.BreakerBackoff,
		maxBackoff: opts.BreakerMaxBackoff,
	}
	for _, u := range urls {
		if p.find(u) != nil {
			continue
		}
		// Each worker's jitter stream is seeded from the pool seed and its
		// own URL, so schedules are deterministic yet decorrelated.
		p.workers = append(p.workers, &worker{url: u, bk: newBreaker(cfg, opts.BreakerSeed^int64(fnv64a(u)))})
	}
	return p
}

// Start launches the pool's re-handshake ticker, so revived workers rejoin
// the ring between prefills; a zero Options.Rehandshake disables it. The
// store parameter is unused and kept so existing callers still compile.
// Stop ends the ticker.
func (p *Pool) Start(_ *store.Store) {
	if d := p.opts.Rehandshake; d > 0 && len(p.workers) > 0 {
		p.bg.Add(1)
		go p.tick(d, p.refresh)
	}
}

// Stop ends the background loop and waits for it to drain.
func (p *Pool) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.bg.Wait()
}

// tick runs fn every d until Stop.
func (p *Pool) tick(d time.Duration, fn func(ctx context.Context)) {
	defer p.bg.Done()
	t := time.NewTicker(d)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), shardTimeout)
			fn(ctx)
			cancel()
		}
	}
}

// Workers reports the configured worker count.
func (p *Pool) Workers() int { return len(p.workers) }

// Live reports how many workers currently have a closed breaker.
func (p *Pool) Live() int { return len(p.usable()) }

// Snapshot returns the pool's counters.
func (p *Pool) Snapshot() Stats {
	live := p.Live()
	return Stats{
		Workers:       len(p.workers),
		Live:          live,
		BreakerOpen:   len(p.workers) - live,
		Shards:        p.shards.Load(),
		RemoteHits:    p.remoteHits.Load(),
		RemoteMisses:  p.remoteMisses.Load(),
		BreakerTrips:  p.breakerTrips.Load(),
		BreakerResets: p.breakerResets.Load(),
		ShardRetries:  p.shardRetries.Load(),
		Resharded:     p.resharded.Load(),
		Hedges:        p.hedges.Load(),
		HedgesWon:     p.hedgesWon.Load(),
		HedgesLost:    p.hedgesLost.Load(),
	}
}

// refresh probes every worker whose breaker admits a probe right now, so
// restarted workers rejoin the ring. Runs at every prefill and, between
// prefills, on the Start ticker.
func (p *Pool) refresh(ctx context.Context) {
	now := time.Now()
	var wg sync.WaitGroup
	for _, w := range p.workers {
		if !w.bk.allowProbe(now) {
			continue
		}
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			switch {
			case p.handshake(ctx, w.url):
				if w.bk.onSuccess() {
					p.breakerResets.Add(1)
				}
			case ctx.Err() != nil: // the coordinator gave up, not the worker
				w.bk.onAbandon()
			case w.bk.onFailure(time.Now()):
				p.breakerTrips.Add(1)
			}
		}(w)
	}
	wg.Wait()
}

// handshake checks a worker's GET /v1/version: it must speak this binary's
// protocol generation, point-key schema, and shard wire format, or its
// results could not be merged safely. Unreachable or mismatched workers
// stay out of the ring.
func (p *Pool) handshake(ctx context.Context, url string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/version", nil)
	if err != nil {
		return false
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	var v store.VersionInfo
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&v); err != nil {
		return false
	}
	if v.Protocol != store.ProtocolVersion || v.PointKey != core.PointKeyVersion ||
		v.ShardWire != store.ShardWireVersion {
		log.Printf("fabric: worker %s refused: protocol %q / point key %q / shard wire %q "+
			"(this binary: %q / %q / %q)", url, v.Protocol, v.PointKey, v.ShardWire,
			store.ProtocolVersion, core.PointKeyVersion, store.ShardWireVersion)
		return false
	}
	return true
}

// usable lists the workers whose breakers are closed right now.
func (p *Pool) usable() []string {
	var urls []string
	for _, w := range p.workers {
		if w.bk.usable() {
			urls = append(urls, w.url)
		}
	}
	return urls
}

// find returns the worker for a URL (nil if unknown).
func (p *Pool) find(url string) *worker {
	for _, w := range p.workers {
		if w.url == url {
			return w
		}
	}
	return nil
}

// Prefill characterizes the configs of a study's cold grid points (those
// st lacks) on the worker fleet and hands the checked outcomes to the study
// (core.Study.Adopt), so its run evaluates and stores every point itself.
// cfg is the study's effective sweep configuration (JSON) — what workers
// rebuild the study from. The last parameter is unused; it is kept so
// existing callers still compile.
//
// Pending points are grouped into one shard per ring owner, and each shard
// walks its owner list (see route). Prefill never fails a study: whatever
// no worker served is characterized by the run itself. Once ctx ends the
// coordinator gave up, not the workers: nothing more feeds a breaker,
// counts a miss, or logs.
func (p *Pool) Prefill(ctx context.Context, study *core.Study, cfg []byte, st *store.Store, _ string) {
	if st == nil || len(cfg) == 0 || len(p.workers) == 0 {
		return
	}
	// Adaptive runs evaluate a planner-chosen subset that unfolds round by
	// round; there is no up-front point list to shard. They run locally.
	if study.Mode == core.ModeAdaptive {
		return
	}
	fp, err := study.Fingerprint()
	if err != nil {
		return
	}
	specs, err := study.Space()
	if err != nil {
		return
	}
	var pending []int
	for i := range specs {
		if !st.Probe(study.PointKey(specs[i])) {
			pending = append(pending, i)
		}
	}
	if len(pending) == 0 {
		return // fully warm: nothing to distribute
	}
	p.refresh(ctx)
	live := p.usable()
	// local leaves n points to the run, unless the coordinator gave up.
	local := func(n int, why string) {
		if ctx.Err() == nil {
			log.Printf("fabric: %d point(s) %s; computing locally", n, why)
			p.remoteMisses.Add(int64(n))
		}
	}
	if len(live) == 0 {
		local(len(pending), "without a live worker")
		return
	}
	ring := newRing(live)
	assign := make(map[string][]int)
	for _, i := range pending {
		owner := ring.owner(study.CharacterizationKey(specs[i]))
		assign[owner] = append(assign[owner], i)
	}
	var (
		wg sync.WaitGroup
		mu sync.Mutex // Adopt must not run concurrently with itself
	)
	for _, indices := range assign {
		wg.Add(1)
		go func() {
			defer wg.Done()
			chars, ok := p.route(ctx, ring.owners(study.CharacterizationKey(specs[indices[0]])), fp, cfg, indices)
			if !ok {
				local(len(indices), "unfilled by every live worker")
				return
			}
			// Adopt keeps only well-formed entries for configs asked for; the
			// rest (mislabeled, or a panic on the worker — deterministic, not
			// worth another owner) run locally.
			mu.Lock()
			hits := study.Adopt(specs, indices, chars)
			mu.Unlock()
			p.remoteHits.Add(int64(hits))
			p.remoteMisses.Add(int64(len(indices) - hits))
		}()
	}
	wg.Wait()
}

// shardResult is one copy's outcome in a shard's walk.
type shardResult struct {
	w     *worker
	chars []core.Characterization
	err   error
}

// route runs one shard down its owner list, the fabric's one routing
// loop. Owners whose breaker is not closed are skipped; an error moves the
// shard to the next owner; and at most once per shard, when the running
// copy outlives Options.HedgeAfter, the next owner starts early without
// cancelling the first. The first success wins and cancels the rest. The
// ring size bounds the walk: ok is false once the list is exhausted, or
// once ctx ends. Breakers are fed per copy as results arrive — a failure
// trips its worker's breaker — but never for a cancelled loser, nor after
// ctx ended.
func (p *Pool) route(ctx context.Context, owners []string, fp string, cfg []byte, indices []int) (chars []core.Characterization, ok bool) {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Buffered to the list length: a loser can deposit its result after
	// route returned, so no goroutine ever blocks on the send.
	results := make(chan shardResult, len(owners))
	var (
		next, running int
		failed        bool                // a copy failed: later launches are reshards
		hedgeAfter    = p.opts.HedgeAfter // zeroed once the one hedge is spent
		hedgeCopy     *worker             // the copy the hedge launched, if any
		hedge         <-chan time.Time
	)
	launch := func() *worker {
		for next < len(owners) && ctx.Err() == nil {
			w := p.find(owners[next])
			next++
			if !w.bk.usable() {
				continue
			}
			p.shards.Add(1)
			if failed {
				p.shardRetries.Add(1)
				p.resharded.Add(int64(len(indices)))
			}
			running++
			go func() {
				chars, err := p.runShard(cctx, w.url, fp, cfg, indices)
				results <- shardResult{w: w, chars: chars, err: err}
			}()
			if hedgeAfter > 0 {
				hedge = time.After(hedgeAfter)
			}
			return w
		}
		return nil
	}
	launch()
	for running > 0 {
		select {
		case <-hedge:
			hedgeAfter = 0
			if hedgeCopy = launch(); hedgeCopy != nil {
				p.hedges.Add(1)
			}
		case res := <-results:
			running--
			if res.err == nil {
				if res.w.bk.onSuccess() {
					p.breakerResets.Add(1)
				}
				if hedgeCopy == res.w {
					p.hedgesWon.Add(1)
				} else if hedgeCopy != nil {
					p.hedgesLost.Add(1)
				}
				return res.chars, true
			}
			if ctx.Err() != nil {
				return nil, false // the coordinator gave up; the worker did nothing wrong
			}
			if res.w.bk.onFailure(time.Now()) {
				p.breakerTrips.Add(1)
			}
			log.Printf("fabric: shard of %d point(s) lost on %s (%v)", len(indices), res.w.url, res.err)
			failed = true
			launch()
		}
	}
	return nil, false
}

// runShard executes one worker's slice: POST /v1/shard, decode and
// CRC-verify the response. Any failure loses the whole shard.
func (p *Pool) runShard(ctx context.Context, url, fp string, cfg []byte, indices []int) ([]core.Characterization, error) {
	body, err := json.Marshal(ShardRequest{
		Protocol: store.ProtocolVersion, Fingerprint: fp,
		Config: json.RawMessage(cfg), Indices: indices,
	})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/shard", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg := data
		if len(msg) > 256 {
			msg = msg[:256]
		}
		return nil, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return store.DecodeShard(data)
}

// The consistent-hash ring: 64 virtual nodes per worker on a 64-bit
// FNV-1a circle. Deterministic in the worker set — same live workers,
// same assignment — which the "no config characterized twice" guarantee
// relies on.

const vnodes = 64

type ringPoint struct {
	hash uint64
	url  string
}

type ring struct {
	points []ringPoint
}

func newRing(urls []string) *ring {
	r := &ring{points: make([]ringPoint, 0, len(urls)*vnodes)}
	for _, u := range urls {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: fnv64a(u + "#" + strconv.Itoa(v)), url: u})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].url < r.points[j].url
	})
	return r
}

// search returns the index of the first ring point at or after a key's
// hash, wrapping at the top of the circle.
func (r *ring) search(key string) int {
	h := fnv64a(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// owner returns the worker owning a key.
func (r *ring) owner(key string) string { return r.points[r.search(key)].url }

// owners lists every worker on the ring once, in ring order from a key's
// position: the key's owner first, then the worker the key would re-hash
// to if that one left the ring, and so on — a shard's routing walk.
func (r *ring) owners(key string) []string {
	n := len(r.points) / vnodes
	out := make([]string, 0, n)
	for i, start := 0, r.search(key); i < len(r.points) && len(out) < n; i++ {
		if u := r.points[(start+i)%len(r.points)].url; !slices.Contains(out, u) {
			out = append(out, u)
		}
	}
	return out
}

// fnv64a is the 64-bit FNV-1a hash, inlined to keep ring lookups
// allocation-free.
func fnv64a(s string) uint64 {
	const offset, prime = uint64(14695981039346656037), uint64(1099511628211)
	h := offset
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
