package fabric

import (
	"math/rand"
	"sync"
	"time"
)

// Per-worker circuit breaker. "This worker failed once" and "this worker
// is worth trying again" are different facts; one alive bit would collapse
// them and re-probe a flapping worker at full price on every prefill. The
// breaker separates them with the classic three states:
//
//	closed    the worker is usable: shards route to it.
//	open      the worker recently failed: nothing routes to it until
//	          retryAt, which backs off exponentially (seeded jitter, so a
//	          fleet of coordinators doesn't re-probe in lockstep, and a
//	          test with a fixed seed replays the exact same schedule).
//	half-open one probe (the /v1/version re-handshake) is in flight; its
//	          outcome closes the breaker or re-opens it with a longer
//	          backoff.
//
// Workers start open with a zero retryAt — "unproven, probe on first
// use" — which preserves the old pool's handshake-gated ring exactly.
type breakerState int

const (
	bkOpen breakerState = iota // zero value: unproven until a handshake
	bkClosed
	bkHalfOpen
)

// breakerConfig is the tuning shared by every breaker in a pool.
type breakerConfig struct {
	backoff    time.Duration // first open interval
	maxBackoff time.Duration // backoff ceiling
}

type breaker struct {
	mu      sync.Mutex
	cfg     breakerConfig
	rng     *rand.Rand // per-worker, deterministically seeded
	state   breakerState
	next    time.Duration // the open interval the next trip will use
	retryAt time.Time     // when an open breaker accepts a probe
}

func newBreaker(cfg breakerConfig, seed int64) *breaker {
	return &breaker{cfg: cfg, rng: rand.New(rand.NewSource(seed)), next: cfg.backoff}
}

// usable reports whether shards may route to this worker right now.
func (b *breaker) usable() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == bkClosed
}

// allowProbe reports whether a re-handshake probe should go out now, and
// if so moves the breaker to half-open so concurrent refreshes send one
// probe, not a thundering herd.
func (b *breaker) allowProbe(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != bkOpen || now.Before(b.retryAt) {
		return false
	}
	b.state = bkHalfOpen
	return true
}

// onSuccess records a successful operation (a passed handshake or a
// served shard), closing the breaker and resetting the backoff schedule.
// It reports whether this was a reset — a transition from open/half-open
// back to closed.
func (b *breaker) onSuccess() (reset bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	reset = b.state != bkClosed
	b.state = bkClosed
	b.next = b.cfg.backoff
	return reset
}

// onAbandon returns a breaker whose probe was abandoned, not failed, from
// half-open to open, with its retry window and backoff unchanged.
func (b *breaker) onAbandon() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = bkOpen
}

// onFailure records a failed operation. Any failure trips a closed or
// half-open breaker open: the retry window is the current backoff interval
// with 50–100% seeded jitter, and the next interval doubles up to the
// ceiling, so a failed half-open probe re-trips with a doubled backoff. It
// reports whether the breaker tripped (transitioned to open) on this call.
func (b *breaker) onFailure(now time.Time) (tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == bkOpen {
		return false // already open; concurrent failures don't extend the window
	}
	b.state = bkOpen
	d := b.next
	if d > 0 {
		d = time.Duration(float64(d) * (0.5 + 0.5*b.rng.Float64()))
	}
	b.retryAt = now.Add(d)
	b.next *= 2
	if b.next > b.cfg.maxBackoff {
		b.next = b.cfg.maxBackoff
	}
	return true
}
