package fabric

import (
	"testing"
	"time"
)

func testBreaker() *breaker {
	return newBreaker(breakerConfig{
		backoff:    100 * time.Millisecond,
		maxBackoff: 400 * time.Millisecond,
	}, 42)
}

func TestBreakerStartsUnprovenAndProbesImmediately(t *testing.T) {
	b := testBreaker()
	now := time.Now()
	if b.usable() {
		t.Fatal("a fresh breaker must not be usable before its first handshake")
	}
	if !b.allowProbe(now) {
		t.Fatal("a fresh breaker must admit a probe immediately (zero retryAt)")
	}
	// The probe moved it to half-open: a concurrent refresh must not send a
	// second probe.
	if b.allowProbe(now) {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	if !b.onSuccess() {
		t.Fatal("closing from half-open must report a reset")
	}
	if !b.usable() {
		t.Fatal("breaker not usable after a successful probe")
	}
	if b.onSuccess() {
		t.Fatal("a success while already closed is not a reset")
	}
}

func TestBreakerTripsOnFirstFailureWithJitteredBackoff(t *testing.T) {
	b := testBreaker()
	b.onSuccess() // close it
	now := time.Now()
	if !b.onFailure(now) {
		t.Fatal("first failure of a closed breaker did not trip")
	}
	if b.usable() {
		t.Fatal("tripped breaker still usable")
	}
	if b.onFailure(now) {
		t.Fatal("a failure while already open tripped again")
	}
	// The retry window is the base backoff with 50–100% jitter.
	wait := b.retryAt.Sub(now)
	if wait < 50*time.Millisecond || wait > 100*time.Millisecond {
		t.Fatalf("first open interval %v outside [50ms, 100ms]", wait)
	}
	if b.allowProbe(now) {
		t.Fatal("open breaker admitted a probe before retryAt")
	}
	if !b.allowProbe(now.Add(150 * time.Millisecond)) {
		t.Fatal("open breaker refused a probe after retryAt")
	}
	// A failed probe re-trips from half-open with a doubled interval.
	if !b.onFailure(now) {
		t.Fatal("half-open failure did not re-trip")
	}
	wait = b.retryAt.Sub(now)
	if wait < 100*time.Millisecond || wait > 200*time.Millisecond {
		t.Fatalf("second open interval %v outside [100ms, 200ms]", wait)
	}
}

func TestBreakerBackoffIsCappedAndResetBySuccess(t *testing.T) {
	b := testBreaker()
	b.onSuccess()
	now := time.Now()
	for i := 0; i < 10; i++ {
		b.allowProbe(b.retryAt.Add(time.Second)) // walk to half-open
		b.onFailure(now)
	}
	if wait := b.retryAt.Sub(now); wait > 400*time.Millisecond {
		t.Fatalf("open interval %v exceeds the 400ms ceiling", wait)
	}
	b.allowProbe(b.retryAt.Add(time.Second))
	b.onSuccess()
	b.onFailure(now) // the first failure trips again
	if wait := b.retryAt.Sub(now); wait > 100*time.Millisecond {
		t.Fatalf("backoff not reset by success: first interval after reset is %v", wait)
	}
}

func TestBreakerJitterIsDeterministicPerSeed(t *testing.T) {
	sequence := func(seed int64) []time.Duration {
		b := newBreaker(breakerConfig{backoff: 100 * time.Millisecond, maxBackoff: time.Hour}, seed)
		b.onSuccess()
		now := time.Now()
		var waits []time.Duration
		for i := 0; i < 5; i++ {
			b.onFailure(now)
			waits = append(waits, b.retryAt.Sub(now))
			b.allowProbe(b.retryAt.Add(time.Second))
		}
		return waits
	}
	a, b := sequence(7), sequence(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at trip %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := sequence(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter sequences")
	}
}
