package store

import (
	"log"
	"sync/atomic"

	"repro/internal/core"
)

// The pluggable persistence layer. A Store is two halves: a process-local
// half (the in-memory point mirror, a read cache bounded by bytes; the
// study-manifest digests; the hit/miss counters) that behaves identically
// everywhere, and a Backend that owns durability. Open picks the backend
// from its target string:
//
//	""                  memory-only (memBackend): nothing persists
//	a directory path    the local CRC-enveloped dir backend (localBackend)
//	http(s)://host      the remote HTTP backend (remoteBackend), speaking
//	                    the versioned /v1/store/* API another `nvmexplorer
//	                    serve` process exposes
//
// Every backend carries the same self-healing contract the local store
// pioneered: corrupt records are discarded (quarantined) and read as
// misses, transient failures are retried with backoff, and a backend that
// keeps failing degrades the store to memory-only mode instead of failing
// studies. The job journal is deliberately NOT part of the interface: a
// journal is a coordinator-local crash-recovery concern, so journal calls
// on a remote- or memory-backed store are no-ops (jobs still run, they
// just don't survive a crash of that process).

// ProtocolVersion is the wire-protocol generation of the /v1 store/worker
// HTTP API. A remote backend or fabric coordinator refuses to talk to a
// server reporting a different protocol (GET /v1/version handshake).
const ProtocolVersion = "v1"

// Backend is the persistence half of a Store: point records and study
// manifests. Implementations must be safe for
// concurrent use. All methods are miss-tolerant — a backend signals "can't
// help" by returning false, never by failing the caller's study.
type Backend interface {
	// Kind identifies the backend family: "memory", "local", or "remote".
	Kind() string
	// Target is what the backend persists to: a directory path, a base
	// URL, or "" for memory.
	Target() string

	// ReadPoint loads and verifies one point record by its canonical key.
	ReadPoint(key string) (core.CachedPoint, bool)
	// WritePoint durably records one point. Errors are internal (they feed
	// the degradation tracker); callers treat persistence as best-effort.
	WritePoint(key string, pt core.CachedPoint) error
	// ExportPoint returns the raw envelope bytes of one record by content
	// address — the form the /v1/store wire protocol ships.
	ExportPoint(addrHex string) ([]byte, bool)

	// WriteStudy persists one study manifest's encoded record.
	WriteStudy(fingerprint string, data []byte) error
	// ReadStudy loads and verifies one manifest by fingerprint.
	ReadStudy(fingerprint string) (StudyRecord, bool)
	// StudyFingerprints lists the fingerprints of every persisted
	// manifest (the Store adds the ones only it holds).
	StudyFingerprints() []string

	// Health returns the backend's self-healing counters.
	Health() HealthStats
	// Degraded reports whether persistent failures demoted the backend to
	// a no-op (the Store then runs memory-only).
	Degraded() bool
}

// health is the self-healing telemetry every backend shares: how many
// records were discarded as corrupt, how many operations failed past their
// retries, and whether the failure streak crossed the degradation
// threshold. It is embedded by value and used via pointer.
type health struct {
	quarantined atomic.Int64
	ioErrors    atomic.Int64
	retries     atomic.Int64
	streak      atomic.Int64 // consecutive failed backend ops
	degraded    atomic.Bool
}

// ok records a successful backend operation, resetting the failure streak.
func (h *health) ok() { h.streak.Store(0) }

// fail records an operation that failed past its retries. Once the streak
// reaches degradeAfter, the backend degrades to a no-op for the rest of
// the process — the disk (or peer) is treated as gone, and studies keep
// completing from memory.
func (h *health) fail(kind, op string, err error) {
	h.ioErrors.Add(1)
	if h.streak.Add(1) == degradeAfter && !h.degraded.Swap(true) {
		log.Printf("store: %d consecutive %s failures (last: %s: %v); degrading to memory-only mode",
			degradeAfter, kind, op, err)
	}
}

func (h *health) stats() HealthStats {
	return HealthStats{
		Quarantined: h.quarantined.Load(),
		IOErrors:    h.ioErrors.Load(),
		Retries:     h.retries.Load(),
		Degraded:    h.degraded.Load(),
	}
}

// memBackend is the no-op backend of a memory-only store.
type memBackend struct{}

func (memBackend) Kind() string                              { return "memory" }
func (memBackend) Target() string                            { return "" }
func (memBackend) ReadPoint(string) (core.CachedPoint, bool) { return core.CachedPoint{}, false }
func (memBackend) WritePoint(string, core.CachedPoint) error { return nil }
func (memBackend) ExportPoint(string) ([]byte, bool)         { return nil, false }
func (memBackend) WriteStudy(string, []byte) error           { return nil }
func (memBackend) ReadStudy(string) (StudyRecord, bool)      { return StudyRecord{}, false }
func (memBackend) StudyFingerprints() []string               { return nil }
func (memBackend) Health() HealthStats                       { return HealthStats{} }
func (memBackend) Degraded() bool                            { return false }
