// Package store is NVMExplorer-Go's persistent, content-addressed study
// store: the durable layer under the characterization pipeline that lets
// repeated and partially overlapping studies reuse prior work across
// process restarts (`nvmexplorer run -store DIR`, `nvmexplorer serve
// -store DIR`).
//
// The store holds one entry per evaluated design point, addressed by the
// SHA-256 of the point's canonical key (core.Study.PointKey): the cell
// definition, capacity, word bits, bits per cell, targets, constraints,
// traffic, and the resolved per-point evaluation options. Any study whose
// grid contains a stored point — same study or a different one submitted
// later — replays it verbatim, so a fully warm study performs zero engine
// characterizations and returns bytes identical to a cold run.
//
// A Store is a directory or nothing. With a directory (local.go), it
// writes one gob file per point under DIR/points/, atomically (temp file
// + rename) and wrapped in a CRC-32-checksummed envelope so a crash never
// leaves a torn entry and a bit flip never replays a wrong one. Without
// one (Open("")), it is memory-only: nothing persists, and every point
// and manifest lives in memory for the life of the process. In front of
// the directory, a read cache bounded by bytes (the mirror) keeps what
// reads fetched and pins what the directory could not take. Study
// manifests (study.go) live in DIR/studies/: a directory store keeps in
// memory only the manifests it could not write, and decides whether a
// save is equal to the stored one from the file. Points are all the store
// keeps of the engine's work: a restarted process serves every stored
// point without characterizing, and re-characterizes only the configs of
// points it never stored. A directory store also journals async jobs
// under DIR/jobs/ (journal.go) so a killed server resumes them on restart.
//
// Storage corruption is an expected operating condition, not an error: a
// torn, foreign, or bit-flipped record is quarantined (moved to
// DIR/.corrupt/) and read as a miss — the point recomputes and the next
// Put repairs it — transient failures are retried with backoff, and a
// disk that keeps failing degrades the store to memory-only mode instead
// of failing studies. `nvmexplorer fsck` (fsck.go) scans, reports, and
// repairs a store directory offline.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"log"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/nvsim"
)

// recordVersion stamps every point record (the checksummed envelope form).
// Entries from other schema versions — recordVersionV1 (pre-checksum)
// included — read as misses and are overwritten on the next Put; only
// fsck reads v1 files, to upgrade them (fsck.go).
const (
	recordVersion   = "nvmx-store/v2"
	recordVersionV1 = "nvmx-store/v1"
)

// RecordVersion is the current point-record schema, exported for the
// /v1/version handshake.
const RecordVersion = recordVersion

// mirrorBudget bounds the bytes of points the store keeps resident
// (pointCost): about what 16,384 cold-codesign points cost. It is a
// variable so tests can shrink it; a store reads it once, at Open.
var mirrorBudget int64 = 64 << 20

// Disk-failure policy: transient failures retry up to ioAttempts with
// exponential backoff starting at ioBackoff; after degradeAfter consecutive
// failed operations (each already past its retries) the store degrades to
// memory-only mode for the rest of the process — the disk is treated as
// gone, and studies keep completing from memory.
const (
	ioAttempts   = 3
	degradeAfter = 8
)

// ioBackoff is a variable so fault-injection tests can shrink the waits.
var ioBackoff = time.Millisecond

// pointPayload is the inner form of one point. The full canonical key is
// stored alongside the payload and verified on read, so a hash collision
// or a foreign file in the directory reads as a miss, never a wrong result.
type pointPayload struct {
	Key   string
	Point core.CachedPoint
}

// pointKind registers point records: DIR/points/<2hex>/<addr>.gob,
// identified by the canonical key and filed under its content address.
var pointKind = &kind[pointPayload]{
	layout: layout{dir: "points", suffix: ".gob", nested: true},
	codec:  newCodec(recordVersion, func(p *pointPayload) string { return p.Key }),
	name:   func(p *pointPayload) string { return addr(p.Key) },
}

// Store is a persistent point cache. It implements core.PointCache and is
// safe for concurrent use. The zero value is not usable; call Open.
type Store struct {
	// local is the directory backend; nil for a memory-only store.
	local *localBackend

	mu   sync.Mutex
	mem  mirror
	full atomic.Bool // a point was dropped: pinned points fill the budget

	// Study manifests (study.go): fingerprint → the encoded record, only
	// for manifests the directory does not hold (a memory-only or degraded
	// store, a failed write); and the count of new or changed saves
	// (StudyGeneration).
	studiesMu  sync.Mutex
	studiesMem map[string][]byte
	studyGen   atomic.Int64

	// puts counts Put calls (PointGeneration).
	puts atomic.Int64

	hits, misses atomic.Int64
}

// Open creates or reopens a store: "" builds a memory-only store (no
// persistence, no journal), anything else is a directory on the real
// filesystem.
func Open(target string) (*Store, error) { return OpenFS(target, DiskFS) }

// OpenFS is Open with an explicit filesystem — the hook fault-injection
// tests use to exercise the store's corruption and I/O-error handling
// deterministically. The directory is created as needed.
func OpenFS(dir string, fsys FS) (*Store, error) {
	if dir == "" {
		return newStore(nil), nil
	}
	if err := checkDir(dir); err != nil {
		return nil, err
	}
	lb := newLocalBackend(dir, fsys)
	if err := fsys.MkdirAll(filepath.Join(dir, "points")); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return newStore(lb), nil
}

// checkDir refuses a URL where a store directory belongs, instead of
// creating a directory named after its scheme.
func checkDir(dir string) error {
	if strings.Contains(dir, "://") {
		return fmt.Errorf("store: %q is a URL; remote stores were removed, so a store must be a directory", dir)
	}
	return nil
}

// newStore assembles the process-local half of a store around its
// directory backend (nil: memory-only).
func newStore(lb *localBackend) *Store {
	return &Store{
		local:      lb,
		mem:        mirror{budget: mirrorBudget, at: make(map[[sha256.Size]byte]int)},
		studiesMem: make(map[string][]byte),
	}
}

// Dir returns the store's directory, or "" for a memory-only store.
func (s *Store) Dir() string {
	if s.local == nil {
		return ""
	}
	return s.local.dir
}

// Legacy path helpers, kept for the tests and tools that inspect a
// store's layout directly. They panic on a memory-only store.
func (s *Store) pointPath(sum string) string         { return s.local.pointPath(sum) }
func (s *Store) studyPath(fingerprint string) string { return studyKind.path(s.local.dir, fingerprint) }
func (s *Store) jobsDir() string                     { return s.local.jobsDir() }

// addr content-addresses a canonical point key.
func addr(key string) string {
	sum := pointSum(key)
	return hex.EncodeToString(sum[:])
}

// pointSum is the binary content address of a canonical point key (the
// mirror's index; addr is its hex form), computed without copying the key.
func pointSum(key string) [sha256.Size]byte {
	return sha256.Sum256(unsafe.Slice(unsafe.StringData(key), len(key)))
}

// pointCost is what a resident point costs the mirror, in bytes: its
// result and metric rows plus its key.
func pointCost(key string, cp core.CachedPoint) int64 {
	return int64(len(cp.Arrays))*int64(unsafe.Sizeof(nvsim.Result{})) +
		int64(len(cp.Metrics))*int64(unsafe.Sizeof(eval.Metrics{})) + int64(len(key))
}

// mirror is the store's resident point set, bounded by bytes: a read cache
// over the backend, evicted by clock, plus pinned points — the only copy
// of points the backend could not take, never evicted. A key's point never
// changes, so a resident entry is never rewritten or re-pinned: a backend
// that served it once can serve it again. The Store's mu guards it.
type mirror struct {
	budget, bytes, pinnedBytes int64
	at                         map[[sha256.Size]byte]int // content address → slot
	slots                      []slot
	free                       []int // empty slots
	hand                       int   // the clock hand
}

type slot struct {
	key               string
	pt                core.CachedPoint
	cost              int64
	used, ref, pinned bool // ref: read since the clock hand last passed
}

// add makes a point resident (pinned, if pin), evicting unreferenced
// cached points until it fits. It reports false, keeping nothing, when the
// point does not fit beside the pinned ones.
func (m *mirror) add(sum [sha256.Size]byte, key string, pt core.CachedPoint, pin bool) bool {
	if _, ok := m.at[sum]; ok {
		return true
	}
	cost := pointCost(key, pt)
	if m.pinnedBytes+cost > m.budget {
		return false
	}
	// Clock: a referenced slot loses its bit and is passed over once, an
	// unreferenced one is evicted. Unpinned bytes cover the shortfall, so
	// two sweeps always free enough.
	for m.bytes+cost > m.budget {
		m.hand = (m.hand + 1) % len(m.slots)
		switch e := &m.slots[m.hand]; {
		case !e.used || e.pinned:
		case e.ref:
			e.ref = false
		default:
			delete(m.at, pointSum(e.key))
			m.bytes -= e.cost
			*e = slot{}
			m.free = append(m.free, m.hand)
		}
	}
	i := len(m.slots)
	if n := len(m.free); n > 0 {
		i, m.free = m.free[n-1], m.free[:n-1]
	} else {
		m.slots = append(m.slots, slot{})
	}
	m.slots[i] = slot{key: key, pt: pt, cost: cost, used: true, pinned: pin}
	m.at[sum] = i
	m.bytes += cost
	if pin {
		m.pinnedBytes += cost
	}
	return true
}

// Get implements core.PointCache: memory first, then the backend. A
// backend hit fills the mirror.
func (s *Store) Get(key string) (core.CachedPoint, bool) {
	cp, ok := s.lookup(key)
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return cp, ok
}

// Probe reports whether the store can serve key without engine work,
// filling the mirror like Get — but without touching the hit/miss
// counters. The fabric coordinator probes the whole grid to plan remote
// shards, and planning must not skew serving stats.
func (s *Store) Probe(key string) bool {
	_, ok := s.lookup(key)
	return ok
}

// lookup serves key from the mirror, marking it referenced, else from the
// backend, filling the mirror.
func (s *Store) lookup(key string) (cp core.CachedPoint, ok bool) {
	sum := pointSum(key)
	s.mu.Lock()
	i, ok := s.mem.at[sum]
	if ok {
		s.mem.slots[i].ref = true
		cp = s.mem.slots[i].pt
	}
	s.mu.Unlock()
	if !ok && s.local != nil {
		if cp, ok = s.local.ReadPoint(key); ok {
			s.mu.Lock()
			s.mem.add(sum, key, cp, false)
			s.mu.Unlock()
		}
	}
	return cp, ok
}

// Put implements core.PointCache: write-through to the backend, keeping
// nothing resident. Backend errors are retried, then swallowed — a
// read-only volume must not fail the study. A point the backend does not
// hold (a failed write, a memory-only or degraded store) is pinned in the
// mirror; one that does not fit there is dropped, and the store reports
// degraded.
func (s *Store) Put(key string, pt core.CachedPoint) {
	if err := s.local.WritePoint(key, pt); err != nil || !s.persistent() {
		s.mu.Lock()
		kept := s.mem.add(pointSum(key), key, pt, true)
		s.mu.Unlock()
		if !kept && !s.full.Swap(true) {
			log.Printf("store: points the backend cannot hold fill the %d MiB memory budget; dropping new ones",
				s.mem.budget>>20)
		}
	}
	s.puts.Add(1)
}

// persistent reports whether the backend keeps what it is handed: false
// for a memory-only or degraded store, whose records live only in memory.
func (s *Store) persistent() bool { return s.local.enabled() }

// PointGeneration counts Put calls. It moves whenever this process stores
// a point, so a reader that found a study's points missing knows when a
// retry might succeed; points written by another process sharing the
// backend do not move it.
func (s *Store) PointGeneration() int64 { return s.puts.Load() }

// SaveMemo does nothing and returns nil. The store persists points only:
// an engine memo snapshot saved at most one characterization per config
// that a partially overlapping study reused after a restart, and cost more
// to restore than that recomputation. The method stays for callers
// written against the snapshot.
func (s *Store) SaveMemo() error { return nil }

// Stats reports how many point lookups hit (served without touching the
// characterization engine) versus missed since the store was opened.
func (s *Store) Stats() (hits, misses int64) {
	return s.hits.Load(), s.misses.Load()
}

// Degraded reports whether persistent backend failures demoted the store
// to memory-only mode, or the store has dropped a point it could not
// persist (its memory budget is full). It never flips back within a
// process: an operator repairs the volume and restarts, or runs fsck.
func (s *Store) Degraded() bool { return s.local.Degraded() || s.full.Load() }

// HealthStats is the store's self-healing telemetry, served on /v1/stats.
type HealthStats struct {
	// Quarantined counts corrupt or foreign records discarded (moved to
	// DIR/.corrupt/).
	Quarantined int64 `json:"quarantined"`
	// IOErrors counts disk operations that failed past their retries.
	IOErrors int64 `json:"io_errors"`
	// Retries counts individual retry attempts after transient failures.
	Retries int64 `json:"retries"`
	// Degraded reports memory-only fallback mode (Store.Degraded).
	Degraded bool `json:"degraded"`
}

// Health returns the current self-healing counters.
func (s *Store) Health() HealthStats {
	h := s.local.Health()
	h.Degraded = s.Degraded()
	return h
}

// Len reports how many points are resident in memory. The backend may
// hold more.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem.at)
}
