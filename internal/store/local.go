package store

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// localBackend is the CRC-enveloped directory backend: one gob file per
// point under DIR/points/ (sharded by the first hash byte), study
// manifests under DIR/studies/, and the job journal under DIR/jobs/. All
// writes are atomic (temp file + rename, owned by the FS seam), corrupt
// files are quarantined into DIR/.corrupt/, transient I/O errors retry
// with backoff, and a disk that keeps failing degrades the backend to a
// no-op. A nil *localBackend is the memory-only store's: it persists
// nothing and reports no failures.
type localBackend struct {
	dir string
	fs  FS
	h   health
}

func newLocalBackend(dir string, fsys FS) *localBackend {
	return &localBackend{dir: dir, fs: fsys}
}

// enabled reports whether the backend should touch the disk at all: false
// for a memory-only (nil) or degraded backend.
func (lb *localBackend) enabled() bool { return lb != nil && !lb.h.degraded.Load() }

// health is the backend's self-healing telemetry: how many records were
// discarded as corrupt, how many operations failed past their retries,
// and whether the failure streak crossed the degradation threshold.
type health struct {
	quarantined atomic.Int64
	ioErrors    atomic.Int64
	retries     atomic.Int64
	streak      atomic.Int64 // consecutive failed disk ops
	degraded    atomic.Bool
}

// ok records a successful disk operation, resetting the failure streak.
func (h *health) ok() { h.streak.Store(0) }

// fail records an operation that failed past its retries. Once the streak
// reaches degradeAfter, the backend degrades to a no-op for the rest of
// the process — the disk is treated as gone, and studies keep completing
// from memory.
func (h *health) fail(op string, err error) {
	h.ioErrors.Add(1)
	if h.streak.Add(1) == degradeAfter && !h.degraded.Swap(true) {
		log.Printf("store: %d consecutive disk failures (last: %s: %v); degrading to memory-only mode",
			degradeAfter, op, err)
	}
}

// pointPath shards point files by the first hash byte to keep directory
// listings manageable under large campaigns.
func (lb *localBackend) pointPath(sum string) string { return pointKind.path(lb.dir, sum) }

func (lb *localBackend) jobsDir() string { return filepath.Join(lb.dir, "jobs") }

// quarantine moves a corrupt or foreign file into DIR/.corrupt/ so it can
// never crash (or slow) another run, while staying available for forensics.
// Failures are swallowed: quarantine is best-effort cleanup on a path that
// already reads as a miss.
func (lb *localBackend) quarantine(path string) {
	dir := filepath.Join(lb.dir, ".corrupt")
	if err := lb.fs.MkdirAll(dir); err != nil {
		return
	}
	dst := filepath.Join(dir, fmt.Sprintf("%s.%d", filepath.Base(path), time.Now().UnixNano()))
	if err := lb.fs.Rename(path, dst); err != nil {
		return
	}
	lb.h.quarantined.Add(1)
}

// readFileRetry reads a file, retrying transient I/O errors once. Absence
// is a clean miss; any other persistent error counts toward degradation.
func (lb *localBackend) readFileRetry(path string) ([]byte, readStatus) {
	var err error
	for attempt := 0; attempt < 2; attempt++ {
		if attempt > 0 {
			lb.h.retries.Add(1)
			time.Sleep(ioBackoff)
		}
		var data []byte
		if data, err = lb.fs.ReadFile(path); err == nil {
			return data, readOK
		}
		if os.IsNotExist(err) {
			return nil, readMissing
		}
	}
	lb.h.fail("read "+path, err)
	return nil, readIOError
}

// writeFileRetry atomically writes a file, retrying transient failures
// with exponential backoff before feeding the degradation tracker.
func (lb *localBackend) writeFileRetry(path string, data []byte) error {
	var err error
	for attempt := 0; attempt < ioAttempts; attempt++ {
		if attempt > 0 {
			lb.h.retries.Add(1)
			time.Sleep(ioBackoff << (attempt - 1))
		}
		if err = lb.fs.WriteFileAtomic(path, data); err == nil {
			lb.h.ok()
			return nil
		}
	}
	lb.h.fail("write "+path, err)
	return err
}

// ReadPoint loads and verifies one point file (see readRecord).
func (lb *localBackend) ReadPoint(key string) (core.CachedPoint, bool) {
	p, ok := readRecord(lb, pointKind, addr(key), key)
	return p.Point, ok
}

func (lb *localBackend) WritePoint(key string, pt core.CachedPoint) error {
	if !lb.enabled() {
		return nil
	}
	return writeRecord(lb, pointKind, pointPayload{Key: key, Point: pt})
}

func (lb *localBackend) StudyFingerprints() []string {
	if !lb.enabled() {
		return nil
	}
	var fps []string
	// An unreadable directory lists no manifests; the resident ones still
	// answer.
	_ = lb.scanDir(studyKind.layout, func(_, name string) { fps = append(fps, name) })
	return fps
}

// Health returns the backend's self-healing counters; a memory-only (nil)
// backend has none.
func (lb *localBackend) Health() HealthStats {
	if lb == nil {
		return HealthStats{}
	}
	return HealthStats{
		Quarantined: lb.h.quarantined.Load(),
		IOErrors:    lb.h.ioErrors.Load(),
		Retries:     lb.h.retries.Load(),
		Degraded:    lb.h.degraded.Load(),
	}
}

// Degraded reports whether persistent failures demoted the backend to a
// no-op.
func (lb *localBackend) Degraded() bool { return lb != nil && lb.h.degraded.Load() }
