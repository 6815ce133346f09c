package store

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// The fault-injection filesystem. faultyFS wraps a real FS and fails or
// corrupts operations at configured rates from a deterministically seeded
// PRNG, so chaos tests replay the exact same fault schedule on every run.

var errInjected = errors.New("injected I/O fault")

type faultyFS struct {
	inner FS

	mu  sync.Mutex
	rng *rand.Rand

	failReads     float64 // P(ReadFile returns an I/O error)
	failWrites    float64 // P(WriteFileAtomic / Append fails)
	corruptWrites float64 // P(WriteFileAtomic lands flipped bytes)

	injectedReads, injectedWrites, corrupted int
}

func newFaultyFS(seed int64, failReads, failWrites, corruptWrites float64) *faultyFS {
	return &faultyFS{
		inner: DiskFS, rng: rand.New(rand.NewSource(seed)),
		failReads: failReads, failWrites: failWrites, corruptWrites: corruptWrites,
	}
}

// roll draws one fault decision under the lock (rand.Rand is not
// concurrency-safe and the store writes from multiple goroutines).
func (f *faultyFS) roll(p float64, counter *int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if p > 0 && f.rng.Float64() < p {
		*counter++
		return true
	}
	return false
}

func (f *faultyFS) MkdirAll(path string) error { return f.inner.MkdirAll(path) }

func (f *faultyFS) ReadFile(path string) ([]byte, error) {
	if f.roll(f.failReads, &f.injectedReads) {
		return nil, fmt.Errorf("%w: read %s", errInjected, path)
	}
	return f.inner.ReadFile(path)
}

func (f *faultyFS) WriteFileAtomic(path string, data []byte) error {
	if f.roll(f.failWrites, &f.injectedWrites) {
		return fmt.Errorf("%w: write %s", errInjected, path)
	}
	if f.roll(f.corruptWrites, &f.corrupted) {
		bad := append([]byte(nil), data...)
		for i := 0; i < len(bad); i += 37 {
			bad[i] ^= 0xA5
		}
		return f.inner.WriteFileAtomic(path, bad)
	}
	return f.inner.WriteFileAtomic(path, data)
}

func (f *faultyFS) Rename(oldpath, newpath string) error { return f.inner.Rename(oldpath, newpath) }
func (f *faultyFS) Remove(path string) error             { return f.inner.Remove(path) }
func (f *faultyFS) ReadDir(path string) ([]fs.DirEntry, error) {
	return f.inner.ReadDir(path)
}

// shrinkBackoff makes retry waits negligible for the duration of a test.
func shrinkBackoff(t *testing.T) {
	t.Helper()
	old := ioBackoff
	ioBackoff = time.Microsecond
	t.Cleanup(func() { ioBackoff = old })
}

// countdownFS fails the first n write operations, then behaves normally —
// the shape of a transient stall (a full page cache, a blip in a network
// filesystem).
type countdownFS struct {
	FS
	mu   sync.Mutex
	fail int
}

func (c *countdownFS) WriteFileAtomic(path string, data []byte) error {
	c.mu.Lock()
	shouldFail := c.fail > 0
	if shouldFail {
		c.fail--
	}
	c.mu.Unlock()
	if shouldFail {
		return fmt.Errorf("%w: write %s", errInjected, path)
	}
	return c.FS.WriteFileAtomic(path, data)
}

func TestStoreRetriesTransientWriteFailure(t *testing.T) {
	shrinkBackoff(t)
	dir := t.TempDir()
	st, err := OpenFS(dir, &countdownFS{FS: DiskFS, fail: ioAttempts - 1})
	if err != nil {
		t.Fatal(err)
	}
	st.Put("key", core.CachedPoint{Skipped: []string{"x"}})
	h := st.Health()
	if h.Retries == 0 {
		t.Fatal("transient failure did not retry")
	}
	if h.IOErrors != 0 || h.Degraded {
		t.Fatalf("transient failure escalated: %+v", h)
	}
	// The write landed despite the stall: a fresh store reads it from disk.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp, ok := st2.Get("key"); !ok || len(cp.Skipped) != 1 {
		t.Fatalf("retried write not durable: %+v, %v", cp, ok)
	}
}

func TestStoreDegradesToMemoryOnlyAfterPersistentIOErrors(t *testing.T) {
	shrinkBackoff(t)
	dir := t.TempDir()
	ffs := newFaultyFS(1, 0, 1.0, 0) // every write fails
	st, err := OpenFS(dir, ffs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; !st.Degraded(); i++ {
		if i > 4*degradeAfter {
			t.Fatalf("store never degraded after %d failing writes", i)
		}
		st.Put(fmt.Sprintf("key-%d", i), core.CachedPoint{Skipped: []string{"s"}})
	}
	h := st.Health()
	if !h.Degraded || h.IOErrors < degradeAfter {
		t.Fatalf("health after degradation: %+v", h)
	}

	// Degraded mode is memory-only, not broken: puts and gets keep working,
	// journaling quietly no-ops, and the dead disk is never touched again.
	before := ffs.injectedWrites
	st.Put("after", core.CachedPoint{Skipped: []string{"a"}})
	if cp, ok := st.Get("after"); !ok || len(cp.Skipped) != 1 {
		t.Fatalf("degraded Get = %+v, %v", cp, ok)
	}
	if err := st.JournalJob(JobRecord{ID: "job-1"}); err != nil {
		t.Fatalf("degraded JournalJob: %v", err)
	}
	if got := st.IncompleteJobs(); got != nil {
		t.Fatalf("degraded IncompleteJobs = %v, want nil", got)
	}
	if ffs.injectedWrites != before {
		t.Fatalf("degraded store still wrote to disk (%d -> %d)", before, ffs.injectedWrites)
	}
}

// TestStoreChaos drives the store through a deterministic storm of injected
// read errors, write errors, and corrupted writes: no operation may error
// out or panic, every hit must be exact, and a final fsck -repair must
// leave the directory clean.
func TestStoreChaos(t *testing.T) {
	shrinkBackoff(t)
	dir := t.TempDir()
	ffs := newFaultyFS(42, 0.10, 0.10, 0.15)
	st, err := OpenFS(dir, ffs)
	if err != nil {
		t.Fatal(err)
	}

	// The value is a pure function of the key: a write that fails outright
	// leaves the previous round's (identical) bytes behind, which is stale
	// but never wrong.
	want := map[string]core.CachedPoint{}
	for round := 0; round < 3; round++ {
		for i := 0; i < 60; i++ {
			key := fmt.Sprintf("chaos-%d", i)
			pt := core.CachedPoint{Skipped: []string{fmt.Sprintf("pt-%d", i)}}
			st.Put(key, pt)
			want[key] = pt
			if cp, ok := st.Get(key); ok && !reflect.DeepEqual(cp, want[key]) {
				t.Fatalf("round %d: Get(%s) returned a wrong point: %+v", round, key, cp)
			}
		}
	}
	if ffs.injectedReads+ffs.injectedWrites+ffs.corrupted == 0 {
		t.Fatal("chaos schedule injected nothing; the test is vacuous")
	}

	// A fresh store over the battered directory: reads must still be exact
	// (corrupt survivors quarantine as misses) and never error.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for key, pt := range want {
		if cp, ok := st2.Get(key); ok {
			hits++
			if !reflect.DeepEqual(cp, pt) {
				t.Fatalf("reopened Get(%s) returned a wrong point", key)
			}
		}
	}
	if hits == 0 {
		t.Fatal("no key survived the chaos; corruption rates are miscalibrated")
	}

	// fsck repairs whatever the storm left behind.
	if _, err := Fsck(dir, true); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("store not clean after repair: %+v", rep)
	}
}

func TestStoreQuarantinesCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Put("key", core.CachedPoint{Skipped: []string{"x"}})
	path := st.pointPath(addr("key"))
	if err := os.WriteFile(path, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A fresh store over the same directory, so the read has to hit disk
	// (the writer still holds the point in its memory mirror).
	st, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get("key"); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt file left at %s", path)
	}
	if h := st.Health(); h.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", h.Quarantined)
	}
	ents, err := os.ReadDir(filepath.Join(dir, ".corrupt"))
	if err != nil || len(ents) != 1 {
		t.Fatalf("quarantine dir: %v entries, err %v", len(ents), err)
	}
}
