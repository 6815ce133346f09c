package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/nvsim"
)

// shrinkMirror sets the mirror budget for stores opened during a test.
func shrinkMirror(t testing.TB, budget int64) {
	t.Helper()
	old := mirrorBudget
	mirrorBudget = budget
	t.Cleanup(func() { mirrorBudget = old })
}

// mirrorPoint is a synthetic point whose value is a pure function of i,
// with rows enough to cost rows·sizeof(nvsim.Result) in the mirror.
func mirrorPoint(i, rows int) (string, core.CachedPoint) {
	arrays := make([]nvsim.Result, rows)
	for r := range arrays {
		arrays[r] = nvsim.Result{CapacityBytes: int64(i), WordBits: r + 1}
	}
	return fmt.Sprintf("mirror-point-%04d", i), core.CachedPoint{Arrays: arrays, Skipped: []string{fmt.Sprint(i)}}
}

// checkMirror verifies the mirror's accounting against its slots: the
// byte and pinned-byte totals, the address index, and the budget.
func checkMirror(t testing.TB, st *Store) {
	t.Helper()
	st.mu.Lock()
	defer st.mu.Unlock()
	m := &st.mem
	var used int
	var total, pinned int64
	for i, e := range m.slots {
		if !e.used {
			continue
		}
		used++
		total += e.cost
		if e.pinned {
			pinned += e.cost
		}
		if j, ok := m.at[pointSum(e.key)]; !ok || j != i || e.cost != pointCost(e.key, e.pt) {
			t.Fatalf("slot %d (%q) is mis-indexed or mis-costed", i, e.key)
		}
	}
	if used != len(m.at) || total != m.bytes || pinned != m.pinnedBytes {
		t.Fatalf("mirror accounting: %d used slots / %d indexed, %d / %d bytes, %d / %d pinned",
			used, len(m.at), total, m.bytes, pinned, m.pinnedBytes)
	}
	if m.bytes > m.budget {
		t.Fatalf("mirror holds %d bytes, over its %d-byte budget", m.bytes, m.budget)
	}
}

func residentBytes(st *Store) int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.mem.bytes
}

func isResident(st *Store, key string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	_, ok := st.mem.at[pointSum(key)]
	return ok
}

// TestPutKeepsNothingOnPersistentStore: on a directory store a Put writes
// through and keeps nothing resident; the first read fills the mirror.
func TestPutKeepsNothingOnPersistentStore(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	for i := 0; i < n; i++ {
		st.Put(mirrorPoint(i, 2))
	}
	if st.Len() != 0 || residentBytes(st) != 0 {
		t.Fatalf("%d point(s), %d bytes resident after puts, want none", st.Len(), residentBytes(st))
	}
	for i := 0; i < n; i++ {
		key, want := mirrorPoint(i, 2)
		if got, ok := st.Get(key); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("Get(%s) = %v, %v", key, got, ok)
		}
	}
	if st.Len() != n {
		t.Fatalf("%d point(s) resident after reads, want %d", st.Len(), n)
	}
	checkMirror(t, st)
}

// TestMirrorEvictsByBytes streams reads of more points than the budget
// holds through a directory store: residency never exceeds the budget, a
// point re-read between every two others survives the clock, and an
// evicted point's file still holds its record's exact encoding and serves
// the point again.
func TestMirrorEvictsByBytes(t *testing.T) {
	key0, pt0 := mirrorPoint(0, 4)
	shrinkMirror(t, 4*pointCost(key0, pt0)) // four points' worth
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const n, hot = 24, 1
	for i := 0; i < n; i++ {
		st.Put(mirrorPoint(i, 4))
	}
	hotKey, _ := mirrorPoint(hot, 4)

	// Point 0 enters the mirror first.
	st.Get(key0)
	if !isResident(st, key0) {
		t.Fatal("a read point is not resident")
	}
	st.Get(hotKey)
	for i := hot + 1; i < n; i++ {
		key, want := mirrorPoint(i, 4)
		if got, ok := st.Get(key); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("Get(%s) = %v, %v", key, got, ok)
		}
		if !isResident(st, hotKey) {
			t.Fatalf("a point re-read every sweep was evicted by read %d", i)
		}
		st.Get(hotKey)
		checkMirror(t, st)
	}
	if isResident(st, key0) || st.Len() > 4 {
		t.Fatalf("streaming %d points through a 4-point mirror left %d resident (point 0: %v)",
			n, st.Len(), isResident(st, key0))
	}

	want, err := pointKind.codec.encode(pointPayload{Key: key0, Point: pt0})
	if err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(st.pointPath(addr(key0))); err != nil || !bytes.Equal(data, want) {
		t.Fatalf("an evicted point's file differs from its record encoding (read error: %v)", err)
	}
	if got, ok := st.Get(key0); !ok || !reflect.DeepEqual(got, pt0) {
		t.Fatalf("evicted point re-read: %v, %v", got, ok)
	}
	checkMirror(t, st)

	// A point that alone exceeds the budget is served but never cached:
	// it must not flush the mirror for nothing.
	bigKey, big := mirrorPoint(n, 17)
	st.Put(bigKey, big)
	before := st.Len()
	if got, ok := st.Get(bigKey); !ok || !reflect.DeepEqual(got, big) || st.Len() != before {
		t.Fatalf("over-budget point: ok=%v, resident %d -> %d", ok, before, st.Len())
	}
}

// TestFailedWritesStayPinnedUnderEviction: a point whose write failed is
// the store's only copy, so reads streaming past the budget evict cached
// points around it but never it.
func TestFailedWritesStayPinnedUnderEviction(t *testing.T) {
	shrinkBackoff(t)
	key0, pt0 := mirrorPoint(0, 2)
	shrinkMirror(t, 4*pointCost(key0, pt0))
	const pinned, n = 2, 16
	st, err := OpenFS(t.TempDir(), &countdownFS{FS: DiskFS, fail: pinned * ioAttempts})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		st.Put(mirrorPoint(i, 2))
	}
	if st.Degraded() || st.Len() != pinned {
		t.Fatalf("after %d failed writes: degraded=%v, %d resident, want false and %d", pinned, st.Degraded(), st.Len(), pinned)
	}
	for i := pinned; i < n; i++ {
		key, want := mirrorPoint(i, 2)
		if got, ok := st.Get(key); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("Get(%s) = %v, %v", key, got, ok)
		}
		checkMirror(t, st)
	}
	for i := 0; i < pinned; i++ {
		if key, _ := mirrorPoint(i, 2); !isResident(st, key) {
			t.Fatalf("pinned point %s was evicted", key)
		}
	}
}

// TestMemoryOnlyStoreKeepsPointsUntilDegraded: a memory-only store is its
// own data. It keeps every point up to the budget; past it, a new point is
// dropped and the store reports degraded, while every kept point still
// serves.
func TestMemoryOnlyStoreKeepsPointsUntilDegraded(t *testing.T) {
	key0, pt0 := mirrorPoint(0, 2)
	shrinkMirror(t, 3*pointCost(key0, pt0))
	st, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		st.Put(mirrorPoint(i, 2))
	}
	if st.Degraded() || st.Len() != 3 {
		t.Fatalf("within budget: degraded=%v, %d resident, want false and 3", st.Degraded(), st.Len())
	}
	key3, pt3 := mirrorPoint(3, 2)
	st.Put(key3, pt3)
	if !st.Degraded() || !st.Health().Degraded {
		t.Fatal("a memory-only store dropped a point without reporting degraded")
	}
	if _, ok := st.Get(key3); ok {
		t.Fatal("a point past the budget was kept")
	}
	for i := 0; i < 3; i++ {
		key, want := mirrorPoint(i, 2)
		if got, ok := st.Get(key); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("a pinned point was lost past the budget: Get(%s) = %v, %v", key, got, ok)
		}
	}
	checkMirror(t, st)
}

// TestDegradedLocalStoreServesPutsFromMemory: when the disk refuses writes,
// each point the backend failed to take is pinned in the mirror — before
// the store degrades and after — and served from memory.
func TestDegradedLocalStoreServesPutsFromMemory(t *testing.T) {
	shrinkBackoff(t)
	dir := t.TempDir()
	ffs := newFaultyFS(7, 0, 1.0, 0) // every write fails
	st, err := OpenFS(dir, ffs)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2 * degradeAfter
	for i := 0; i < n; i++ {
		st.Put(mirrorPoint(i, 2))
	}
	if !st.Degraded() {
		t.Fatal("store never degraded under a dead disk")
	}
	if st.Len() != n {
		t.Fatalf("%d point(s) resident, want all %d the disk refused", st.Len(), n)
	}
	for i := 0; i < n; i++ {
		key, want := mirrorPoint(i, 2)
		if got, ok := st.Get(key); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("Get(%s) = %v, %v", key, got, ok)
		}
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "points", "*", "*.gob")); len(files) != 0 {
		t.Fatalf("a refused write left %d point file(s) on disk", len(files))
	}
	checkMirror(t, st)
}

// TestMirrorConcurrentGetPutProbeEvict races Get, Put and Probe over a key
// set several times the budget, so eviction runs throughout. Run it with
// -race -count=10.
func TestMirrorConcurrentGetPutProbeEvict(t *testing.T) {
	key0, pt0 := mirrorPoint(0, 3)
	shrinkMirror(t, 6*pointCost(key0, pt0))
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const keys, workers, ops = 32, 4, 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for op := 0; op < ops; op++ {
				i := (op*7 + w*13) % keys
				key, want := mirrorPoint(i, 3)
				switch op % 3 {
				case 0:
					st.Put(key, want)
				case 1:
					if got, ok := st.Get(key); ok && !reflect.DeepEqual(got, want) {
						t.Errorf("Get(%s) returned a wrong point", key)
						return
					}
				case 2:
					st.Probe(key)
				}
			}
		}(w)
	}
	wg.Wait()
	checkMirror(t, st)
}

// firstKey returns one concrete point key of the test study.
func firstKey(t testing.TB) string {
	t.Helper()
	s := testStudy()
	specs, err := s.Space()
	if err != nil {
		t.Fatal(err)
	}
	return s.PointKey(specs[0])
}

// benchPoint keeps the compiler from dropping a benchmarked Get.
var benchPoint core.CachedPoint

// BenchmarkStoreMirrorGet is a warm hit through the clock mirror: it must
// not allocate.
func BenchmarkStoreMirrorGet(b *testing.B) {
	st, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	_, pt := mirrorPoint(0, 8)
	key := firstKey(b) // a real canonical key: hashing it is the hit's main cost
	st.Put(key, pt)
	if _, ok := st.Get(key); !ok {
		b.Fatal("miss")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPoint, _ = st.Get(key)
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(100, func() { st.Get(key) }); allocs != 0 {
		b.Fatalf("warm Get allocates %.0f times", allocs)
	}
}

// BenchmarkStorePutCold writes fresh points to a local store and reports
// what stays resident, which should be nothing.
func BenchmarkStorePutCold(b *testing.B) {
	st, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	pts := make([]core.CachedPoint, 64)
	keys := make([]string, len(pts))
	for i := range pts {
		keys[i], pts[i] = mirrorPoint(i, 8)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Put(fmt.Sprintf("%s-%d", keys[i%len(keys)], i), pts[i%len(pts)])
	}
	b.StopTimer()
	b.ReportMetric(float64(residentBytes(st)), "resident-B")
}
