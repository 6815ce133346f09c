package query

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
)

// countingFS counts listings of the store's studies/ directory and reads
// of the manifests in it.
type countingFS struct {
	store.FS
	studyLists, studyReads atomic.Int64
}

func (c *countingFS) ReadFile(path string) ([]byte, error) {
	if filepath.Base(filepath.Dir(path)) == "studies" {
		c.studyReads.Add(1)
	}
	return c.FS.ReadFile(path)
}

func (c *countingFS) ReadDir(path string) ([]fs.DirEntry, error) {
	if filepath.Base(path) == "studies" {
		c.studyLists.Add(1)
	}
	return c.FS.ReadDir(path)
}

// setRelistAfter changes the relisting bound for one test.
func setRelistAfter(t *testing.T, d time.Duration) {
	old := relistAfter
	relistAfter = d
	t.Cleanup(func() { relistAfter = old })
}

func TestRefreshSkipsUnchangedStore(t *testing.T) {
	setRelistAfter(t, time.Hour) // only the store generation may trigger a listing
	cfs := &countingFS{FS: store.DiskFS}
	st, err := store.OpenFS(t.TempDir(), cfs)
	if err != nil {
		t.Fatal(err)
	}
	seedStudy(t, st, alphaConfig)
	ix := New(st)
	g1 := ix.Refresh()
	if cfs.studyLists.Load() == 0 {
		t.Fatal("the first Refresh did not list the store")
	}

	cfs.studyLists.Store(0)
	for i := 0; i < 100; i++ {
		if g := ix.Refresh(); g != g1 {
			t.Fatalf("unchanged refresh moved the generation %d -> %d", g1, g)
		}
	}
	if n := cfs.studyLists.Load(); n != 0 {
		t.Fatalf("100 unchanged refreshes listed studies/ %d times, want 0", n)
	}

	// An in-process save is visible to the very next Refresh.
	fp, _ := seedStudy(t, st, gridConfig)
	if g := ix.Refresh(); g <= g1 {
		t.Fatalf("a saved study did not move the generation (%d -> %d)", g1, g)
	}
	if _, err := ix.Query(Request{Studies: []string{fp}}); err != nil {
		t.Fatalf("saved study not queryable after one Refresh: %v", err)
	}
}

// TestRefreshRetriesIncompleteOnlyWhenPointsMove checks that an incomplete
// manifest does not make every Refresh list the store: it is retried when
// this process stores a point, or once the listing bound expires.
func TestRefreshRetriesIncompleteOnlyWhenPointsMove(t *testing.T) {
	setRelistAfter(t, time.Hour)
	cfs := &countingFS{FS: store.DiskFS}
	st, err := store.OpenFS(t.TempDir(), cfs)
	if err != nil {
		t.Fatal(err)
	}
	// A manifest whose points are not in this store (an interrupted run).
	scratch, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := runStudy(t, scratch, alphaConfig)
	if err := st.SaveStudy(rec); err != nil {
		t.Fatal(err)
	}
	ix := New(st)
	g1 := ix.Refresh()
	if s := ix.Stats(); s.Incomplete != 1 || s.Studies != 0 {
		t.Fatalf("stats = %+v, want one incomplete study", s)
	}

	cfs.studyLists.Store(0)
	_, misses := st.Stats()
	for i := 0; i < 100; i++ {
		if g := ix.Refresh(); g != g1 {
			t.Fatalf("unchanged refresh moved the generation %d -> %d", g1, g)
		}
	}
	if n := cfs.studyLists.Load(); n != 0 {
		t.Fatalf("100 refreshes with one incomplete manifest listed studies/ %d times, want 0", n)
	}
	if _, m := st.Stats(); m != misses {
		t.Fatalf("100 refreshes probed the store for missing points: misses %d -> %d", misses, m)
	}

	// Storing the missing points in-process completes the study on the
	// next Refresh, though the re-saved manifest is equal and moves no
	// manifest generation.
	runStudy(t, st, alphaConfig)
	if err := st.SaveStudy(rec); err != nil {
		t.Fatal(err)
	}
	if g := ix.Refresh(); g <= g1 {
		t.Fatalf("completing the study did not move the generation (%d -> %d)", g1, g)
	}
	if _, err := ix.Query(Request{Studies: []string{rec.Fingerprint}}); err != nil {
		t.Fatalf("completed study not queryable after one Refresh: %v", err)
	}
}

func TestRefreshSeesOutOfProcessWriter(t *testing.T) {
	setRelistAfter(t, time.Hour)
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	seedStudy(t, st, alphaConfig)
	ix := New(st)
	ix.Refresh()

	// Another process writing the same directory, as `run -store` does.
	other, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fp, _ := seedStudy(t, other, gridConfig)

	// Within the bound the index need not see it...
	ix.Refresh()
	if _, err := ix.Query(Request{Studies: []string{fp}}); !errors.Is(err, ErrUnknownStudy) {
		t.Fatalf("query inside the bound: err = %v, want ErrUnknownStudy", err)
	}
	// ...once the last listing is older than the bound, the next Refresh
	// lists the store and finds it.
	relistAfter = 10 * time.Millisecond
	time.Sleep(2 * relistAfter)
	ix.Refresh()
	if _, err := ix.Query(Request{Studies: []string{fp}}); err != nil {
		t.Fatalf("query past the bound: %v", err)
	}

	// Load by fingerprint never waits for the bound.
	relistAfter = time.Hour
	fp2, _ := seedStudy(t, other, alphaNamed("beta"))
	if res, found, err := ix.Load(fp2); !found || err != nil || len(res.Metrics) == 0 {
		t.Fatalf("Load of another process's study = found=%v err=%v", found, err)
	}
}

// TestConcurrentSaveRefreshQuery saves studies while readers refresh and
// query (run it under -race): every answer is whole studies, generations
// never go back, and every saved study is loaded at the end.
func TestConcurrentSaveRefreshQuery(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const studies = 24
	recs := make([]store.StudyRecord, studies)
	var rows int
	for k := range recs {
		rec, res := runStudy(t, st, alphaNamed(fmt.Sprintf("s%02d", k)))
		recs[k], rows = rec, len(res.Metrics)
	}
	ix := New(st)
	ix.Refresh()

	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last int64
			for {
				select {
				case <-done:
					return
				default:
				}
				g := ix.Refresh()
				if g < last {
					t.Errorf("generation went back %d -> %d", last, g)
					return
				}
				last = g
				resp, err := ix.Query(Request{Sort: "total_power_mw", Technology: "STT"})
				if err != nil {
					t.Error(err)
					return
				}
				if resp.Generation < last || resp.Rows%(rows/2) != 0 {
					t.Errorf("query at generation %d returned %d rows", resp.Generation, resp.Rows)
					return
				}
			}
		}()
	}
	for _, rec := range recs {
		if err := st.SaveStudy(rec); err != nil {
			t.Error(err)
		}
	}
	close(done)
	wg.Wait()
	ix.Refresh()
	if got := ix.Stats().Studies; got != studies {
		t.Fatalf("index holds %d studies, want %d", got, studies)
	}
}

// queryBytes is the mean heap allocation of one query, measured on one
// processor like testing.AllocsPerRun.
func queryBytes(t *testing.T, ix *Index, req Request) uint64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 100
	if _, err := ix.Query(req); err != nil { // warm up
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := ix.Query(req); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestTopKQueryBytesIndependentOfStudies checks that a top-k query's
// allocation follows k, not the store: twice the studies, same bytes.
func TestTopKQueryBytesIndependentOfStudies(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	ix := New(st)
	req := Request{Sort: "total_power_mw", Top: 10}
	var small uint64
	for k := 0; k < 32; k++ {
		seedStudy(t, st, alphaNamed(fmt.Sprintf("s%02d", k)))
		if k == 15 {
			ix.Refresh()
			small = queryBytes(t, ix, req)
		}
	}
	ix.Refresh()
	if n := ix.Stats().Studies; n != 32 {
		t.Fatalf("index holds %d studies, want 32", n)
	}
	if large := queryBytes(t, ix, req); large > small+small/20 {
		t.Fatalf("top-10 query: %d B over 32 studies, %d B over 16; want no growth", large, small)
	}
}

// TestRefreshReadsOnlyUnindexedManifests: a relisting Refresh, and a
// study listing, read the manifests the index does not hold yet, never the
// indexed ones again.
func TestRefreshReadsOnlyUnindexedManifests(t *testing.T) {
	setRelistAfter(t, 0) // every Refresh lists
	cfs := &countingFS{FS: store.DiskFS}
	st, err := store.OpenFS(t.TempDir(), cfs)
	if err != nil {
		t.Fatal(err)
	}
	seedStudy(t, st, alphaConfig)
	seedStudy(t, st, gridConfig)
	ix := New(st)
	ix.Refresh()
	if n := cfs.studyReads.Load(); n != 2 {
		t.Fatalf("the first Refresh read %d manifests, want 2", n)
	}
	cfs.studyReads.Store(0)
	for i := 0; i < 10; i++ {
		ix.Refresh()
	}
	if n := cfs.studyReads.Load(); n != 0 {
		t.Fatalf("10 refreshes over an indexed store read %d manifests, want 0", n)
	}
	if got := ix.Studies(); len(got) != 2 || !got[0].Complete || !got[1].Complete {
		t.Fatalf("Studies = %+v, want both studies complete", got)
	}
	if n := cfs.studyReads.Load(); n != 0 {
		t.Fatalf("listing an indexed store read %d manifests, want 0", n)
	}
	fp, _ := seedStudy(t, st, alphaNamed("alpha-2"))
	ix.Refresh()
	if n := cfs.studyReads.Load(); n != 1 {
		t.Fatalf("a Refresh after one new study read %d manifests, want 1", n)
	}
	if _, err := ix.Query(Request{Studies: []string{fp}}); err != nil {
		t.Fatalf("new study not queryable: %v", err)
	}
}
