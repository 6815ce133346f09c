package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/nvsim"
	"repro/internal/traffic"
)

// testStudy builds a tiny two-point study with a per-point axis, so keys
// exercise the full coordinate set.
func testStudy() *core.Study {
	s := core.NewStudy("store-test")
	s.AddTentpole(cell.STT, cell.Optimistic)
	s.AddTentpole(cell.RRAM, cell.Pessimistic)
	s.AddCapacity(1 << 21)
	s.AddTarget(nvsim.OptReadEDP, nvsim.OptArea)
	s.AddPattern(traffic.Pattern{Name: "p", ReadsPerSec: 1e7, WritesPerSec: 1e5})
	return s
}

// runPoints computes every grid point of the study against the cache and
// returns the accumulated metrics (via RunStream, as the pipeline does).
func runPoints(t *testing.T, s *core.Study, c core.PointCache) *core.Results {
	t.Helper()
	s.Cache = c
	s.Workers = 1
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestStoreRoundTripAndPersistence(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	cold := runPoints(t, testStudy(), st)
	hits, misses := st.Stats()
	if hits != 0 || misses == 0 {
		t.Fatalf("cold run: hits=%d misses=%d, want 0 hits and >0 misses", hits, misses)
	}
	// A cold run writes every point through to disk and keeps none
	// resident; the warm re-read fills the mirror with all of them.
	files, err := filepath.Glob(filepath.Join(dir, "points", "*", "*.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 0 || int64(len(files)) != misses {
		t.Fatalf("cold run: %d resident, %d point file(s), want 0 and %d", st.Len(), len(files), misses)
	}

	// Same store, same study: every point replays from the store.
	coldHits, coldMisses := hits, misses
	warm := runPoints(t, testStudy(), st)
	if hits, misses = st.Stats(); misses != coldMisses || hits == coldHits {
		t.Fatalf("warm run: hits %d -> %d, misses %d -> %d, want new hits and no new misses",
			coldHits, hits, coldMisses, misses)
	}
	if st.Len() != len(files) {
		t.Fatalf("warm run: %d resident, want %d", st.Len(), len(files))
	}
	if !reflect.DeepEqual(cold.Metrics, warm.Metrics) {
		t.Fatal("warm metrics differ from cold")
	}

	// Fresh store over the same directory, cold engine: disk round-trip
	// must be exact and must never touch the characterization engine.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := testStudy()
	s2.Engine = nvsim.NewEngine()
	reopened := runPoints(t, s2, st2)
	if hits, misses = st2.Stats(); misses != 0 || hits == 0 {
		t.Fatalf("reopened run: hits=%d misses=%d, want 0 misses", hits, misses)
	}
	if es := s2.Engine.Stats(); es.MemoHits != 0 || es.MemoMisses != 0 {
		t.Fatalf("reopened run touched the engine: memo hits=%d misses=%d", es.MemoHits, es.MemoMisses)
	}
	if !reflect.DeepEqual(cold.Metrics, reopened.Metrics) {
		t.Fatal("reopened metrics differ from cold")
	}
	if !reflect.DeepEqual(cold.Arrays, reopened.Arrays) {
		t.Fatal("reopened arrays differ from cold")
	}
}

func TestStoreMemoryOnly(t *testing.T) {
	st, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	st.Put("k", core.CachedPoint{Skipped: []string{"s"}})
	if cp, ok := st.Get("k"); !ok || len(cp.Skipped) != 1 {
		t.Fatalf("memory-only Get = %+v, %v", cp, ok)
	}
	if _, ok := st.Get("absent"); ok {
		t.Fatal("Get(absent) hit")
	}
	if st.Dir() != "" || st.Health() != (HealthStats{}) {
		t.Fatalf("memory-only store: dir %q, health %+v", st.Dir(), st.Health())
	}
}

// TestOpenRefusesURLTarget: a URL is not a store. Open and Fsck refuse it
// with an error naming the removal, and nothing lands on disk — not even a
// directory named after the scheme.
func TestOpenRefusesURLTarget(t *testing.T) {
	cwd := t.TempDir()
	chdir(t, cwd)
	const target = "http://127.0.0.1:1"
	if st, err := Open(target); err == nil || !strings.Contains(err.Error(), "remote stores were removed") {
		t.Fatalf("Open(%q) = %v, %v; want the removal error", target, st, err)
	}
	if _, err := Fsck(target, true); err == nil || !strings.Contains(err.Error(), "remote stores were removed") {
		t.Fatalf("Fsck(%q) = %v; want the removal error", target, err)
	}
	if ents, err := os.ReadDir(cwd); err != nil || len(ents) != 0 {
		t.Fatalf("a refused URL target left %d entries on disk (%v)", len(ents), err)
	}
}

// chdir switches the working directory to dir until the test ends. The
// test must not run in parallel: the working directory is process-wide.
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	})
}

func TestStoreCorruptEntryReadsAsMiss(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Put("key", core.CachedPoint{Skipped: []string{"x"}})

	// A torn or foreign file must read as a miss, not an error or a wrong
	// result — and the next Put must repair it.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := st2.pointPath(addr("key"))
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Get("key"); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	st2.Put("key", core.CachedPoint{Skipped: []string{"x"}})
	st3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp, ok := st3.Get("key"); !ok || len(cp.Skipped) != 1 || cp.Skipped[0] != "x" {
		t.Fatalf("repaired entry = %+v, %v", cp, ok)
	}
}

func TestStoreKeyVerificationRejectsCollisions(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Put("key-a", core.CachedPoint{Skipped: []string{"a"}})
	// Simulate a (hash-)collision: copy a's file to b's address. The stored
	// canonical key won't match, so b must miss.
	b := "key-b"
	src, err := os.ReadFile(st.pointPath(addr("key-a")))
	if err != nil {
		t.Fatal(err)
	}
	dst := st.pointPath(addr(b))
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, src, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Get(b); ok {
		t.Fatal("foreign record served for mismatched key")
	}
}

// TestStoreLeavesUnknownVersionMemoInPlace: a memo snapshot older
// versions wrote (DIR/memo.gob) is a file this version never reads: Open
// leaves it untouched and serves nothing from it, and SaveMemo writes
// nothing.
func TestStoreLeavesUnknownVersionMemoInPlace(t *testing.T) {
	dir := t.TempDir()
	memoPath := filepath.Join(dir, "memo.gob")
	snapshot := []byte("a memo snapshot an older version wrote")
	if err := os.WriteFile(memoPath, snapshot, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := testStudy()
	s.Engine = nvsim.NewEngine()
	runPoints(t, s, st)
	if hits, misses := st.Stats(); hits != 0 || misses != 2 {
		t.Fatalf("store hits=%d misses=%d after Open, want a cold 0/2", hits, misses)
	}
	if misses := s.Engine.Stats().MemoMisses; misses != 2 {
		t.Fatalf("engine characterized %d config(s), want both", misses)
	}
	if err := st.SaveMemo(); err != nil {
		t.Fatal(err)
	}
	if h := st.Health(); h.Quarantined != 0 || h.IOErrors != 0 {
		t.Fatalf("health = %+v, want nothing quarantined or failed", h)
	}
	if got, err := os.ReadFile(memoPath); err != nil || !bytes.Equal(got, snapshot) {
		t.Fatalf("memo.gob changed: %q, %v", got, err)
	}
}

func TestPointKeySensitivity(t *testing.T) {
	s := testStudy()
	specs, err := s.Space()
	if err != nil {
		t.Fatal(err)
	}
	base := s.PointKey(specs[0])
	if s.PointKey(specs[0]) != base {
		t.Fatal("PointKey not deterministic")
	}
	if s.PointKey(specs[1]) == base {
		t.Fatal("distinct cells share a key")
	}

	// Every result-affecting coordinate must change the key.
	mutations := []func(*core.Study, *core.PointSpec){
		func(_ *core.Study, sp *core.PointSpec) { sp.CapacityBytes *= 2 },
		func(_ *core.Study, sp *core.PointSpec) { sp.WordBits = 128 },
		func(_ *core.Study, sp *core.PointSpec) { sp.Cell.ReadLatencyNS *= 1.5 },
		func(_ *core.Study, sp *core.PointSpec) { sp.Cell.BitsPerCell = 2 },
		func(_ *core.Study, sp *core.PointSpec) {
			sp.WriteBuffer = &eval.WriteBufferConfig{TrafficReduction: 0.5}
		},
		func(_ *core.Study, sp *core.PointSpec) {
			sp.Fault = &eval.FaultConfig{Mode: eval.FaultRaw, Seed: 7}
		},
		func(st *core.Study, _ *core.PointSpec) { st.Targets = st.Targets[:1] },
		func(st *core.Study, _ *core.PointSpec) { st.Patterns[0].Name = "renamed" },
		func(st *core.Study, _ *core.PointSpec) { st.Patterns[0].WritesPerSec++ },
		func(st *core.Study, _ *core.PointSpec) { st.MaxAreaMM2 = 5 },
	}
	for i, mutate := range mutations {
		ms := testStudy()
		spec := specs[0]
		mutate(ms, &spec)
		if ms.PointKey(spec) == base {
			t.Errorf("mutation %d did not change the point key", i)
		}
	}

	// The study name is presentation, not identity.
	renamed := testStudy()
	renamed.Name = "other"
	if renamed.PointKey(specs[0]) != base {
		t.Error("study name leaked into the point key")
	}
}

func TestFingerprint(t *testing.T) {
	a, err := testStudy().Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := testStudy().Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("fingerprint not deterministic")
	}
	renamed := testStudy()
	renamed.Name = "other"
	c, err := renamed.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("fingerprint ignores the study name (it shapes the output bytes)")
	}
	pareto := testStudy()
	pareto.Pareto = []string{"total_power_mw", "area_mm2"}
	d, err := pareto.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if d == a {
		t.Fatal("fingerprint ignores the Pareto selection")
	}

	// A study-wide word width and a single-valued word-bits axis enumerate
	// the *same* grid points, but output writers gate the WordBits column
	// on the axis being declared — so the fingerprints (and thus ETags and
	// async dedup keys) must differ even though every PointKey matches.
	ww := testStudy()
	ww.WordBits = 128
	wa := testStudy()
	wa.WordBitsAxis = []int{128}
	wwSpecs, err := ww.Space()
	if err != nil {
		t.Fatal(err)
	}
	waSpecs, err := wa.Space()
	if err != nil {
		t.Fatal(err)
	}
	if ww.PointKey(wwSpecs[0]) != wa.PointKey(waSpecs[0]) {
		t.Fatal("test premise broken: point keys should match across the two spellings")
	}
	fww, err := ww.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fwa, err := wa.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fww == fwa {
		t.Fatal("fingerprint ignores axis declaration (column gating) differences")
	}
}
