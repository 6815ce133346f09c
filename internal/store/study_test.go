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
)

func testRecord(fp, name string) StudyRecord {
	return StudyRecord{
		Fingerprint: fp,
		Name:        name,
		Config:      []byte(`{"name":"` + name + `"}`),
		Points:      4,
	}
}

func TestStudyManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord("aa11", "alpha")
	if err := st.SaveStudy(rec); err != nil {
		t.Fatal(err)
	}

	// Same process: memory hit.
	got, ok := st.LoadStudy("aa11")
	if !ok {
		t.Fatal("LoadStudy missed a just-saved manifest")
	}
	rec.Version = studyVersion
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("LoadStudy = %+v, want %+v", got, rec)
	}

	// Fresh store over the same directory: disk round-trip.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok = st2.LoadStudy("aa11")
	if !ok {
		t.Fatal("LoadStudy missed after reopen")
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("reopened LoadStudy = %+v, want %+v", got, rec)
	}
}

func TestStudyManifestRequiresFingerprint(t *testing.T) {
	st, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveStudy(StudyRecord{Name: "x"}); err == nil {
		t.Fatal("SaveStudy accepted a record without a fingerprint")
	}
}

func TestStudyManifestMemoryOnly(t *testing.T) {
	st, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveStudy(testRecord("bb22", "beta")); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.LoadStudy("bb22"); !ok {
		t.Fatal("memory-only store lost a manifest")
	}
	if _, ok := st.LoadStudy("missing"); ok {
		t.Fatal("memory-only store invented a manifest")
	}
	if fps := st.StudyFingerprints(); !reflect.DeepEqual(fps, []string{"bb22"}) {
		t.Fatalf("StudyFingerprints = %v, want [bb22]", fps)
	}
}

// loadStudies reads every listed manifest, the way the query index does.
func loadStudies(st *Store) []StudyRecord {
	var out []StudyRecord
	for _, fp := range st.StudyFingerprints() {
		if rec, ok := st.LoadStudy(fp); ok {
			out = append(out, rec)
		}
	}
	return out
}

// encodeStudy returns the bytes a manifest file of rec holds.
func encodeStudy(t *testing.T, rec StudyRecord) []byte {
	t.Helper()
	rec.Version = studyVersion
	data, err := studyKind.codec.encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestStudyFingerprintsSortedUnion: the listing is sorted and merges the
// directory with the manifests only this process holds, each once.
func TestStudyFingerprintsSortedUnion(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Saved out of order.
	for _, fp := range []string{"cc33", "aa11", "bb22"} {
		if err := st.SaveStudy(testRecord(fp, "s-"+fp)); err != nil {
			t.Fatal(err)
		}
	}

	// A second store sharing the directory sees them purely from disk; a
	// manifest it failed to write stays listed beside them.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st2.studiesMem["ab12"] = encodeStudy(t, StudyRecord{Fingerprint: "ab12"})
	st2.studiesMem["bb22"] = encodeStudy(t, StudyRecord{Fingerprint: "bb22"})
	want := []string{"aa11", "ab12", "bb22", "cc33"}
	if got := st2.StudyFingerprints(); !reflect.DeepEqual(got, want) {
		t.Fatalf("StudyFingerprints = %v, want %v", got, want)
	}
}

func TestStudyManifestCorruptQuarantined(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveStudy(testRecord("dd44", "gamma")); err != nil {
		t.Fatal(err)
	}

	// Flip bytes on disk, then read through a fresh store (no memory mirror).
	path := st.studyPath("dd44")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.LoadStudy("dd44"); ok {
		t.Fatal("corrupt manifest loaded as valid")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt manifest was not quarantined")
	}
	ents, err := os.ReadDir(filepath.Join(dir, ".corrupt"))
	if err != nil || len(ents) == 0 {
		t.Fatalf("no quarantined file found: %v", err)
	}
}

func TestStudyManifestWrongAddressIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveStudy(testRecord("ee55", "delta")); err != nil {
		t.Fatal(err)
	}
	// Copy the valid file to a different fingerprint's address.
	data, err := os.ReadFile(st.studyPath("ee55"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.studyPath("ff66"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.LoadStudy("ff66"); ok {
		t.Fatal("misplaced manifest loaded under the wrong fingerprint")
	}
}

func TestFsckStudies(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveStudy(testRecord("aa11", "ok")); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveStudy(testRecord("bb22", "bad")); err != nil {
		t.Fatal(err)
	}
	// Corrupt one manifest and misplace a copy of the other.
	badPath := st.studyPath("bb22")
	data, err := os.ReadFile(badPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(badPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ok, err := os.ReadFile(st.studyPath("aa11"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.studyPath("cc33"), ok, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := Fsck(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StudiesOK != 1 || rep.StudiesCorrupt != 2 {
		t.Fatalf("scan: ok=%d corrupt=%d, want 1/2", rep.StudiesOK, rep.StudiesCorrupt)
	}
	if rep.Clean() {
		t.Fatal("report with corrupt studies claims clean")
	}

	rep, err = Fsck(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StudiesCorrupt != 2 || rep.Quarantined < 2 {
		t.Fatalf("repair: corrupt=%d quarantined=%d, want 2 and >=2", rep.StudiesCorrupt, rep.Quarantined)
	}

	rep, err = Fsck(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.StudiesOK != 1 {
		t.Fatalf("post-repair scan not clean: %+v", rep)
	}
}

// writeCountFS counts atomic writes under DIR/studies/.
type writeCountFS struct {
	FS
	mu     sync.Mutex
	writes int
}

func (w *writeCountFS) WriteFileAtomic(path string, data []byte) error {
	if filepath.Base(filepath.Dir(path)) == "studies" {
		w.mu.Lock()
		w.writes++
		w.mu.Unlock()
	}
	return w.FS.WriteFileAtomic(path, data)
}

func (w *writeCountFS) studyWrites() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writes
}

func TestSaveStudySkipsEqualRecord(t *testing.T) {
	wfs := &writeCountFS{FS: DiskFS}
	st, err := OpenFS(t.TempDir(), wfs)
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord("aa11", "alpha")
	rec.Exploration = &core.Exploration{Mode: "adaptive", Indices: []int{0, 2}}
	save := func(r StudyRecord, wantWrites int, wantGen int64) {
		t.Helper()
		if err := st.SaveStudy(r); err != nil {
			t.Fatal(err)
		}
		if got := wfs.studyWrites(); got != wantWrites {
			t.Fatalf("%d manifest writes, want %d", got, wantWrites)
		}
		if got := st.StudyGeneration(); got != wantGen {
			t.Fatalf("study generation %d, want %d", got, wantGen)
		}
	}
	save(rec, 1, 1)
	save(rec, 1, 1)
	// A different record is written and moves the generation.
	changed := rec
	changed.Points++
	save(changed, 2, 2)
	changed.Exploration = &core.Exploration{Mode: "adaptive", Indices: []int{0, 1}}
	save(changed, 3, 3)
}

func TestSaveStudyRetriesFailedWrite(t *testing.T) {
	shrinkBackoff(t)
	dir := t.TempDir()
	st, err := OpenFS(dir, &countdownFS{FS: DiskFS, fail: ioAttempts})
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord("aa11", "alpha")
	if err := st.SaveStudy(rec); err == nil {
		t.Fatal("SaveStudy reported success for a failed write")
	}
	if _, err := os.Stat(st.studyPath("aa11")); !os.IsNotExist(err) {
		t.Fatalf("manifest on disk after a failed write: %v", err)
	}
	// The next save of the equal record writes it, without moving the
	// generation: the mirror already held it.
	if err := st.SaveStudy(rec); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(st.studyPath("aa11")); err != nil {
		t.Fatalf("retried save left no manifest on disk: %v", err)
	}
	if g := st.StudyGeneration(); g != 1 {
		t.Fatalf("study generation %d, want 1", g)
	}
}

// TestReopenedStoreSkipsEqualManifest: a fresh store over a directory
// that already holds a manifest decides an equal save from the file, so a
// restarted server's first warm save writes nothing and moves no
// generation.
func TestReopenedStoreSkipsEqualManifest(t *testing.T) {
	dir := t.TempDir()
	writer, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord("aa11", "alpha")
	rec.Exploration = &core.Exploration{Mode: "adaptive", Indices: []int{0, 2}}
	if err := writer.SaveStudy(rec); err != nil {
		t.Fatal(err)
	}
	wfs := &writeCountFS{FS: DiskFS}
	st, err := OpenFS(dir, wfs)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveStudy(rec); err != nil {
		t.Fatal(err)
	}
	if n := wfs.studyWrites(); n != 0 {
		t.Fatalf("an equal save over a stored manifest wrote %d times, want 0", n)
	}
	if g := st.StudyGeneration(); g != 0 {
		t.Fatalf("an equal save moved the generation to %d, want 0", g)
	}
}

// TestLoadsManifestWithRunTelemetry: adaptive manifests once carried two
// run-telemetry fields (cache hits and characterizations) beside the
// exploration record. testdata/adaptive-telemetry-manifest.gob is such a
// manifest, written by `nvmexplorer run -store` for a budget-12 adaptive
// study whose first six points a budget-6 run had already stored. It must
// still load, with the same name, grid size and exploration record minus
// those fields. Its gob type definitions differ from today's encoding, so
// the first equal save rewrites the file once; later saves write nothing.
func TestLoadsManifestWithRunTelemetry(t *testing.T) {
	const fp = "564265a0a6fa9961341f5bda1148c09f037514ad9f088e801b9786355918e7ca"
	data, err := os.ReadFile(filepath.Join("testdata", "adaptive-telemetry-manifest.gob"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "studies"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "studies", fp+".gob"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	wfs := &writeCountFS{FS: DiskFS}
	st, err := OpenFS(dir, wfs)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := st.LoadStudy(fp)
	if !ok {
		t.Fatal("manifest with run telemetry did not load")
	}
	want := core.Exploration{
		Mode: "adaptive", Budget: 12, Seed: 42,
		ExhaustivePoints: 16, EvaluatedPoints: 10, PrunedBudget: 6, Rounds: 3,
		Indices: []int{0, 1, 2, 4, 7, 8, 9, 10, 12, 15},
	}
	if rec.Name != "adaptive-fixture" || rec.Points != 16 || rec.Exploration == nil ||
		!reflect.DeepEqual(*rec.Exploration, want) {
		t.Fatalf("loaded %q / %d points / %+v, want %q / 16 points / %+v",
			rec.Name, rec.Points, rec.Exploration, "adaptive-fixture", want)
	}
	for save := 1; save <= 3; save++ {
		if err := st.SaveStudy(rec); err != nil {
			t.Fatal(err)
		}
		if n := wfs.studyWrites(); n != 1 {
			t.Fatalf("save %d: %d manifest writes in all, want 1", save, n)
		}
		if g := st.StudyGeneration(); g != 1 {
			t.Fatalf("save %d: study generation %d, want 1", save, g)
		}
	}
}

// TestStudyGenerationCountsNewOrChangedSaves: reading manifests, stored or
// missing, moves no generation; a save moves it only when it stores a new
// or changed record.
func TestStudyGenerationCountsNewOrChangedSaves(t *testing.T) {
	dir := t.TempDir()
	writer, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range []string{"aa11", "bb22"} {
		if err := writer.SaveStudy(testRecord(fp, "x")); err != nil {
			t.Fatal(err)
		}
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.LoadStudy("aa11")
	st.LoadStudy("aa11")
	st.LoadStudy("cc33") // a miss
	if recs := loadStudies(st); len(recs) != 2 {
		t.Fatalf("listed %d manifests, want 2", len(recs))
	}
	if g := st.StudyGeneration(); g != 0 {
		t.Fatalf("generation %d after reads only, want 0", g)
	}
	save := func(rec StudyRecord, wantGen int64) {
		t.Helper()
		if err := st.SaveStudy(rec); err != nil {
			t.Fatal(err)
		}
		if g := st.StudyGeneration(); g != wantGen {
			t.Fatalf("generation %d after saving %s, want %d", g, rec.Fingerprint, wantGen)
		}
	}
	save(testRecord("aa11", "x"), 0) // equal to the file
	save(testRecord("cc33", "x"), 1) // new
	changed := testRecord("aa11", "x")
	changed.Points++
	save(changed, 2)
	save(changed, 2)
}

// residentStudies reports how many manifests a store keeps in memory and
// their bytes.
func residentStudies(st *Store) (records, size int) {
	st.studiesMu.Lock()
	defer st.studiesMu.Unlock()
	for fp, data := range st.studiesMem {
		records++
		size += len(fp) + len(data)
	}
	return records, size
}

// TestDirectoryStoreKeepsNoManifestResident: a directory store keeps
// nothing in memory for a saved manifest, so a stream of cold studies does
// not grow the heap; every record reads back from disk. A memory-only
// store is its own data and keeps them all.
func TestDirectoryStoreKeepsNoManifestResident(t *testing.T) {
	const n = 64
	config := bytes.Repeat([]byte("c"), 1500) // about a cold co-design config
	dir, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mem, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	fp := func(i int) string { return fmt.Sprintf("%064x", i) }
	for i := 0; i < n; i++ {
		rec := StudyRecord{Fingerprint: fp(i), Name: "cold", Config: config, Points: 8}
		for _, st := range []*Store{dir, mem} {
			if err := st.SaveStudy(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if records, size := residentStudies(dir); records != 0 {
		t.Fatalf("directory store keeps %d manifests (%d bytes) resident after %d saves, want 0", records, size, n)
	}
	if records, size := residentStudies(mem); records != n || size < n*len(config) {
		t.Fatalf("memory-only store keeps %d manifests (%d bytes) of %d", records, size, n)
	}
	for _, st := range []*Store{dir, mem} {
		fps := st.StudyFingerprints()
		if len(fps) != n {
			t.Fatalf("store %q lists %d studies, want %d", st.Dir(), len(fps), n)
		}
		for i, got := range fps {
			if got != fp(i) {
				t.Fatalf("store %q lists %s at %d, want %s", st.Dir(), got, i, fp(i))
			}
			rec, ok := st.LoadStudy(got)
			if !ok || rec.Fingerprint != got || !bytes.Equal(rec.Config, config) || rec.Points != 8 {
				t.Fatalf("store %q: LoadStudy(%s) = %+v, %v", st.Dir(), got, rec, ok)
			}
		}
	}
	if records, _ := residentStudies(dir); records != 0 {
		t.Fatalf("reads made %d directory-store manifests resident", records)
	}
}

// TestConcurrentSaveLoadStudies saves, loads and lists manifests from
// several goroutines at once, overlapping fingerprints (run it under
// -race): every manifest ends listed and readable, and a directory store
// keeps none resident.
func TestConcurrentSaveLoadStudies(t *testing.T) {
	const workers, studies = 4, 16
	dir, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mem, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*Store{dir, mem} {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < studies; i++ {
					fp := fmt.Sprintf("%02x", (i+w)%studies)
					if err := st.SaveStudy(testRecord(fp, "s-"+fp)); err != nil {
						t.Error(err)
						return
					}
					if _, ok := st.LoadStudy(fp); !ok {
						t.Errorf("store %q: LoadStudy(%s) missed after its save", st.Dir(), fp)
						return
					}
					st.StudyFingerprints()
				}
			}()
		}
		wg.Wait()
		if recs := loadStudies(st); len(recs) != studies {
			t.Fatalf("store %q reads back %d studies, want %d", st.Dir(), len(recs), studies)
		}
		if g := st.StudyGeneration(); g < studies {
			t.Fatalf("store %q generation %d after %d new studies", st.Dir(), g, studies)
		}
	}
	if records, _ := residentStudies(dir); records != 0 {
		t.Fatalf("directory store keeps %d manifests resident", records)
	}
}
