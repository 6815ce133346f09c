package store

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/nvsim"
)

// v1MemoSnapshot is a memo.gob as the v1 engine wrote it — every
// admissible candidate per key under the old version string — that this
// binary must read as an unknown version, not as corruption.
func v1MemoSnapshot(t *testing.T) []byte {
	t.Helper()
	type entryV1 struct {
		Config nvsim.Config
		Cands  []nvsim.Result
	}
	type snapshotV1 struct {
		Version string
		Entries []entryV1
	}
	cfg := nvsim.Config{Cell: cell.MustTentpole(cell.STT, cell.Optimistic),
		CapacityBytes: 1 << 20, WordBits: nvsim.DefaultWordBits}
	cands, err := nvsim.CharacterizeAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	snap := snapshotV1{Version: "nvmx-memo/v1", Entries: []entryV1{{cfg, cands}}}
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// dirtyStore builds a store directory with one of everything fsck knows
// about: a good v2 point, a legacy v1 point, a corrupt point, a misplaced
// (wrong-address) point, a junk memo snapshot, one live job journal, one
// corrupt job record, and one orphan progress file.
func dirtyStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Put("good", core.CachedPoint{Skipped: []string{"g"}})

	// A legacy v1 file, hand-written the way the pre-checksum store did it.
	legacyKey := "legacy"
	var buf bytes.Buffer
	rec := recordV1{Version: recordVersionV1, Key: legacyKey, Point: core.CachedPoint{Skipped: []string{"l"}}}
	if err := gob.NewEncoder(&buf).Encode(&rec); err != nil {
		t.Fatal(err)
	}
	legacyPath := st.pointPath(addr(legacyKey))
	if err := os.MkdirAll(filepath.Dir(legacyPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(legacyPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// A torn point file.
	st.Put("torn", core.CachedPoint{Skipped: []string{"t"}})
	if err := os.WriteFile(st.pointPath(addr("torn")), []byte("shredded"), 0o644); err != nil {
		t.Fatal(err)
	}

	// A valid record copied to the wrong address (its key no longer matches
	// the file name).
	st.Put("moved", core.CachedPoint{Skipped: []string{"m"}})
	src, err := os.ReadFile(st.pointPath(addr("moved")))
	if err != nil {
		t.Fatal(err)
	}
	wrong := st.pointPath(addr("somewhere-else"))
	if err := os.MkdirAll(filepath.Dir(wrong), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wrong, src, 0o644); err != nil {
		t.Fatal(err)
	}

	// Junk memo snapshot.
	if err := os.WriteFile(filepath.Join(dir, "memo.gob"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Journal: one live job, one corrupt record, one orphan progress file.
	if err := st.JournalJob(JobRecord{ID: "job-1", Total: 4}); err != nil {
		t.Fatal(err)
	}
	st.JournalPoint("job-1", 0)
	if err := os.WriteFile(filepath.Join(st.jobsDir(), "job-2.job"), []byte("bad"), 0o644); err != nil {
		t.Fatal(err)
	}
	st.JournalPoint("job-9", 3) // no job-9.job: orphan
	return dir
}

func TestFsckScanReportsEverything(t *testing.T) {
	dir := dirtyStore(t)
	rep, err := Fsck(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("scan of a dirty store reported clean")
	}
	if rep.PointsOK != 2 { // "good" and "moved" (at its right address)
		t.Errorf("PointsOK = %d, want 2", rep.PointsOK)
	}
	if rep.PointsLegacy != 1 {
		t.Errorf("PointsLegacy = %d, want 1", rep.PointsLegacy)
	}
	if rep.PointsCorrupt != 2 { // the torn file and the misplaced copy
		t.Errorf("PointsCorrupt = %d, want 2", rep.PointsCorrupt)
	}
	if !rep.MemoPresent || !rep.MemoCorrupt {
		t.Errorf("memo: present=%v corrupt=%v, want both true", rep.MemoPresent, rep.MemoCorrupt)
	}
	if rep.JobsIncomplete != 1 || rep.JobsCorrupt != 1 || rep.OrphanProgress != 1 {
		t.Errorf("journal: incomplete=%d corrupt=%d orphan=%d, want 1/1/1",
			rep.JobsIncomplete, rep.JobsCorrupt, rep.OrphanProgress)
	}
	// A scan is read-only: nothing quarantined, repaired, or removed.
	if rep.Repaired+rep.Quarantined+rep.Removed != 0 {
		t.Errorf("read-only scan took repair actions: %+v", rep)
	}
	if rep.Summary() == "" {
		t.Error("empty summary")
	}
}

func TestFsckRepairHealsTheStore(t *testing.T) {
	dir := dirtyStore(t)
	rep, err := Fsck(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired != 1 { // the legacy file, rewritten as v2
		t.Errorf("Repaired = %d, want 1", rep.Repaired)
	}
	if rep.Quarantined != 4 { // torn point, misplaced point, memo, corrupt job
		t.Errorf("Quarantined = %d, want 4", rep.Quarantined)
	}
	if rep.Removed != 1 { // the orphan progress file
		t.Errorf("Removed = %d, want 1", rep.Removed)
	}

	// After repair the store is clean, and the upgraded legacy file now
	// reads as a current-format hit.
	rep2, err := Fsck(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Clean() {
		t.Fatalf("store not clean after repair: %+v", rep2)
	}
	if rep2.PointsLegacy != 0 || rep2.PointsOK != 3 {
		t.Errorf("after repair: ok=%d legacy=%d, want 3/0", rep2.PointsOK, rep2.PointsLegacy)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp, ok := st.Get("legacy"); !ok || len(cp.Skipped) != 1 || cp.Skipped[0] != "l" {
		t.Fatalf("upgraded legacy point: %+v, %v", cp, ok)
	}
	// The live journal survived repair untouched.
	if jobs := st.IncompleteJobs(); len(jobs) != 1 || jobs[0].ID != "job-1" || jobs[0].Completed != 1 {
		t.Fatalf("journal after repair: %+v", jobs)
	}
}

// TestFsckLeavesUnknownVersionMemo: an upgraded store's v1 memo snapshot
// is reported as unknown-version, keeps the store clean, and survives
// repair (the next SaveMemo overwrites it).
func TestFsckLeavesUnknownVersionMemo(t *testing.T) {
	dir := t.TempDir()
	memoPath := filepath.Join(dir, "memo.gob")
	if err := os.WriteFile(memoPath, v1MemoSnapshot(t), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, repair := range []bool{false, true} {
		rep, err := Fsck(dir, repair)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.MemoPresent || !rep.MemoUnknown || rep.MemoCorrupt || !rep.Clean() {
			t.Fatalf("repair=%v: %+v, want a clean report with an unknown-version memo", repair, rep)
		}
		if rep.Quarantined != 0 {
			t.Fatalf("repair=%v quarantined %d file(s)", repair, rep.Quarantined)
		}
		if !strings.Contains(rep.Summary(), "memo: snapshot unknown-version (left in place)") {
			t.Fatalf("summary:\n%s", rep.Summary())
		}
	}
	if _, err := os.Stat(memoPath); err != nil {
		t.Fatalf("unknown-version memo snapshot moved: %v", err)
	}
}

func TestFsckRejectsMissingStore(t *testing.T) {
	if _, err := Fsck("", false); err == nil {
		t.Fatal("fsck of empty dir string succeeded")
	}
	if _, err := Fsck(filepath.Join(t.TempDir(), "nope"), false); err == nil {
		t.Fatal("fsck of a nonexistent directory succeeded")
	}
}
