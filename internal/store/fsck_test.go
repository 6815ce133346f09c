package store

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// dirtyStore builds a store directory with one of everything fsck knows
// about: a good v2 point, a legacy v1 point, a corrupt point, a misplaced
// (wrong-address) point, one live job record, one corrupt job record, and
// two files older versions wrote: a memo snapshot and a job progress file.
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

	// Journal: one live job, one corrupt record.
	if err := st.JournalJob(JobRecord{ID: "job-1", Total: 4}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(st.jobsDir(), "job-2.job"), []byte("bad"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Legacy: a memo snapshot and a progress file (one 4-byte record).
	if err := os.WriteFile(filepath.Join(dir, "memo.gob"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(st.jobsDir(), "job-1.progress"), []byte{0, 0, 0, 0}, 0o644); err != nil {
		t.Fatal(err)
	}
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
	if rep.JobsIncomplete != 1 || rep.JobsCorrupt != 1 {
		t.Errorf("journal: incomplete=%d corrupt=%d, want 1/1", rep.JobsIncomplete, rep.JobsCorrupt)
	}
	if rep.Legacy != 2 { // memo.gob and job-1.progress
		t.Errorf("Legacy = %d, want 2", rep.Legacy)
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
	if rep.Quarantined != 3 { // torn point, misplaced point, corrupt job
		t.Errorf("Quarantined = %d, want 3", rep.Quarantined)
	}
	if rep.Removed != 2 { // the memo snapshot and the progress file
		t.Errorf("Removed = %d, want 2", rep.Removed)
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
	if rep2.PointsLegacy != 0 || rep2.PointsOK != 3 || rep2.Legacy != 0 {
		t.Errorf("after repair: ok=%d legacy points=%d legacy files=%d, want 3/0/0",
			rep2.PointsOK, rep2.PointsLegacy, rep2.Legacy)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp, ok := st.Get("legacy"); !ok || len(cp.Skipped) != 1 || cp.Skipped[0] != "l" {
		t.Fatalf("upgraded legacy point: %+v, %v", cp, ok)
	}
	// The live journal survived repair untouched.
	if jobs := st.IncompleteJobs(); len(jobs) != 1 || jobs[0].ID != "job-1" || jobs[0].Total != 4 {
		t.Fatalf("journal after repair: %+v", jobs)
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
