package store

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
)

func TestJournalRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := JobRecord{
		ID:          "job-3",
		Fingerprint: "abc123",
		Name:        "crash test",
		Format:      "ndjson",
		Config:      []byte(`{"name":"crash test","pareto":{"metrics":["read_latency_ns","area_mm2"]}}`),
		Total:       12,
	}
	if err := st.JournalJob(rec); err != nil {
		t.Fatal(err)
	}

	got := st.IncompleteJobs()
	if len(got) != 1 {
		t.Fatalf("IncompleteJobs = %d records, want 1", len(got))
	}
	want := rec
	want.Version = journalVersion
	if !reflect.DeepEqual(got[0], want) {
		t.Fatalf("replayed record mismatch:\n got %+v\nwant %+v", got[0], want)
	}

	st.JournalDone(rec.ID)
	if left := st.IncompleteJobs(); len(left) != 0 {
		t.Fatalf("journal not cleared after JournalDone: %+v", left)
	}
}

// TestJournalReplayOrderAndTornProgress: replay comes back in submission
// order, and a progress file an older version left beside a job record —
// here with a torn tail — is neither read nor removed.
func TestJournalReplayOrderAndTornProgress(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Journal out of submission order; replay must come back in ID order.
	for _, id := range []string{"job-10", "job-2", "job-7"} {
		if err := st.JournalJob(JobRecord{ID: id, Total: 4}); err != nil {
			t.Fatal(err)
		}
	}
	progress := filepath.Join(st.jobsDir(), "job-2.progress")
	if err := os.WriteFile(progress, []byte{0, 0, 0, 0, 1, 0, 0, 0, 0xFF, 0x01}, 0o644); err != nil {
		t.Fatal(err)
	}

	got := st.IncompleteJobs()
	ids := make([]string, len(got))
	for i, r := range got {
		ids[i] = r.ID
	}
	if want := []string{"job-2", "job-7", "job-10"}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("replay order = %v, want %v", ids, want)
	}
	if !reflect.DeepEqual(got[0], JobRecord{Version: journalVersion, ID: "job-2", Total: 4}) {
		t.Fatalf("job-2 replayed as %+v", got[0])
	}
	st.JournalDone("job-2")
	if _, err := os.Stat(progress); err != nil {
		t.Fatalf("JournalDone touched the legacy progress file: %v", err)
	}
}

func TestJournalSkipsCorruptAndForeignRecords(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.JournalJob(JobRecord{ID: "job-1", Total: 2}); err != nil {
		t.Fatal(err)
	}
	// A corrupt job record: quarantined and skipped.
	badPath := filepath.Join(st.jobsDir(), "job-2.job")
	if err := os.WriteFile(badPath, []byte("shredded"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A record from a future format version: skipped, but left in place.
	var future bytes.Buffer
	env := envelope{Version: "nvmx-journal/v99", Sum: 0, Payload: []byte("opaque")}
	if err := gob.NewEncoder(&future).Encode(&env); err != nil {
		t.Fatal(err)
	}
	futurePath := filepath.Join(st.jobsDir(), "job-3.job")
	if err := os.WriteFile(futurePath, future.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	got := st.IncompleteJobs()
	if len(got) != 1 || got[0].ID != "job-1" {
		t.Fatalf("IncompleteJobs = %+v, want only job-1", got)
	}
	if _, err := os.Stat(badPath); !os.IsNotExist(err) {
		t.Fatal("corrupt job record not quarantined")
	}
	if _, err := os.Stat(futurePath); err != nil {
		t.Fatalf("future-version record should be left untouched: %v", err)
	}
	if h := st.Health(); h.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", h.Quarantined)
	}
}

func TestJournalMemoryOnlyNoOps(t *testing.T) {
	st, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.JournalJob(JobRecord{ID: "job-1"}); err != nil {
		t.Fatalf("memory-only JournalJob: %v", err)
	}
	st.JournalDone("job-1")
	if got := st.IncompleteJobs(); got != nil {
		t.Fatalf("memory-only IncompleteJobs = %v, want nil", got)
	}
	// Memory-only stores still serve points, of course.
	st.Put("k", core.CachedPoint{Skipped: []string{"s"}})
	if _, ok := st.Get("k"); !ok {
		t.Fatal("memory-only Get missed a fresh Put")
	}
}

func TestJobSeq(t *testing.T) {
	for id, want := range map[string]int{"job-1": 1, "job-42": 42, "job-": 0, "job-x": 0, "42": 42, "": 0} {
		if got := JobSeq(id); got != want {
			t.Errorf("JobSeq(%q) = %d, want %d", id, got, want)
		}
	}
}
