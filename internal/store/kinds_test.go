package store

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// faultKind is one on-disk record kind as the fault table drives it.
type faultKind struct {
	// report is the kind's FsckReport JSON prefix; okKey names its
	// ok counter (jobs count as incomplete).
	report, okKey string
	// write stores one valid record through the public API and returns its
	// file plus the path a misplaced copy goes to.
	write func(t *testing.T, st *Store) (path, misplaced string)
	// served live-reads the kind through a fresh store and counts the
	// records it serves, trying both the record's own identity and the
	// misplaced copy's.
	served func(st *Store) int
}

var faultKinds = []faultKind{
	{
		report: "points", okKey: "points_ok",
		write: func(t *testing.T, st *Store) (string, string) {
			st.Put("fault-key", core.CachedPoint{Skipped: []string{"f"}})
			return st.pointPath(addr("fault-key")), st.pointPath(addr("fault-elsewhere"))
		},
		served: func(st *Store) int {
			n := 0
			for _, key := range []string{"fault-key", "fault-elsewhere"} {
				if _, ok := st.Get(key); ok {
					n++
				}
			}
			return n
		},
	},
	{
		report: "studies", okKey: "studies_ok",
		write: func(t *testing.T, st *Store) (string, string) {
			if err := st.SaveStudy(StudyRecord{Fingerprint: "fp-fault", Name: "fault", Points: 1}); err != nil {
				t.Fatal(err)
			}
			return st.studyPath("fp-fault"), st.studyPath("fp-elsewhere")
		},
		served: func(st *Store) int { return len(loadStudies(st)) },
	},
	{
		report: "jobs", okKey: "jobs_incomplete",
		write: func(t *testing.T, st *Store) (string, string) {
			if err := st.JournalJob(JobRecord{ID: "job-1", Total: 2}); err != nil {
				t.Fatal(err)
			}
			return filepath.Join(st.jobsDir(), "job-1.job"), filepath.Join(st.jobsDir(), "job-5.job")
		},
		served: func(st *Store) int { return len(st.IncompleteJobs()) },
	},
}

// reframe re-stamps a record's envelope with a version no binary writes,
// keeping its checksum valid.
func reframe(t *testing.T, data []byte) []byte {
	t.Helper()
	var env envelope
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&env); err != nil {
		t.Fatal(err)
	}
	env.Version = env.Version[:strings.LastIndex(env.Version, "/")] + "/v99"
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(&env); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// faults damage a freshly written record file; the table's expectations
// are keyed by fault name.
var faults = []struct {
	name  string
	apply func(t *testing.T, path, misplaced string)
}{
	{"ok", func(*testing.T, string, string) {}},
	{"torn", func(t *testing.T, path, _ string) {
		rewrite(t, path, func(b []byte) []byte { return b[:len(b)/2] })
	}},
	{"bitflip", func(t *testing.T, path, _ string) {
		rewrite(t, path, func(b []byte) []byte { b[len(b)-3] ^= 0x40; return b })
	}},
	{"unknown", func(t *testing.T, path, _ string) {
		rewrite(t, path, func(b []byte) []byte { return reframe(t, b) })
	}},
	{"misplaced", func(t *testing.T, path, misplaced string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(misplaced), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(misplaced, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}},
}

func rewrite(t *testing.T, path string, f func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, f(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// reportCounts flattens an fsck report to its JSON counters.
func reportCounts(t *testing.T, rep *FsckReport) map[string]float64 {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for k, v := range m {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out
}

// TestRecordKindsFaultTable drives every on-disk record kind through every
// fault and asserts one policy for all of them: what the live read serves
// and quarantines, what an fsck scan counts, and what fsck -repair does.
//
//	fault      live read            fsck scan           fsck -repair
//	ok         served               ok                  nothing
//	torn       miss, quarantined    corrupt, not clean  quarantined
//	bitflip    miss, quarantined    corrupt, not clean  quarantined
//	unknown    miss, left in place  unknown, clean      left in place
//	misplaced  only the original    ok + corrupt        copy quarantined
func TestRecordKindsFaultTable(t *testing.T) {
	for _, k := range faultKinds {
		for _, f := range faults {
			t.Run(k.report+"/"+f.name, func(t *testing.T) {
				corrupt := f.name == "torn" || f.name == "bitflip"
				bad := corrupt || f.name == "misplaced"
				build := func() (dir, path, misplaced string) {
					dir = t.TempDir()
					st, err := Open(dir)
					if err != nil {
						t.Fatal(err)
					}
					path, misplaced = k.write(t, st)
					f.apply(t, path, misplaced)
					return dir, path, misplaced
				}

				// Live read, through a fresh store (empty memory mirror).
				dir, path, misplaced := build()
				st, err := Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				wantServed := 1
				if corrupt || f.name == "unknown" {
					wantServed = 0
				}
				if got := k.served(st); got != wantServed {
					t.Errorf("live read served %d record(s), want %d", got, wantServed)
				}
				wantQ := 0
				if bad {
					wantQ = 1
				}
				if q := st.Health().Quarantined; q != int64(wantQ) {
					t.Errorf("live read quarantined %d file(s), want %d", q, wantQ)
				}
				if corrupt && exists(path) {
					t.Error("corrupt file left in place by the live read")
				}
				if f.name == "misplaced" && exists(misplaced) {
					t.Error("misplaced copy left in place by the live read")
				}
				if f.name == "unknown" && !exists(path) {
					t.Error("unknown-version file not left in place by the live read")
				}

				// fsck scan.
				dir, path, _ = build()
				rep, err := Fsck(dir, false)
				if err != nil {
					t.Fatal(err)
				}
				got := reportCounts(t, rep)
				want := map[string]float64{k.okKey: 1, k.report + "_corrupt": 0, k.report + "_unknown": 0}
				switch f.name {
				case "torn", "bitflip":
					want[k.okKey], want[k.report+"_corrupt"] = 0, 1
				case "unknown":
					want[k.okKey], want[k.report+"_unknown"] = 0, 1
				case "misplaced":
					want[k.report+"_corrupt"] = 1
				}
				want["legacy"] = 0
				for key, v := range want {
					if got[key] != v {
						t.Errorf("fsck %s = %v, want %v", key, got[key], v)
					}
				}
				if rep.Clean() == bad {
					t.Errorf("fsck clean = %v, want %v", rep.Clean(), !bad)
				}

				// fsck -repair, then a clean rescan.
				rep, err = Fsck(dir, true)
				if err != nil {
					t.Fatal(err)
				}
				wantRepairQ := 0
				if bad {
					wantRepairQ = 1
				}
				if rep.Quarantined != wantRepairQ || rep.Removed != 0 || rep.Repaired != 0 {
					t.Errorf("repair: quarantined=%d removed=%d repaired=%d, want %d/0/0",
						rep.Quarantined, rep.Removed, rep.Repaired, wantRepairQ)
				}
				if f.name == "unknown" && !exists(path) {
					t.Error("unknown-version file not left in place by repair")
				}
				if rep, err = Fsck(dir, false); err != nil || !rep.Clean() {
					t.Errorf("rescan after repair: clean=%v err=%v", rep != nil && rep.Clean(), err)
				}
			})
		}
	}
}

// TestLegacyPointIsAMissUntilRepair pins the v1 decision: the live read
// path treats a pre-checksum point as an unknown version (a miss, left in
// place), and only fsck -repair upgrades it into a hit.
func TestLegacyPointIsAMissUntilRepair(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec := recordV1{Version: recordVersionV1, Key: "legacy", Point: core.CachedPoint{Skipped: []string{"l"}}}
	if err := gob.NewEncoder(&buf).Encode(&rec); err != nil {
		t.Fatal(err)
	}
	path := st.pointPath(addr("legacy"))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get("legacy"); ok {
		t.Fatal("live read served a v1 point")
	}
	if !exists(path) || st.Health().Quarantined != 0 {
		t.Fatal("v1 point not left in place")
	}
	rep, err := Fsck(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PointsLegacy != 1 || rep.Repaired != 1 {
		t.Fatalf("repair: legacy=%d repaired=%d, want 1/1", rep.PointsLegacy, rep.Repaired)
	}
	st, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp, ok := st.Get("legacy"); !ok || len(cp.Skipped) != 1 || cp.Skipped[0] != "l" {
		t.Fatalf("upgraded point: %+v, %v", cp, ok)
	}
}
