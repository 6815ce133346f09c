package store

import (
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/nvsim"
)

// Fixed records for the byte-format contract, one per record kind. They
// avoid maps (gob writes map entries in iteration order) so the encoded
// bytes are deterministic.
var (
	goldenPointKey = "golden-point\n1048576,64"
	goldenPoint    = core.CachedPoint{Skipped: []string{"golden"}}
	goldenStudy    = StudyRecord{Fingerprint: "fp-golden", Name: "golden study", Config: []byte(`{"name":"golden"}`), Points: 12}
	goldenJob      = JobRecord{
		ID: "job-42", Fingerprint: "fp-golden", Name: "golden job", Format: "ndjson",
		Config: []byte(`{"name":"golden"}`), ParetoSet: true, Pareto: []string{"area_mm2"},
		ModeSet: true, Mode: "adaptive", BudgetSet: true, Budget: 8, SeedSet: true, Seed: 3, Total: 12,
	}
	goldenWire = []core.Characterization{
		{Config: nvsim.Config{CapacityBytes: 1 << 20, WordBits: 64, MaxAreaMM2: 2},
			Arrays: []nvsim.Result{{CapacityBytes: 1 << 20, WordBits: 64, Target: nvsim.OptArea}}},
		{Config: nvsim.Config{CapacityBytes: 2 << 20, MaxReadLatencyNS: 1},
			Errs: []string{"nvsim: constraints exclude every organization"}},
	}
)

// goldenRecordBytes writes each golden record through the store's public
// write paths and returns the bytes that landed on disk (or on the wire),
// keyed by record kind.
func goldenRecordBytes(t testing.TB) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Put(goldenPointKey, goldenPoint)
	if err := st.SaveStudy(goldenStudy); err != nil {
		t.Fatal(err)
	}
	if err := st.JournalJob(goldenJob); err != nil {
		t.Fatal(err)
	}
	read := func(path string) []byte {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	wire, err := EncodeShard(goldenWire)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"point": read(st.pointPath(addr(goldenPointKey))),
		"study": read(st.studyPath(goldenStudy.Fingerprint)),
		"job":   read(filepath.Join(st.jobsDir(), goldenJob.ID+".job")),
		"wire":  wire,
	}
}

// goldenChildEnv marks the child process TestRecordBytesGolden runs.
const goldenChildEnv = "NVMX_GOLDEN_RECORDS_CHILD"

// TestRecordBytesGolden pins the on-disk and wire bytes of every record
// kind: any change to the framing, a version string, or a payload type
// changes a digest here. A store directory written by one build must read
// back under the next.
//
// gob numbers types process-wide in first-use order, so the bytes of a
// record depend on what the process encoded before it. The records are
// therefore encoded in a fresh child process (this test binary, re-run),
// where the order is fixed.
func TestRecordBytesGolden(t *testing.T) {
	if os.Getenv(goldenChildEnv) == "1" {
		for kind, data := range goldenRecordBytes(t) {
			fmt.Printf("golden %s %x\n", kind, sha256.Sum256(data))
		}
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestRecordBytesGolden$", "-test.count=1")
	cmd.Env = append(os.Environ(), goldenChildEnv+"=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("golden child: %v\n%s", err, out)
	}
	got := map[string]string{}
	for _, line := range strings.Split(string(out), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "golden" {
			got[f[1]] = f[2]
		}
	}
	want := map[string]string{
		"point": "1fc89dfa842817bc42476564c25977108af3cc6373b7b75900b01e9ddfbe06c0",
		"study": "310bd5417b1d3ab3aa71da515bd2d23c814dc56cc5382ee56f01224be29370de",
		"job":   "9fdb41badc73eb4939a02e8d162b6bca6cd425e716f22c0d194e4e6197923db6",
		"wire":  "1840532d1c60dd9b8660824202b443acd9af78653a94cca3eb90ef2b1062a03f",
	}
	for kind, sum := range want {
		if got[kind] != sum {
			t.Errorf("%s record bytes: sha256 = %s, want %s", kind, got[kind], sum)
		}
	}
}
