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
		Config: []byte(`{"name":"golden"}`), Total: 12,
	}
	goldenWire = []core.Characterization{
		{Config: nvsim.Config{CapacityBytes: 1 << 20, WordBits: 64, MaxAreaMM2: 2},
			Arrays: []nvsim.Result{{CapacityBytes: 1 << 20, WordBits: 64, Target: nvsim.OptArea}}},
		{Config: nvsim.Config{CapacityBytes: 2 << 20, MaxReadLatencyNS: 1},
			Errs: []string{"nvsim: constraints exclude every organization"}},
	}
)

// goldenRecordBytes writes one golden record through the store's public
// write paths and returns the bytes that landed on disk (or on the wire).
func goldenRecordBytes(t testing.TB, kind string) []byte {
	t.Helper()
	if kind == "wire" {
		wire, err := EncodeShard(goldenWire)
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var path string
	switch kind {
	case "point":
		st.Put(goldenPointKey, goldenPoint)
		path = st.pointPath(addr(goldenPointKey))
	case "study":
		if err := st.SaveStudy(goldenStudy); err != nil {
			t.Fatal(err)
		}
		path = st.studyPath(goldenStudy.Fingerprint)
	case "job":
		if err := st.JournalJob(goldenJob); err != nil {
			t.Fatal(err)
		}
		path = filepath.Join(st.jobsDir(), goldenJob.ID+".job")
	default:
		t.Fatalf("no golden record of kind %q", kind)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// goldenChildEnv names the record kind the child process TestRecordBytesGolden
// runs encodes.
const goldenChildEnv = "NVMX_GOLDEN_RECORDS_CHILD"

// TestRecordBytesGolden pins the on-disk and wire bytes of every record
// kind: any change to the framing, a version string, or a payload type
// changes a digest here. A store directory written by one build must read
// back under the next.
//
// gob numbers types process-wide in first-use order, so the bytes of a
// record depend on what the process encoded before it. Each kind is
// therefore encoded alone in a fresh child process (this test binary,
// re-run), so its digest depends only on its own types.
func TestRecordBytesGolden(t *testing.T) {
	if kind := os.Getenv(goldenChildEnv); kind != "" {
		fmt.Printf("golden %s %x\n", kind, sha256.Sum256(goldenRecordBytes(t, kind)))
		return
	}
	want := map[string]string{
		"point": "1fc89dfa842817bc42476564c25977108af3cc6373b7b75900b01e9ddfbe06c0",
		"study": "44c967d358f2802a1d405e703100d15eb6aaa9d60b36f2de38634b9969b560af",
		"job":   "f7118bdcbade3d1bef69a25eb491cea0c03b587615999ef714d730db7265e806",
		"wire":  "34572a15f06f7ba70f1c51af71be2546483351640b2cd9acd477a72449b4fc17",
	}
	for kind, sum := range want {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRecordBytesGolden$", "-test.count=1")
		cmd.Env = append(os.Environ(), goldenChildEnv+"="+kind)
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("golden child (%s): %v\n%s", kind, err, out)
		}
		var got string
		for _, line := range strings.Split(string(out), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "golden" && f[1] == kind {
				got = f[2]
			}
		}
		if got != sum {
			t.Errorf("%s record bytes: sha256 = %s, want %s", kind, got, sum)
		}
	}
}
