package nvsim

import (
	"bytes"
	"encoding/gob"
	"errors"
	"reflect"
	"testing"

	"repro/internal/cell"
)

func snapshotConfigs() []Config {
	return []Config{
		{Cell: cell.MustTentpole(cell.STT, cell.Optimistic), CapacityBytes: 1 << 21},
		{Cell: cell.MustTentpole(cell.RRAM, cell.Pessimistic), CapacityBytes: 1 << 22, MaxAreaMM2: 10},
	}
}

func TestMemoSnapshotRoundTrip(t *testing.T) {
	ResetMemo()
	defer ResetMemo()
	cfgs := snapshotConfigs()
	targets := []OptTarget{OptReadEDP, OptWriteLatency}
	want := make([][]Result, len(cfgs))
	for i, cfg := range cfgs {
		rs, errs := CharacterizeTargets(cfg, targets)
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		want[i] = rs
	}

	var buf bytes.Buffer
	if err := SnapshotMemo(&buf); err != nil {
		t.Fatal(err)
	}

	ResetMemo()
	n, err := RestoreMemo(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(cfgs) {
		t.Fatalf("restored %d entries, want %d", n, len(cfgs))
	}
	for i, cfg := range cfgs {
		rs, errs := CharacterizeTargets(cfg, targets)
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(rs, want[i]) {
			t.Fatalf("config %d: restored characterization differs", i)
		}
	}
	if hits, misses := MemoStats(); hits != int64(len(cfgs)) || misses != 0 {
		t.Fatalf("after restore: hits=%d misses=%d, want %d/0", hits, misses, len(cfgs))
	}
}

func TestMemoSnapshotRestoreIsIdempotent(t *testing.T) {
	ResetMemo()
	defer ResetMemo()
	if _, errs := CharacterizeTargets(snapshotConfigs()[0], []OptTarget{OptReadEDP}); errs[0] != nil {
		t.Fatal(errs[0])
	}
	var buf bytes.Buffer
	if err := SnapshotMemo(&buf); err != nil {
		t.Fatal(err)
	}
	// Restoring over live entries inserts nothing and clobbers nothing.
	if n, err := RestoreMemo(bytes.NewReader(buf.Bytes())); err != nil || n != 0 {
		t.Fatalf("restore over live cache: n=%d err=%v, want 0/nil", n, err)
	}
	if MemoLen() != 1 {
		t.Fatalf("MemoLen = %d, want 1", MemoLen())
	}
}

// memoSnapshotV1 is the v1 wire shape: every admissible candidate per key.
type memoSnapshotV1 struct {
	Version string
	Entries []memoSnapshotEntryV1
}

type memoSnapshotEntryV1 struct {
	Config Config
	Cands  []Result
}

// v1Snapshot encodes a v1-shaped snapshot holding one entry with the head
// of its candidate set.
func v1Snapshot(t testing.TB) []byte {
	t.Helper()
	cfg := snapshotConfigs()[0]
	cfg.WordBits = DefaultWordBits
	cands, err := CharacterizeAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	snap := memoSnapshotV1{Version: "nvmx-memo/v1",
		Entries: []memoSnapshotEntryV1{{Config: cfg, Cands: cands[:2]}}}
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestMemoSnapshotRejectsWrongVersion(t *testing.T) {
	ResetMemo()
	defer ResetMemo()
	var v0 bytes.Buffer
	if err := gob.NewEncoder(&v0).Encode(&memoSnapshot{Version: "nvmx-memo/v0"}); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"v0": v0.Bytes(), "v1": v1Snapshot(t)} {
		if _, err := RestoreMemo(bytes.NewReader(data)); !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("RestoreMemo(%s) = %v, want ErrSnapshotVersion", name, err)
		}
		if _, err := CheckMemoSnapshot(bytes.NewReader(data)); !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("CheckMemoSnapshot(%s) = %v, want ErrSnapshotVersion", name, err)
		}
	}
	if MemoLen() != 0 {
		t.Fatal("a wrong-version snapshot populated the memo")
	}
	_, err := RestoreMemo(bytes.NewReader([]byte("not gob")))
	if err == nil || errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("RestoreMemo(garbage) = %v, want a decode error", err)
	}
}

// TestRestoreMemoValidatesEntries hand-builds a snapshot holding one good
// entry, one whose winners are gob-zero-filled, one whose winners belong
// to another capacity, and one whose winners sit under the wrong targets.
// Only the good entry restores; the others characterize afresh.
func TestRestoreMemoValidatesEntries(t *testing.T) {
	ResetMemo()
	defer ResetMemo()
	d := cell.MustTentpole(cell.STT, cell.Optimistic)
	key := func(capBytes int64) Config {
		return Config{Cell: d, CapacityBytes: capBytes, WordBits: DefaultWordBits}
	}
	winners := func(cfg Config) [numOptTargets]Result {
		rs, errs := CharacterizeTargets(cfg, OptTargets())
		var best [numOptTargets]Result
		for i := range best {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			best[i] = rs[i]
		}
		return best
	}
	good, foreign := winners(key(1<<20)), winners(key(2<<20))
	want := winners(key(4 << 20))
	ResetMemo()
	// The right array for a looser key, but filed under the wrong targets.
	loose := key(1 << 20)
	loose.MaxLeakageMW = 1e6
	mislabeled := good
	mislabeled[OptReadLatency], mislabeled[OptArea] = good[OptArea], good[OptReadLatency]

	var buf bytes.Buffer
	snap := memoSnapshot{Version: SnapshotVersion, Entries: []memoSnapshotEntry{
		{Config: key(1 << 20), Best: good},
		{Config: key(4 << 20)},                // zero-filled winners
		{Config: key(8 << 20), Best: foreign}, // another capacity's winners
		{Config: loose, Best: mislabeled},
	}}
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	if n, err := CheckMemoSnapshot(bytes.NewReader(buf.Bytes())); err != nil || n != 1 {
		t.Fatalf("CheckMemoSnapshot = %d, %v; want 1 valid entry", n, err)
	}
	if n, err := RestoreMemo(bytes.NewReader(buf.Bytes())); err != nil || n != 1 {
		t.Fatalf("RestoreMemo = %d, %v; want 1 entry", n, err)
	}
	if got := winners(key(4 << 20)); got != want {
		t.Fatal("the zero-filled entry's key did not characterize afresh")
	}
	if got := winners(key(1 << 20)); got != good {
		t.Fatal("the good entry restored different winners")
	}
	if hits, misses := MemoStats(); hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits, misses)
	}
}

// FuzzMemoSnapshot feeds arbitrary bytes to the snapshot decoder, which
// reads untrusted bodies from PUT /v1/store/memo: no panic, the offline
// check and the restore agree on accepting or refusing (and on why), and
// a restore never inserts more entries than the check counted valid.
func FuzzMemoSnapshot(f *testing.F) {
	ResetMemo()
	if _, errs := CharacterizeTargets(snapshotConfigs()[1], []OptTarget{OptArea}); errs[0] != nil {
		f.Fatal(errs[0])
	}
	var v2 bytes.Buffer
	if err := SnapshotMemo(&v2); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Add(v1Snapshot(f))
	f.Add([]byte("not gob"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ResetMemo()
		defer ResetMemo()
		checked, cerr := CheckMemoSnapshot(bytes.NewReader(data))
		restored, rerr := RestoreMemo(bytes.NewReader(data))
		if (cerr == nil) != (rerr == nil) || errors.Is(cerr, ErrSnapshotVersion) != errors.Is(rerr, ErrSnapshotVersion) {
			t.Fatalf("check %v and restore %v disagree", cerr, rerr)
		}
		if restored > checked || MemoLen() != restored {
			t.Fatalf("restored %d (memo holds %d) of %d checked entries", restored, MemoLen(), checked)
		}
	})
}

func TestMemoSnapshotSkipsFailedEntries(t *testing.T) {
	ResetMemo()
	defer ResetMemo()
	// An infeasible configuration caches an error entry; it must not be
	// snapshotted (it would restore as zero-valued winners).
	bad := Config{Cell: cell.MustTentpole(cell.STT, cell.Optimistic),
		CapacityBytes: 1 << 21, MaxAreaMM2: 1e-9}
	if _, errs := CharacterizeTargets(bad, []OptTarget{OptReadEDP}); errs[0] == nil {
		t.Fatal("expected constraint failure")
	}
	var buf bytes.Buffer
	if err := SnapshotMemo(&buf); err != nil {
		t.Fatal(err)
	}
	ResetMemo()
	if n, err := RestoreMemo(&buf); err != nil || n != 0 {
		t.Fatalf("restore: n=%d err=%v, want 0/nil", n, err)
	}
}
