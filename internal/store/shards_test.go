package store

import (
	"bytes"
	"encoding/gob"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/nvsim"
)

func testShardRecord(id string) ShardRecord {
	return ShardRecord{
		ID:          id,
		Fingerprint: "fp-test",
		Assigns: []ShardAssign{
			{Worker: "http://w1:8081", Indices: []int{0, 2, 5}},
			{Worker: "http://w2:8082", Indices: []int{1, 3, 4}},
		},
	}
}

func TestShardWireRoundTrip(t *testing.T) {
	cs := []core.Characterization{
		{Config: nvsim.Config{CapacityBytes: 1 << 20, WordBits: 64},
			Arrays: []nvsim.Result{{CapacityBytes: 1 << 20, WordBits: 64, Target: nvsim.OptArea}}},
		{Config: nvsim.Config{CapacityBytes: 2 << 20, WordBits: 128}},
	}
	data, err := EncodeShard(cs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeShard(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cs) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, cs)
	}
}

func TestShardWireRejectsCorruption(t *testing.T) {
	cs := []core.Characterization{{Config: nvsim.Config{CapacityBytes: 1 << 20}}}
	good, err := EncodeShard(cs)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("torn", func(t *testing.T) {
		if _, err := DecodeShard(good[:len(good)/2]); err == nil {
			t.Fatal("a torn payload decoded cleanly")
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[len(bad)-3] ^= 0x40 // inside the gob-encoded payload bytes
		if _, err := DecodeShard(bad); err == nil {
			t.Fatal("a bit-flipped payload decoded cleanly")
		}
	})
	t.Run("wrong version", func(t *testing.T) {
		var payload bytes.Buffer
		if err := gob.NewEncoder(&payload).Encode(cs); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		env := envelope{Version: "nvmx-shard/v999", Sum: crc32.ChecksumIEEE(payload.Bytes()), Payload: payload.Bytes()}
		if err := gob.NewEncoder(&out).Encode(&env); err != nil {
			t.Fatal(err)
		}
		_, err := DecodeShard(out.Bytes())
		if err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("wrong-version payload: err = %v, want a version error", err)
		}
	})
	t.Run("garbage", func(t *testing.T) {
		if _, err := DecodeShard([]byte("not an envelope at all")); err == nil {
			t.Fatal("garbage decoded cleanly")
		}
	})
}

func TestShardJournalRoundTripAndRemoval(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := testShardRecord("job-7")
	if err := st.JournalShards(rec); err != nil {
		t.Fatal(err)
	}
	got, ok := st.LoadShards("job-7")
	if !ok {
		t.Fatal("journaled shard record not found")
	}
	if got.Version != shardJournalVersion {
		t.Fatalf("loaded record version %q, want %q", got.Version, shardJournalVersion)
	}
	if got.ID != rec.ID || got.Fingerprint != rec.Fingerprint || !reflect.DeepEqual(got.Assigns, rec.Assigns) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, rec)
	}

	// A terminal job takes its shard record with it.
	st.JournalDone("job-7")
	if _, ok := st.LoadShards("job-7"); ok {
		t.Fatal("shard record survived JournalDone")
	}
}

func TestShardJournalIsLocalOnly(t *testing.T) {
	// Memory-only stores have no journal: both sides must be clean no-ops,
	// mirroring the job journal's semantics.
	st, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.JournalShards(testShardRecord("job-1")); err != nil {
		t.Fatalf("memory-store JournalShards: %v", err)
	}
	if _, ok := st.LoadShards("job-1"); ok {
		t.Fatal("memory store claims a journaled shard record")
	}
}

func TestShardJournalQuarantinesCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(st.jobsDir(), 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(st.jobsDir(), "job-bad.shards")
	if err := os.WriteFile(path, []byte("torn shard journal bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.LoadShards("job-bad"); ok {
		t.Fatal("corrupt shard record loaded")
	}
	if h := st.Health(); h.Quarantined == 0 {
		t.Fatalf("corrupt shard record not quarantined: %+v", h)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt shard record left in place")
	}

	// A record with a valid envelope but a foreign version is not loaded
	// either. Like every record kind, it is left in place rather than
	// quarantined: a newer binary sharing the directory may own it.
	rec := testShardRecord("job-vers")
	if err := st.JournalShards(rec); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(st.jobsDir(), "job-vers.shards"))
	if err != nil {
		t.Fatal(err)
	}
	var env envelope
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&env); err != nil {
		t.Fatal(err)
	}
	env.Version = "nvmx-shardrec/v999"
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(&env); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(st.jobsDir(), "job-vers.shards"), out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.LoadShards("job-vers"); ok {
		t.Fatal("foreign-version shard record loaded")
	}
}
