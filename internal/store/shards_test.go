package store

import (
	"bytes"
	"encoding/gob"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/nvsim"
)

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
