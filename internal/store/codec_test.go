package store

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeRecord feeds arbitrary bytes to every codec: decoding must
// never panic, must classify its input as ok, unknown-version (missing) or
// corrupt — decode does no I/O, so never readIOError — and whatever
// decodes must survive decode(encode(x)) == x. Seeds are the golden
// record fixtures.
func FuzzDecodeRecord(f *testing.F) {
	for i, kind := range []string{"point", "study", "job", "wire"} {
		f.Add(uint8(i), goldenRecordBytes(f, kind))
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		switch which % 4 {
		case 0:
			roundTrip(t, pointKind.codec, data)
		case 1:
			roundTrip(t, studyKind.codec, data)
		case 2:
			roundTrip(t, jobKind.codec, data)
		case 3:
			roundTrip(t, shardWire, data)
		}
	})
}

func roundTrip[T any](t *testing.T, c codec[T], data []byte) {
	rec, status := c.decode(data, "")
	switch status {
	case readOK:
	case readMissing, readCorrupt:
		return
	default:
		t.Fatalf("decode status %d is not a decode outcome", status)
	}
	out, err := c.encode(rec)
	if err != nil {
		t.Fatalf("re-encoding a decoded record: %v", err)
	}
	wantID := ""
	if c.id != nil {
		wantID = c.id(&rec)
	}
	again, status := c.decode(out, wantID)
	if status != readOK {
		t.Fatalf("decode(encode(x)) status %d, want ok", status)
	}
	// NaN payload fields are not DeepEqual to themselves; their bytes are.
	if !reflect.DeepEqual(again, rec) {
		if out2, err := c.encode(again); err != nil || !bytes.Equal(out2, out) {
			t.Fatalf("decode(encode(x)) != x:\n got %+v\nwant %+v", again, rec)
		}
	}
}

// TestCodecIdentityCheck: a record decoded against the wrong identity is
// corrupt, never a wrong result.
func TestCodecIdentityCheck(t *testing.T) {
	data, err := studyKind.codec.encode(StudyRecord{Fingerprint: "fp-a"})
	if err != nil {
		t.Fatal(err)
	}
	if _, status := studyKind.codec.decode(data, "fp-a"); status != readOK {
		t.Fatalf("own identity: status %d, want ok", status)
	}
	if _, status := studyKind.codec.decode(data, "fp-b"); status != readCorrupt {
		t.Fatalf("foreign identity: status %d, want corrupt", status)
	}
	if _, status := jobKind.codec.decode(data, ""); status != readMissing {
		t.Fatalf("another kind's version: status %d, want missing (unknown version)", status)
	}
}
