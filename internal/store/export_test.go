package store

import (
	"bytes"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"repro/internal/nvsim"
)

func TestExportImportPointRoundTrip(t *testing.T) {
	nvsim.ResetMemo()
	src, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	runPoints(t, testStudy(), src)

	key := firstKey(t)
	addrHex := Addr(key)
	data, ok := src.ExportPoint(addrHex)
	if !ok {
		t.Fatal("populated store cannot export its own point")
	}

	// The exported bytes carry the record's identity: a fresh store
	// importing them derives the same canonical key and serves the point.
	dst, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := dst.ExportPoint(addrHex); ok {
		t.Fatal("empty store claims the point")
	}
	gotKey, err := dst.ImportPoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if gotKey != key {
		t.Fatalf("imported key %q, want %q", gotKey, key)
	}
	want, _ := src.Get(key)
	got, ok := dst.Get(key)
	if !ok {
		t.Fatal("imported point not readable")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("imported point differs from the source")
	}

	if _, ok := dst.ExportPoint("no-such-address"); ok {
		t.Fatal("exported a point that does not exist")
	}
}

func TestImportPointRejectsBadRecords(t *testing.T) {
	st, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.ImportPoint([]byte("not an envelope")); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("garbage import: err = %v, want ErrCorruptRecord", err)
	}

	// A valid envelope stamped with an unknown schema is a different
	// refusal: the HTTP layer maps it to version_mismatch, not corruption.
	var payload bytes.Buffer
	gob.NewEncoder(&payload).Encode(struct{ X int }{1})
	var out bytes.Buffer
	env := envelope{Version: "nvmx-point/v999", Sum: crc32.ChecksumIEEE(payload.Bytes()), Payload: payload.Bytes()}
	if err := gob.NewEncoder(&out).Encode(&env); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ImportPoint(out.Bytes()); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("unknown-version import: err = %v, want ErrUnknownVersion", err)
	}
	if st.Len() != 0 {
		t.Fatal("a rejected import still stored something")
	}
}

func TestExportImportStudyRoundTrip(t *testing.T) {
	src, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := StudyRecord{
		Fingerprint: "fp-roundtrip",
		Name:        "export-test",
		Config:      []byte(`{"cells":["STT"]}`),
		Points:      4,
	}
	if err := src.SaveStudy(rec); err != nil {
		t.Fatal(err)
	}
	data, ok := src.ExportStudy("fp-roundtrip")
	if !ok {
		t.Fatal("saved study cannot be exported")
	}
	if _, ok := src.ExportStudy("fp-missing"); ok {
		t.Fatal("exported a study that does not exist")
	}

	dst, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	fp, err := dst.ImportStudy(data)
	if err != nil {
		t.Fatal(err)
	}
	if fp != "fp-roundtrip" {
		t.Fatalf("imported fingerprint %q, want fp-roundtrip", fp)
	}
	got, ok := dst.LoadStudy("fp-roundtrip")
	if !ok {
		t.Fatal("imported study not loadable")
	}
	if got.Name != rec.Name || got.Points != rec.Points || !bytes.Equal(got.Config, rec.Config) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, rec)
	}
	if fps := dst.StudyFingerprints(); len(fps) != 1 || fps[0] != "fp-roundtrip" {
		t.Fatalf("StudyFingerprints = %v, want [fp-roundtrip]", fps)
	}
}

func TestImportStudyRejectsBadRecords(t *testing.T) {
	st, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.ImportStudy([]byte("torn manifest")); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("garbage import: err = %v, want ErrCorruptRecord", err)
	}

	var payload bytes.Buffer
	gob.NewEncoder(&payload).Encode(StudyRecord{Fingerprint: "fp"})
	var out bytes.Buffer
	env := envelope{Version: "nvmx-studyrec/v999", Sum: crc32.ChecksumIEEE(payload.Bytes()), Payload: payload.Bytes()}
	if err := gob.NewEncoder(&out).Encode(&env); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ImportStudy(out.Bytes()); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("unknown-version import: err = %v, want ErrUnknownVersion", err)
	}
	if fps := st.StudyFingerprints(); len(fps) != 0 {
		t.Fatalf("a rejected import still saved a manifest: %v", fps)
	}
}
