package store

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/nvsim"
	"repro/internal/traffic"
)

// plainEncode and plainDecode are the one-shot codec: a fresh gob encoder
// or decoder per layer, per record. The compiled codec must agree with
// them byte for byte and status for status.
func plainEncode[T any](c codec[T], rec T) []byte {
	var payload, out bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&rec); err != nil {
		panic(err)
	}
	env := envelope{Version: c.version, Sum: crc32.ChecksumIEEE(payload.Bytes()), Payload: payload.Bytes()}
	if err := gob.NewEncoder(&out).Encode(&env); err != nil {
		panic(err)
	}
	return out.Bytes()
}

func plainDecode[T any](c codec[T], data []byte) (T, readStatus) {
	var rec, zero T
	var env envelope
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&env); err != nil || env.Version == "" {
		return zero, readCorrupt
	}
	if env.Version != c.version {
		return zero, readMissing
	}
	if crc32.ChecksumIEEE(env.Payload) != env.Sum {
		return zero, readCorrupt
	}
	if err := gob.NewDecoder(bytes.NewReader(env.Payload)).Decode(&rec); err != nil {
		return zero, readCorrupt
	}
	return rec, readOK
}

// sameRecord compares two decoded records by their one-shot bytes, so NaN
// fields compare equal to themselves.
func sameRecord[T any](c codec[T], a, b T) bool {
	return reflect.DeepEqual(a, b) || bytes.Equal(plainEncode(c, a), plainEncode(c, b))
}

// sameDecode checks one input against the one-shot decode, twice, so the
// second decode runs on a decoder the first one primed.
func sameDecode[T any](t *testing.T, c codec[T], data []byte) {
	t.Helper()
	want, wantStatus := plainDecode(c, data)
	for i := 0; i < 2; i++ {
		got, status := c.decode(data, "")
		if status != wantStatus {
			t.Fatalf("decode %d: status %d, one-shot decode says %d", i, status, wantStatus)
		}
		if !sameRecord(c, got, want) {
			t.Fatalf("decode %d: record differs from the one-shot decode:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// FuzzCompiledDecode is the differential check of the compiled codec: for
// every kind, arbitrary bytes decode to the same status and record as a
// one-shot gob decode does. Seeds are the golden record fixtures.
func FuzzCompiledDecode(f *testing.F) {
	for i, kind := range []string{"point", "study", "job", "wire"} {
		f.Add(uint8(i), goldenRecordBytes(f, kind))
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		switch which % 4 {
		case 0:
			sameDecode(t, pointKind.codec, data)
		case 1:
			sameDecode(t, studyKind.codec, data)
		case 2:
			sameDecode(t, jobKind.codec, data)
		case 3:
			sameDecode(t, shardWire, data)
		}
	})
}

// pointCapture is a core.PointCache that keeps what a study stores.
type pointCapture struct{ pts []core.CachedPoint }

func (c *pointCapture) Get(string) (core.CachedPoint, bool) { return core.CachedPoint{}, false }
func (c *pointCapture) Put(_ string, pt core.CachedPoint)   { c.pts = append(c.pts, pt) }

// codesignPoint is one point shaped like the cold co-design studies': one
// cell at 2 MB, ReadEDP and Area targets, four generic traffic patterns —
// 2 arrays and 8 metric rows.
func codesignPoint(tb testing.TB) core.CachedPoint {
	tb.Helper()
	s := core.NewStudy("codec-point")
	s.AddTentpole(cell.STT, cell.Optimistic)
	s.AddCapacity(2 << 20)
	s.AddTarget(nvsim.OptReadEDP, nvsim.OptArea)
	s.Patterns = traffic.GenericSweep(0.1, 10, 0.001, 1, 2)
	var c pointCapture
	s.Cache, s.Workers = &c, 1
	if _, err := s.Run(); err != nil {
		tb.Fatal(err)
	}
	if len(c.pts) != 1 {
		tb.Fatalf("study stored %d points, want 1", len(c.pts))
	}
	return c.pts[0]
}

// codecCheck encodes rec, checks the bytes against a one-shot encode and
// decodes them back, checking the record.
func codecCheck[T any](t *testing.T, c codec[T], rec T) {
	data, err := c.encode(rec)
	if err != nil {
		t.Error(err)
		return
	}
	if want := plainEncode(c, rec); !bytes.Equal(data, want) {
		t.Errorf("%s: compiled encode differs from a one-shot encode", c.version)
		return
	}
	wantID := ""
	if c.id != nil {
		wantID = c.id(&rec)
	}
	got, status := c.decode(data, wantID)
	if status != readOK || !sameRecord(c, got, rec) {
		t.Errorf("%s: decode(encode(x)) = %+v (status %d), want x", c.version, got, status)
	}
}

// TestCompiledCodecConcurrent encodes and decodes every kind from many
// goroutines at once (run it under -race): every record's bytes equal a
// one-shot encode and decode back to the record.
func TestCompiledCodecConcurrent(t *testing.T) {
	pt := pointPayload{Key: goldenPointKey, Point: codesignPoint(t)}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				codecCheck(t, pointKind.codec, pt)
				codecCheck(t, studyKind.codec, goldenStudy)
				codecCheck(t, jobKind.codec, goldenJob)
				codecCheck(t, shardWire, goldenWire)
			}
		}()
	}
	wg.Wait()
}

// foreignChildEnv names the record kind TestCompiledDecodeForeignPrefix's
// child process writes.
const foreignChildEnv = "NVMX_FOREIGN_RECORD_CHILD"

// TestCompiledDecodeForeignPrefix decodes records another process wrote —
// each golden record, encoded alone in a child process, so its gob type
// ids follow that process's first-use order — through the compiled
// decoders: the second decode of each runs on a decoder primed by the
// record's own prefix, and both agree with a one-shot decode.
func TestCompiledDecodeForeignPrefix(t *testing.T) {
	if kind := os.Getenv(foreignChildEnv); kind != "" {
		fmt.Printf("foreign %s %x\n", kind, goldenRecordBytes(t, kind))
		return
	}
	// This process numbers the point types first and the rest after them,
	// so at least the other kinds' child records carry prefixes of their
	// own.
	codecCheck(t, pointKind.codec, pointPayload{Key: goldenPointKey, Point: goldenPoint})
	codecCheck(t, studyKind.codec, goldenStudy)
	codecCheck(t, jobKind.codec, goldenJob)
	codecCheck(t, shardWire, goldenWire)
	foreign := 0
	for _, kind := range []string{"point", "study", "job", "wire"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestCompiledDecodeForeignPrefix$", "-test.count=1")
		cmd.Env = append(os.Environ(), foreignChildEnv+"="+kind)
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("child (%s): %v\n%s", kind, err, out)
		}
		var data []byte
		for _, line := range strings.Split(string(out), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "foreign" && f[1] == kind {
				data, err = hex.DecodeString(f[2])
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		if data == nil {
			t.Fatalf("child (%s) printed no record:\n%s", kind, out)
		}
		var isForeign bool
		switch kind {
		case "point":
			isForeign = decodeForeign(t, pointKind.codec, data)
		case "study":
			isForeign = decodeForeign(t, studyKind.codec, data)
		case "job":
			isForeign = decodeForeign(t, jobKind.codec, data)
		case "wire":
			isForeign = decodeForeign(t, shardWire, data)
		}
		if isForeign {
			foreign++
		}
	}
	if foreign == 0 {
		t.Error("no child record carried a foreign prefix; the test checks nothing")
	}
}

// decodeForeign checks a foreign record's decodes and that they kept
// primed decoders for both of its prefixes. It reports whether the
// payload's prefix differs from this process's own.
func decodeForeign[T any](t *testing.T, c codec[T], data []byte) bool {
	t.Helper()
	sameDecode(t, c, data)
	var env envelope
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if !primed(c.gob, env.Payload) || !primed(envelopes, data) {
		t.Errorf("%s: no primed decoder kept for the foreign record's prefixes", c.version)
	}
	n, _ := typeDefs(env.Payload)
	own := c.gob.prefix.Load()
	return own != nil && !bytes.Equal(env.Payload[:n], *own)
}

// primed reports whether g keeps an idle decoder for data's prefix.
func primed[T any](g *gobType[T], data []byte) bool {
	n, ok := typeDefs(data)
	return ok && len((*g.decoders.Load())[string(data[:n])]) > 0
}

// TestCompiledPrefixesBounded: store import bodies are untrusted, and any
// gob stream whose types fit the envelope decodes — so a peer can send
// endlessly many distinct valid prefixes. Each must decode exactly as a
// one-shot decode does, while the primed prefixes stay bounded.
func TestCompiledPrefixesBounded(t *testing.T) {
	rec := pointPayload{Key: goldenPointKey, Point: goldenPoint}
	payload, err := pointKind.codec.gob.encode(&rec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*maxPrefixes; i++ {
		// An envelope look-alike with one extra field: another wire type,
		// so another prefix, which decodes into envelope all the same.
		typ := reflect.StructOf([]reflect.StructField{
			{Name: "Version", Type: reflect.TypeFor[string]()},
			{Name: "Sum", Type: reflect.TypeFor[uint32]()},
			{Name: "Payload", Type: reflect.TypeFor[[]byte]()},
			{Name: fmt.Sprintf("Extra%d", i), Type: reflect.TypeFor[int]()},
		})
		v := reflect.New(typ)
		v.Elem().Field(0).SetString(recordVersion)
		v.Elem().Field(1).SetUint(uint64(crc32.ChecksumIEEE(payload)))
		v.Elem().Field(2).SetBytes(payload)
		v.Elem().Field(3).SetInt(int64(i))
		var data bytes.Buffer
		if err := gob.NewEncoder(&data).EncodeValue(v); err != nil {
			t.Fatal(err)
		}
		sameDecode(t, pointKind.codec, data.Bytes())
		if got, status := pointKind.codec.decode(data.Bytes(), goldenPointKey); status != readOK || !sameRecord(pointKind.codec, got, rec) {
			t.Fatalf("look-alike envelope %d: status %d, record %+v", i, status, got)
		}
	}
	if n := len(*envelopes.decoders.Load()); n > maxPrefixes+1 {
		t.Fatalf("envelope keeps %d primed prefixes, want at most %d", n, maxPrefixes+1)
	}
	// The process's own records still decode, and still on primed decoders
	// — their prefix is admitted past the bound.
	codecCheck(t, pointKind.codec, rec)
	own, err := pointKind.codec.encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !primed(envelopes, own) {
		t.Error("the process's own envelope prefix lost its primed decoders")
	}
}

// BenchmarkRecordCodec encodes and decodes one record of every kind; the
// point is shaped like a cold co-design study's.
func BenchmarkRecordCodec(b *testing.B) {
	pt := pointPayload{Key: goldenPointKey, Point: codesignPoint(b)}
	wire := []core.Characterization{{Config: nvsim.Config{CapacityBytes: 2 << 20, WordBits: 512}, Arrays: pt.Point.Arrays}}
	benchCodec(b, "point", pointKind.codec, pt)
	benchCodec(b, "study", studyKind.codec, goldenStudy)
	benchCodec(b, "job", jobKind.codec, goldenJob)
	benchCodec(b, "wire", shardWire, wire)
}

func benchCodec[T any](b *testing.B, name string, c codec[T], rec T) {
	data, err := c.encode(rec)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode/"+name, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.encode(rec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/"+name, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, status := c.decode(data, ""); status != readOK {
				b.Fatalf("status %d", status)
			}
		}
	})
}
