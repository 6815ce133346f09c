package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/store"
)

// newStoreServer builds a server over a persistent store directory plus its
// test frontend; the caller owns the directory's lifetime across restarts.
func newStoreServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{MaxConcurrentStudies: 2, StudyWorkers: 2, Store: st})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

// TestWarmStoreByteIdenticalZeroCharacterizations is the PR's acceptance
// gate: a study re-run against a warm store — in the same process or after
// a simulated restart — returns bytes identical to the cold run and to the
// batch CLI, while performing zero engine characterizations (the memo
// counters don't move at all; every point is a store hit).
func TestWarmStoreByteIdenticalZeroCharacterizations(t *testing.T) {
	cfg := testConfig("warm-store", "STT", 1<<21)
	dir := t.TempDir()

	// Reference bytes from the sequential batch CLI path, before any store
	// exists.
	wantJSON := batchOutput(t, cfg, "json")
	wantCSV := batchOutput(t, cfg, "csv")

	// Cold: first server over an empty store.
	srv1, ts1 := newStoreServer(t, dir)
	code, coldJSON := post(t, ts1, cfg, "json")
	if code != http.StatusOK {
		t.Fatalf("cold POST status %d: %s", code, coldJSON)
	}
	if !bytes.Equal(coldJSON, wantJSON) {
		t.Fatal("cold store-backed response differs from batch CLI")
	}
	if hits, misses := srv1.opts.Store.Stats(); hits != 0 || misses == 0 {
		t.Fatalf("cold run: store hits=%d misses=%d, want 0 hits", hits, misses)
	}

	// Warm restart: a brand-new server + store over the same directory,
	// with its own cold engine, to prove nothing re-characterizes.
	srv2, ts2 := newStoreServer(t, dir)
	code, warmJSON := post(t, ts2, cfg, "json")
	if code != http.StatusOK {
		t.Fatalf("warm POST status %d: %s", code, warmJSON)
	}
	if !bytes.Equal(warmJSON, coldJSON) {
		t.Fatal("warm response differs from cold response")
	}
	if !bytes.Equal(warmJSON, wantJSON) {
		t.Fatal("warm response differs from batch CLI")
	}
	hits, misses := srv2.opts.Store.Stats()
	if misses != 0 || hits == 0 {
		t.Fatalf("warm run: store hits=%d misses=%d, want 0 misses", hits, misses)
	}
	if es := srv2.engine.Stats(); es.MemoHits != 0 || es.MemoMisses != 0 {
		t.Fatalf("warm run characterized: memo hits=%d misses=%d, want 0/0", es.MemoHits, es.MemoMisses)
	}

	// Other formats replay from the same stored points, still byte-exact.
	code, warmCSV := post(t, ts2, cfg, "csv")
	if code != http.StatusOK {
		t.Fatalf("warm CSV status %d", code)
	}
	if !bytes.Equal(warmCSV, wantCSV) {
		t.Fatal("warm CSV differs from batch CLI")
	}
	if es := srv2.engine.Stats(); es.MemoHits != 0 || es.MemoMisses != 0 {
		t.Fatalf("warm CSV characterized: memo hits=%d misses=%d", es.MemoHits, es.MemoMisses)
	}
}

func TestStudiesETag(t *testing.T) {
	_, ts := newStoreServer(t, t.TempDir())
	cfg := testConfig("etag", "RRAM", 1<<21)

	resp, err := http.Post(ts.URL+"/v1/studies?format=json", "application/json",
		strings.NewReader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	etag := resp.Header.Get("ETag")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || etag == "" {
		t.Fatalf("status %d, etag %q", resp.StatusCode, etag)
	}

	// Replaying the configuration with If-None-Match revalidates without
	// running the study at all.
	req, err := http.NewRequest("POST", ts.URL+"/v1/studies?format=json",
		strings.NewReader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation status %d, want 304", resp2.StatusCode)
	}
	if got := resp2.Header.Get("ETag"); got != etag {
		t.Fatalf("revalidation etag %q, want %q", got, etag)
	}

	// A different format is a different representation: same config, new tag.
	req, err = http.NewRequest("POST", ts.URL+"/v1/studies?format=csv",
		strings.NewReader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", etag)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("cross-format status %d, want 200", resp3.StatusCode)
	}
	if got := resp3.Header.Get("ETag"); got == etag || got == "" {
		t.Fatalf("csv etag %q should differ from json etag %q", got, etag)
	}
}

// studyWriteFS counts atomic writes under DIR/studies/.
type studyWriteFS struct {
	store.FS
	writes atomic.Int64
}

func (c *studyWriteFS) WriteFileAtomic(path string, data []byte) error {
	if filepath.Base(filepath.Dir(path)) == "studies" {
		c.writes.Add(1)
	}
	return c.FS.WriteFileAtomic(path, data)
}

// TestWarmPostWritesNoManifest checks that re-running a stored study
// rewrites nothing under studies/: its manifest is already there.
func TestWarmPostWritesNoManifest(t *testing.T) {
	cfs := &studyWriteFS{FS: store.DiskFS}
	st, err := store.OpenFS(t.TempDir(), cfs)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{MaxConcurrentStudies: 2, Store: st})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	cfg := testConfig("warm-manifest", "STT", 1<<20)
	if code, body := post(t, ts, cfg, "json"); code != http.StatusOK {
		t.Fatalf("cold POST status %d: %s", code, body)
	}
	if n := cfs.writes.Load(); n != 1 {
		t.Fatalf("cold POST wrote %d manifests, want 1", n)
	}
	if code, body := post(t, ts, cfg, "json"); code != http.StatusOK {
		t.Fatalf("warm POST status %d: %s", code, body)
	}
	if n := cfs.writes.Load(); n != 1 {
		t.Fatalf("warm POST wrote %d more manifests, want 0", n-1)
	}
}
