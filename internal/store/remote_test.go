package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/nvsim"
)

// stubPeer is a minimal in-test implementation of the /v1/version and
// /v1/store/* wire protocol, with switchable fault modes: it can serve a
// configurable number of 500s before succeeding (transient outage), fail
// every store operation (peer down), or truncate point responses (torn
// HTTP body). The version handshake itself always answers, so fault modes
// exercise the post-handshake degradation path.
type stubPeer struct {
	mu      sync.Mutex
	version VersionInfo
	points  map[string][]byte
	studies map[string][]byte

	fail     int  // store ops to fail with 500 before succeeding
	failAll  bool // every store op answers 500
	torn     bool // point GETs return half the record's bytes
	requests int  // store requests observed (handshake excluded)
}

func newStubPeer() *stubPeer {
	return &stubPeer{
		version: VersionInfo{
			Protocol:    ProtocolVersion,
			PointKey:    core.PointKeyVersion,
			StoreRecord: recordVersion,
			ShardWire:   ShardWireVersion,
		},
		points:  make(map[string][]byte),
		studies: make(map[string][]byte),
	}
}

func (p *stubPeer) numPoints() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.points)
}

func (p *stubPeer) seen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.requests
}

func (p *stubPeer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/version" {
		p.mu.Lock()
		v := p.version
		p.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(v)
		return
	}
	p.mu.Lock()
	p.requests++
	if p.failAll || p.fail > 0 {
		if p.fail > 0 {
			p.fail--
		}
		p.mu.Unlock()
		http.Error(w, "injected outage", http.StatusInternalServerError)
		return
	}
	defer p.mu.Unlock()
	switch {
	case strings.HasPrefix(r.URL.Path, "/v1/store/points/"):
		a := strings.TrimPrefix(r.URL.Path, "/v1/store/points/")
		switch r.Method {
		case http.MethodGet, http.MethodHead:
			data, ok := p.points[a]
			if !ok {
				http.NotFound(w, r)
				return
			}
			if p.torn {
				data = data[:len(data)/2]
			}
			w.Write(data)
		case http.MethodPut:
			data, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			p.points[a] = data
			w.WriteHeader(http.StatusNoContent)
		}
	case r.URL.Path == "/v1/store/studies":
		fps := make([]string, 0, len(p.studies))
		for fp := range p.studies {
			fps = append(fps, fp)
		}
		json.NewEncoder(w).Encode(map[string][]string{"fingerprints": fps})
	case strings.HasPrefix(r.URL.Path, "/v1/store/studies/"):
		fp := strings.TrimPrefix(r.URL.Path, "/v1/store/studies/")
		switch r.Method {
		case http.MethodGet:
			data, ok := p.studies[fp]
			if !ok {
				http.NotFound(w, r)
				return
			}
			w.Write(data)
		case http.MethodPut:
			data, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			p.studies[fp] = data
			w.WriteHeader(http.StatusNoContent)
		}
	default:
		http.NotFound(w, r)
	}
}

// firstKey returns one concrete point key of the test study, for targeted
// single-point reads against a populated peer.
func firstKey(t testing.TB) string {
	t.Helper()
	s := testStudy()
	specs, err := s.Space()
	if err != nil {
		t.Fatal(err)
	}
	return s.PointKey(specs[0])
}

func TestRemoteStoreRoundTrip(t *testing.T) {
	nvsim.ResetMemo()
	peer := newStubPeer()
	ts := httptest.NewServer(peer)
	defer ts.Close()

	st1, err := OpenRemote(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold := runPoints(t, testStudy(), st1)
	if peer.numPoints() == 0 {
		t.Fatal("cold run wrote no point records to the peer")
	}

	// A second process over the same peer, cold engine: every point must
	// replay from the remote store without touching the engine.
	nvsim.ResetMemo()
	st2, err := OpenRemote(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm := runPoints(t, testStudy(), st2)
	if hits, misses := st2.Stats(); misses != 0 || hits == 0 {
		t.Fatalf("remote warm run: hits=%d misses=%d, want 0 misses", hits, misses)
	}
	if mh, mm := nvsim.MemoStats(); mh != 0 || mm != 0 {
		t.Fatalf("remote warm run touched the engine: memo hits=%d misses=%d", mh, mm)
	}
	if !reflect.DeepEqual(cold.Metrics, warm.Metrics) {
		t.Fatal("remote warm metrics differ from cold")
	}
}

func TestOpenRemoteRefusesVersionMismatch(t *testing.T) {
	peer := newStubPeer()
	peer.version.Protocol = "v0"
	ts := httptest.NewServer(peer)
	defer ts.Close()

	if _, err := OpenRemote(ts.URL, nil); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("protocol mismatch: got err=%v, want ErrVersionMismatch", err)
	}

	peer.mu.Lock()
	peer.version.Protocol = ProtocolVersion
	peer.version.StoreRecord = "nvmx-store/v999"
	peer.mu.Unlock()
	if _, err := OpenRemote(ts.URL, nil); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("record-schema mismatch: got err=%v, want ErrVersionMismatch", err)
	}
}

func TestOpenRemoteToleratesUnreachablePeer(t *testing.T) {
	// An unreachable peer may simply not be up yet: the handshake is
	// forgiving, and operations degrade later if it never appears.
	st, err := OpenRemote("http://127.0.0.1:1", nil)
	if err != nil {
		t.Fatalf("unreachable peer refused at open: %v", err)
	}
	if st.Backend().Kind() != "remote" {
		t.Fatalf("backend kind = %q, want remote", st.Backend().Kind())
	}
}

func TestRemoteQuarantinesTornResponse(t *testing.T) {
	nvsim.ResetMemo()
	peer := newStubPeer()
	ts := httptest.NewServer(peer)
	defer ts.Close()

	st1, err := OpenRemote(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	runPoints(t, testStudy(), st1)

	peer.mu.Lock()
	peer.torn = true
	peer.mu.Unlock()

	st2, err := OpenRemote(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Get(firstKey(t)); ok {
		t.Fatal("torn response decoded as a hit")
	}
	if h := st2.Health(); h.Quarantined == 0 {
		t.Fatalf("torn response not quarantined: %+v", h)
	}
	if st2.Degraded() {
		t.Fatal("a single torn response must not degrade the store")
	}
}

func TestRemoteRetriesTransientFailures(t *testing.T) {
	nvsim.ResetMemo()
	peer := newStubPeer()
	ts := httptest.NewServer(peer)
	defer ts.Close()

	st1, err := OpenRemote(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	runPoints(t, testStudy(), st1)

	st2, err := OpenRemote(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	peer.mu.Lock()
	peer.fail = ioAttempts - 1 // 500 twice, then recover: within the retry budget
	peer.mu.Unlock()
	if _, ok := st2.Get(firstKey(t)); !ok {
		t.Fatal("read failed despite recovery within the retry budget")
	}
	if h := st2.Health(); h.Retries < int64(ioAttempts-1) {
		t.Fatalf("retries = %d, want >= %d", h.Retries, ioAttempts-1)
	}
	if h := st2.Health(); h.IOErrors != 0 {
		t.Fatalf("recovered outage still counted as an I/O error: %+v", h)
	}
}

func TestRemoteStudyManifestRoundTrip(t *testing.T) {
	peer := newStubPeer()
	ts := httptest.NewServer(peer)
	defer ts.Close()

	st1, err := OpenRemote(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := st1.Backend().Target(); got != ts.URL {
		t.Fatalf("Target() = %q, want %q", got, ts.URL)
	}
	rec := StudyRecord{Fingerprint: "fp-remote", Name: "remote-study", Config: []byte(`{}`), Points: 2}
	if err := st1.SaveStudy(rec); err != nil {
		t.Fatal(err)
	}

	// A second process over the same peer sees the manifest through every
	// read path: direct load, fingerprint listing, and the sorted list.
	st2, err := OpenRemote(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := st2.LoadStudy("fp-remote")
	if !ok {
		t.Fatal("peer-stored manifest not loadable from a fresh store")
	}
	if got.Name != rec.Name || got.Points != rec.Points {
		t.Fatalf("manifest round trip mismatch: %+v", got)
	}
	if fps := st2.StudyFingerprints(); len(fps) != 1 || fps[0] != "fp-remote" {
		t.Fatalf("StudyFingerprints = %v, want [fp-remote]", fps)
	}
	if _, ok := st2.LoadStudy("fp-absent"); ok {
		t.Fatal("missing manifest read as a hit")
	}
}

func TestRemoteExportPointPassesEnvelopeBytesThrough(t *testing.T) {
	nvsim.ResetMemo()
	peer := newStubPeer()
	ts := httptest.NewServer(peer)
	defer ts.Close()

	st1, err := OpenRemote(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	runPoints(t, testStudy(), st1)

	// Export from a store that has never held the point in memory: the
	// bytes must come from the peer verbatim and re-import cleanly.
	st2, err := OpenRemote(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	key := firstKey(t)
	data, ok := st2.ExportPoint(Addr(key))
	if !ok {
		t.Fatal("peer-held point not exportable")
	}
	local, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	gotKey, err := local.ImportPoint(data)
	if err != nil {
		t.Fatalf("re-importing peer bytes: %v", err)
	}
	if gotKey != key {
		t.Fatalf("imported key %q, want %q", gotKey, key)
	}
	if _, ok := st2.ExportPoint("no-such-address"); ok {
		t.Fatal("exported a point the peer does not hold")
	}
}

func TestRemoteDegradesToMemoryOnly(t *testing.T) {
	peer := newStubPeer()
	ts := httptest.NewServer(peer)
	defer ts.Close()

	st, err := OpenRemote(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	peer.mu.Lock()
	peer.failAll = true
	peer.mu.Unlock()

	for i := 0; i < 4*degradeAfter && !st.Degraded(); i++ {
		st.Get(fmt.Sprintf("missing-key-%d", i))
	}
	if !st.Degraded() {
		t.Fatal("store never degraded under a persistent peer outage")
	}

	// Degraded means memory-only ("degrade to local"): the store still
	// works and the dead peer is no longer consulted.
	before := peer.seen()
	st.Put("local-key", core.CachedPoint{})
	if _, ok := st.Get("local-key"); !ok {
		t.Fatal("degraded store lost a write")
	}
	if peer.seen() != before {
		t.Fatal("degraded store still talks to the dead peer")
	}
}
