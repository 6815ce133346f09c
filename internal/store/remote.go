package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
)

// remoteBackend speaks the versioned /v1/store/* API another `nvmexplorer
// serve` process exposes, shipping the exact envelope bytes the local
// backend would put on disk. The local store's failure semantics map onto
// HTTP one-to-one:
//
//	local                      remote
//	─────────────────────────  ──────────────────────────────────────────
//	missing file               404 (a clean miss)
//	torn / bit-flipped file    CRC or key mismatch in the response body —
//	                           dropped and counted as quarantined
//	transient I/O error        5xx or a transport error — retried with
//	                           exponential backoff (ioAttempts, ioBackoff)
//	disk gone (degradeAfter)   peer gone: after degradeAfter consecutive
//	                           failed operations the store degrades to
//	                           memory-only mode ("degrade to local")
//
// The handshake: OpenRemote calls GET /v1/version and refuses a peer that
// speaks a different protocol generation. An unreachable peer is not a
// handshake failure — it may be starting up; operations degrade later if
// it never appears.
type remoteBackend struct {
	base   string
	client *http.Client
	h      health
}

// remoteTimeout bounds one store HTTP attempt. Point records are small;
// anything slower is treated as a transient failure and retried.
var remoteTimeout = 30 * time.Second

// OpenRemote opens a store whose backend is a remote `nvmexplorer serve`
// process at base (e.g. "http://coordinator:8080"). client == nil uses a
// default with a per-attempt timeout; tests inject fault-wrapped clients.
func OpenRemote(base string, client *http.Client) (*Store, error) {
	base = strings.TrimRight(base, "/")
	if client == nil {
		client = &http.Client{Timeout: remoteTimeout}
	}
	rb := &remoteBackend{base: base, client: client}
	if err := rb.handshake(); err != nil {
		return nil, err
	}
	return newStore(rb), nil
}

// VersionInfo is the GET /v1/version handshake body: the wire-protocol
// generation plus every schema version that crosses the wire, so a worker
// and coordinator can refuse to exchange records they'd misread.
type VersionInfo struct {
	Protocol      string `json:"protocol"`
	PointKey      string `json:"point_key_version"`
	StoreRecord   string `json:"store_record_version"`
	ShardWire     string `json:"shard_wire_version"`
	GoVersion     string `json:"go_version,omitempty"`
	BuildRevision string `json:"build_revision,omitempty"`
}

// ErrVersionMismatch is returned when a remote peer speaks a different
// protocol or schema generation.
var ErrVersionMismatch = errors.New("store: remote protocol version mismatch")

// handshake checks the peer's /v1/version. Unreachable is tolerated
// (the peer may not be up yet); an answering peer with the wrong protocol
// or record schema is refused.
func (rb *remoteBackend) handshake() error {
	resp, err := rb.client.Get(rb.base + "/v1/version")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var v VersionInfo
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&v); err != nil {
		return nil
	}
	if v.Protocol != ProtocolVersion {
		return fmt.Errorf("%w: peer %s speaks %q, this binary speaks %q",
			ErrVersionMismatch, rb.base, v.Protocol, ProtocolVersion)
	}
	if v.StoreRecord != "" && v.StoreRecord != recordVersion {
		return fmt.Errorf("%w: peer %s stores %q records, this binary stores %q",
			ErrVersionMismatch, rb.base, v.StoreRecord, recordVersion)
	}
	return nil
}

func (rb *remoteBackend) Kind() string   { return "remote" }
func (rb *remoteBackend) Target() string { return rb.base }

func (rb *remoteBackend) enabled() bool { return !rb.h.degraded.Load() }

// do performs one store API request, retrying transient failures (5xx and
// transport errors) with exponential backoff before feeding the
// degradation tracker. 404 is a clean miss; other 4xx are deterministic
// rejections and fail without retry.
func (rb *remoteBackend) do(method, path string, body []byte) ([]byte, readStatus) {
	var lastErr error
	for attempt := 0; attempt < ioAttempts; attempt++ {
		if attempt > 0 {
			rb.h.retries.Add(1)
			time.Sleep(ioBackoff << (attempt - 1))
		}
		var r io.Reader
		if body != nil {
			r = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, rb.base+path, r)
		if err != nil {
			return nil, readIOError
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/octet-stream")
		}
		resp, err := rb.client.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusNotFound:
			return nil, readMissing
		case resp.StatusCode >= 500:
			lastErr = fmt.Errorf("%s %s: %s", method, path, resp.Status)
			continue
		case resp.StatusCode >= 400:
			// Deterministic rejection (bad address, version mismatch):
			// retrying cannot help, and it should not degrade the peer.
			return nil, readCorrupt
		case rerr != nil:
			lastErr = rerr
			continue
		default:
			return data, readOK
		}
	}
	rb.h.fail("remote", method+" "+rb.base+path, lastErr)
	return nil, readIOError
}

// fetchRecord fetches and verifies one record. The CRC + identity check on
// the response body is what catches torn or mangled HTTP responses — a
// corrupt body is dropped (counted as quarantined) and reads as a miss,
// exactly like a corrupt file.
func fetchRecord[T any](rb *remoteBackend, c codec[T], path, wantID string) (T, bool) {
	var zero T
	data, ok := rb.get(path)
	if !ok {
		return zero, false
	}
	rec, status := c.decode(data, wantID)
	switch status {
	case readOK:
		rb.h.ok()
		return rec, true
	case readCorrupt:
		rb.h.quarantined.Add(1)
	}
	return zero, false
}

// ReadPoint fetches and verifies one point record (see fetchRecord).
func (rb *remoteBackend) ReadPoint(key string) (core.CachedPoint, bool) {
	p, ok := fetchRecord(rb, pointKind.codec, "/v1/store/points/"+addr(key), key)
	return p.Point, ok
}

// get fetches one body; false on a degraded backend, a miss, or a failure
// (do already retried and fed the degradation tracker).
func (rb *remoteBackend) get(path string) ([]byte, bool) {
	if !rb.enabled() {
		return nil, false
	}
	data, status := rb.do(http.MethodGet, path, nil)
	return data, status == readOK
}

// putRecord encodes and uploads one record.
func putRecord[T any](rb *remoteBackend, c codec[T], path string, rec T) error {
	if !rb.enabled() {
		return nil
	}
	data, err := c.encode(rec)
	if err != nil {
		return err
	}
	return rb.put(path, data)
}

// put uploads one body; do already retried and fed the degradation tracker.
func (rb *remoteBackend) put(path string, data []byte) error {
	if _, status := rb.do(http.MethodPut, path, data); status != readOK {
		return fmt.Errorf("store: remote PUT %s failed", path)
	}
	rb.h.ok()
	return nil
}

func (rb *remoteBackend) WritePoint(key string, pt core.CachedPoint) error {
	return putRecord(rb, pointKind.codec, "/v1/store/points/"+addr(key), pointPayload{Key: key, Point: pt})
}

func (rb *remoteBackend) ExportPoint(addrHex string) ([]byte, bool) {
	data, ok := rb.get("/v1/store/points/" + addrHex)
	if ok {
		rb.h.ok()
	}
	return data, ok
}

func (rb *remoteBackend) WriteStudy(fingerprint string, data []byte) error {
	if !rb.enabled() {
		return nil
	}
	return rb.put("/v1/store/studies/"+fingerprint, data)
}

func (rb *remoteBackend) ReadStudy(fingerprint string) (StudyRecord, bool) {
	return fetchRecord(rb, studyKind.codec, "/v1/store/studies/"+fingerprint, fingerprint)
}

func (rb *remoteBackend) StudyFingerprints() []string {
	data, ok := rb.get("/v1/store/studies")
	if !ok {
		return nil
	}
	var body struct {
		Fingerprints []string `json:"fingerprints"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		rb.h.quarantined.Add(1)
		return nil
	}
	rb.h.ok()
	return body.Fingerprints
}

func (rb *remoteBackend) Health() HealthStats { return rb.h.stats() }
func (rb *remoteBackend) Degraded() bool      { return rb.h.degraded.Load() }
