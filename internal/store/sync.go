package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
)

// Anti-entropy support: the point-set digest protocol that lets two stores
// discover and repair divergence after a partition or crash, and the
// durable sync records that make every reconciliation pass auditable.
//
// The unit of exchange is the content address (the SHA-256 of a point's
// canonical key — see addr). Two stores that hold the same address hold
// the same point: the address commits to the full key, and every record is
// key-verified on read, so set reconciliation over addresses is set
// reconciliation over results. A reconciliation pass works in three steps:
//
//  1. the initiator lists its addresses (PointAddrs) and POSTs them to the
//     peer's /v1/store/diff, which answers with the peer's view: addresses
//     the initiator has that the peer lacks (Missing) and addresses the
//     peer has that the initiator lacks (Extra);
//  2. the initiator pulls every Extra record (GET /v1/store/points/{addr})
//     and pushes every Missing one (PUT) — both directions ride the
//     CRC-enveloped wire format, so a record mangled in transit is
//     quarantined by the consumer's existing envelope check, never stored;
//  3. the initiator appends a SyncRecord under DIR/sync/ so the pass is
//     visible to `nvmexplorer fsck` and operators can audit when (and how
//     much) two stores last converged.
//
// Convergence is asserted by digest: Digest() hashes the sorted address
// set, so two stores report equal digests exactly when they hold identical
// point-key sets.

// PointAddrs returns the content addresses of every point this store can
// serve — the union of the resident in-memory mirror and the backend's
// durable records — sorted for deterministic digests and diffs.
func (s *Store) PointAddrs() []string {
	set := make(map[string]struct{})
	s.mu.Lock()
	for a := range s.idx {
		set[a] = struct{}{}
	}
	s.mu.Unlock()
	for _, a := range s.backend.PointAddrs() {
		set[a] = struct{}{}
	}
	addrs := make([]string, 0, len(set))
	for a := range set {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	return addrs
}

// Digest summarizes the store's point-key set: the SHA-256 over the sorted
// content addresses. Two stores with equal digests hold identical point
// sets — the anti-entropy convergence check.
func (s *Store) Digest() (count int, digest string) {
	addrs := s.PointAddrs()
	return len(addrs), digestOf(addrs)
}

// digestOf hashes a sorted address set.
func digestOf(addrs []string) string {
	h := sha256.New()
	for _, a := range addrs {
		h.Write([]byte(a))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// DiffRequest is the POST /v1/store/diff body: the wire-protocol
// generation and the requester's full content-address set.
type DiffRequest struct {
	Protocol string   `json:"protocol"`
	Addrs    []string `json:"addrs"`
}

// DiffResponse is the peer's answer: the requester's addresses the peer
// lacks (Missing — candidates to push), the peer's addresses absent from
// the request (Extra — candidates to pull), and the peer's own point count
// and digest so the requester can verify convergence without a second
// round trip.
type DiffResponse struct {
	Missing []string `json:"missing"`
	Extra   []string `json:"extra"`
	Points  int      `json:"points"`
	Digest  string   `json:"digest"`
}

// Diff computes this store's side of the diff protocol against a remote
// address set: which of theirs this store lacks (their view's "missing" is
// computed by the peer; here we answer as the peer).
func (s *Store) Diff(theirs []string) DiffResponse {
	mine := s.PointAddrs()
	mineSet := make(map[string]struct{}, len(mine))
	for _, a := range mine {
		mineSet[a] = struct{}{}
	}
	theirSet := make(map[string]struct{}, len(theirs))
	resp := DiffResponse{Missing: []string{}, Extra: []string{}}
	for _, a := range theirs {
		theirSet[a] = struct{}{}
		if _, ok := mineSet[a]; !ok {
			resp.Missing = append(resp.Missing, a)
		}
	}
	for _, a := range mine {
		if _, ok := theirSet[a]; !ok {
			resp.Extra = append(resp.Extra, a)
		}
	}
	sort.Strings(resp.Missing)
	resp.Points, resp.Digest = len(mine), digestOf(mine)
	return resp
}

// syncRecordVersion stamps durable anti-entropy sync records.
const syncRecordVersion = "nvmx-sync/v1"

// SyncRecord is the durable trace of one anti-entropy pass against one
// peer: how many records moved in each direction and when (Unix seconds).
// Records accumulate under DIR/sync/ and are scanned by fsck.
type SyncRecord struct {
	Version string
	Peer    string
	Pulled  int
	Pushed  int
	Unix    int64
}

// syncKind registers sync records: DIR/sync/<name>.gob, where syncName
// derives the name from the record.
var syncKind = &kind[SyncRecord]{
	layout: layout{dir: "sync", suffix: ".gob"},
	codec:  codec[SyncRecord]{version: syncRecordVersion, id: syncName},
	name:   syncName,
}

// syncName names one pass's record: timestamp first so a directory listing
// sorts chronologically, peer hash second so concurrent passes against
// different peers never collide.
func syncName(rec *SyncRecord) string {
	sum := sha256.Sum256([]byte(rec.Peer))
	return fmt.Sprintf("%020d-%s", rec.Unix, hex.EncodeToString(sum[:4]))
}

// RecordSync durably appends one anti-entropy pass record. Local stores
// only — a memory or remote store has no directory to audit — and
// best-effort like every durability write: a failure degrades the audit
// trail, never the reconciliation that already happened.
func (s *Store) RecordSync(rec SyncRecord) error {
	lb := s.local
	if lb == nil || !lb.enabled() {
		return nil
	}
	rec.Version = syncRecordVersion
	return writeRecord(lb, syncKind, rec)
}

// SyncRecords loads every readable anti-entropy record, oldest first.
// Corrupt, misnamed and unknown-version files are skipped, not
// quarantined: fsck reports and repairs them.
func (s *Store) SyncRecords() []SyncRecord {
	lb := s.local
	if lb == nil || !lb.enabled() {
		return nil
	}
	var recs []SyncRecord
	// An unreadable directory lists no records; the audit trail is
	// best-effort, and fsck reports the failure.
	_ = lb.scanDir(syncKind.layout, func(path, name string) {
		data, status := lb.readFileRetry(path)
		if status != readOK {
			return
		}
		if rec, status := syncKind.read(data, name); status == readOK {
			recs = append(recs, rec)
		}
	})
	sort.Slice(recs, func(i, j int) bool { return recs[i].Unix < recs[j].Unix })
	return recs
}
