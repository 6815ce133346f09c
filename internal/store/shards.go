package store

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// The fabric shard protocol's durable and wire forms.
//
// Wire: a coordinator POSTs /v1/shard to a worker naming the spec indices
// it wants characterized; the worker answers with an envelope-framed gob
// of core.Characterizations — each distinct characterization config of the
// shard that succeeded for every study target, with its per-target
// winners, or failed for every target, with its per-target errors. The
// coordinator evaluates and stores every point itself. The
// same CRC-32 envelope as every store file frames the payload, so a torn
// HTTP response reads as corruption, not as silently truncated physics.
//
// Durable: before fanning a job's shards out, an async coordinator writes
// the full assignment to DIR/jobs/<id>.shards next to the job's journal
// record. The assignment is deterministic (consistent hash over the live
// worker set), so the record's job is forensic and statistical — a resumed
// coordinator recomputes the same assignment, and counts the shards it
// re-fans-out as resumed; fsck reports .shards records whose job is gone.

// ShardWireVersion stamps shard response payloads; the /v1/version
// handshake refuses a worker speaking another.
const ShardWireVersion = "nvmx-shard/v2"

// shardJournalVersion stamps shard-assignment journal records.
const shardJournalVersion = "nvmx-shardrec/v1"

// shardWire frames shard response payloads.
var shardWire = codec[[]core.Characterization]{version: ShardWireVersion}

// EncodeShard frames a shard response payload.
func EncodeShard(cs []core.Characterization) ([]byte, error) { return shardWire.encode(cs) }

// DecodeShard verifies and decodes a shard response payload. Any
// corruption — torn body, checksum mismatch, wrong version — is an error;
// the coordinator treats the whole shard as lost and computes it locally.
func DecodeShard(data []byte) ([]core.Characterization, error) {
	cs, status := shardWire.decode(data, "")
	switch status {
	case readOK:
		return cs, nil
	case readMissing:
		return nil, fmt.Errorf("store: shard payload version mismatch (want %q)", ShardWireVersion)
	}
	return nil, errors.New("store: corrupt shard payload")
}

// ShardAssign is one worker's slice of a sharded study.
type ShardAssign struct {
	Worker  string // worker base URL
	Indices []int  // spec indices, ascending
}

// ShardRecord is the durable description of one job's shard fan-out.
type ShardRecord struct {
	Version     string
	ID          string // async job ID
	Fingerprint string
	Assigns     []ShardAssign
}

// shardKind registers shard-assignment records: DIR/jobs/<id>.shards,
// next to the job's own record.
var shardKind = &kind[ShardRecord]{
	layout: layout{dir: "jobs", suffix: ".shards"},
	codec:  codec[ShardRecord]{version: shardJournalVersion, id: shardJobID},
	name:   shardJobID,
}

func shardJobID(rec *ShardRecord) string { return rec.ID }

// JournalShards durably records a job's shard assignment before fan-out.
// Local-journaling stores only; elsewhere a no-op, like the job journal.
func (s *Store) JournalShards(rec ShardRecord) error {
	if !s.journalEnabled() {
		return nil
	}
	rec.Version = shardJournalVersion
	return writeRecord(s.local, shardKind, rec)
}

// LoadShards returns a job's journaled shard assignment, if one exists.
// Corrupt records are quarantined and read as absent; unknown versions
// read as absent and are left in place.
func (s *Store) LoadShards(id string) (ShardRecord, bool) {
	if !s.journalEnabled() {
		return ShardRecord{}, false
	}
	return readRecord(s.local, shardKind, id, id)
}
