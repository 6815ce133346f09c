package store

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// The fabric shard protocol's wire form: a coordinator POSTs /v1/shard to
// a worker naming the spec indices it wants characterized; the worker
// answers with an envelope-framed gob of []core.Characterization — each
// distinct characterization config of the shard that succeeded for every
// study target, with its per-target winners, or failed for every target,
// with its per-target errors. The coordinator evaluates and stores every
// point itself. The same CRC-32 envelope as every store file frames the
// payload, so a torn HTTP response reads as corruption, not as silently
// truncated physics. Nothing of a shard is journaled: a resumed
// coordinator re-fans out whatever its store still lacks.

// ProtocolVersion is the wire-protocol generation of the /v1 worker HTTP
// API. A fabric coordinator refuses a worker reporting a different
// protocol (GET /v1/version handshake).
const ProtocolVersion = "v1"

// ShardWireVersion stamps shard response payloads; the /v1/version
// handshake refuses a worker speaking another.
const ShardWireVersion = "nvmx-shard/v2"

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

// shardWire frames shard response payloads.
var shardWire = newCodec[[]core.Characterization](ShardWireVersion, nil)

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
