package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/store"
	"repro/internal/sweep"
)

// The store/worker wire protocol: the HTTP face of internal/store plus the
// shard-execution endpoint the fabric coordinator fans studies out
// through. Record bodies are the store's own CRC-enveloped gob bytes,
// shipped verbatim (application/octet-stream) — the consumer's envelope
// check covers the network path for free, so a torn response reads as
// detected corruption, never as silently truncated physics.
//
//	GET  /v1/version                    protocol + schema versions (worker handshake)
//	GET  /v1/store/points/{addr}        one point record by content address (404 = miss)
//	PUT  /v1/store/points/{addr}        store one point record (the record names its own key)
//	GET  /v1/store/studies              stored study fingerprints
//	GET  /v1/store/studies/{fp}         one study manifest record
//	PUT  /v1/store/studies/{fp}         store one study manifest record
//	POST /v1/shard                      characterize a slice of a study's design space
//
// Failure semantics mirror the local backend's, mapped onto status codes:
// a missing record is 404 (a clean miss), an unusable upload is 400 with
// store_corrupt or version_mismatch (deterministic — clients don't retry),
// and a missing or degraded store is 503 store_unavailable (transient —
// remote peers retry, then count it toward their degradation threshold).

// maxRecordBytes bounds one uploaded store record (a point record is a few
// KB; a study manifest carries its raw config).
const maxRecordBytes = 16 << 20

// buildRevision is the VCS revision stamped into the binary, when the
// toolchain recorded one.
var buildRevision = func() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return ""
}()

// handleVersion answers the worker/peer handshake: every schema version
// that crosses the wire. Peers refuse to exchange records with a server
// whose versions disagree with their own (store.OpenRemote,
// fabric.Pool.handshake).
func (s *Server) handleVersion(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, store.VersionInfo{
		Protocol:      store.ProtocolVersion,
		PointKey:      core.PointKeyVersion,
		StoreRecord:   store.RecordVersion,
		ShardWire:     store.ShardWireVersion,
		GoVersion:     runtime.Version(),
		BuildRevision: buildRevision,
	})
}

// storeFor503 returns the attached store, answering 503 store_unavailable
// when there is none or it has degraded to memory-only mode. Degraded is
// deliberate: a degraded store can still answer from memory, but peers
// treating it as healthy would build on state this process can no longer
// persist — better they fail over like the local backend does on a dying
// disk.
func (s *Server) storeFor503(w http.ResponseWriter) (*store.Store, bool) {
	st := s.opts.Store
	switch {
	case st == nil:
		apiError(w, http.StatusServiceUnavailable, codeStoreUnavailable,
			fmt.Errorf("no study store attached (start the server with -store)"))
		return nil, false
	case st.Degraded():
		apiError(w, http.StatusServiceUnavailable, codeStoreUnavailable,
			fmt.Errorf("study store degraded to memory-only mode"))
		return nil, false
	}
	return st, true
}

// recordGet serves one record's envelope bytes, looked up by the path
// value param (a point's content address, a manifest's fingerprint).
// Registered as GET, which also answers HEAD ("has") for free.
func (s *Server) recordGet(param, notFound string, export func(*store.Store, string) ([]byte, bool)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		st, ok := s.storeFor503(w)
		if !ok {
			return
		}
		id := r.PathValue(param)
		data, ok := export(st, id)
		if !ok {
			apiError(w, http.StatusNotFound, codeNotFound, fmt.Errorf(notFound, id))
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(data)
	}
}

// recordPut verifies and stores one uploaded body: a point record or a
// study manifest. A record names its own identity (a point's
// key hashes to its address), so the path value is advisory: a mislabeled
// upload can only collide with itself.
func (s *Server) recordPut(importRecord func(*store.Store, []byte) (string, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		st, ok := s.storeFor503(w)
		if !ok {
			return
		}
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRecordBytes))
		if err != nil {
			apiError(w, http.StatusBadRequest, codeStoreCorrupt, err)
			return
		}
		if _, err := importRecord(st, data); err != nil {
			s.importError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}
}

// importError maps the store's typed import failures onto the envelope.
func (s *Server) importError(w http.ResponseWriter, err error) {
	if errors.Is(err, store.ErrUnknownVersion) {
		apiError(w, http.StatusBadRequest, codeVersionMismatch, err)
		return
	}
	apiError(w, http.StatusBadRequest, codeStoreCorrupt, err)
}

// handleStoreStudies lists stored study fingerprints — the remote
// backend's manifest index.
func (s *Server) handleStoreStudies(w http.ResponseWriter, _ *http.Request) {
	st, ok := s.storeFor503(w)
	if !ok {
		return
	}
	writeJSON(w, map[string]any{"fingerprints": st.StudyFingerprints()})
}

// handleShard characterizes one slice of a study's design space — the
// worker half of the fabric protocol. The request carries the effective
// sweep configuration; this worker re-expands the study from it and must
// arrive at the coordinator's fingerprint, or the two processes disagree
// about what the work is (409 shard_conflict). Shards run through the
// study lifecycle (execute) with the sync path's concurrency budget, load
// shedding, and execution timeout. Their configs go through this worker's
// memo, never its store, and their winners or errors return as one
// CRC-enveloped payload (core.Study.Characterize says which configs ship).
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 2*maxConfigBytes))
	if err != nil {
		apiError(w, http.StatusBadRequest, codeInvalidConfig, err)
		return
	}
	var req fabric.ShardRequest
	if err := json.Unmarshal(body, &req); err != nil {
		apiError(w, http.StatusBadRequest, codeInvalidConfig, err)
		return
	}
	if req.Protocol != store.ProtocolVersion {
		apiError(w, http.StatusBadRequest, codeVersionMismatch,
			fmt.Errorf("shard speaks protocol %q, this worker speaks %q", req.Protocol, store.ProtocolVersion))
		return
	}
	x, err := sweep.Expand(req.Config, sweep.Overrides{}, nil)
	if err != nil {
		configError(w, err)
		return
	}
	if x.Fingerprint != req.Fingerprint {
		apiError(w, http.StatusConflict, codeShardConflict,
			fmt.Errorf("config rebuilds to study %s, coordinator expects %s", x.Fingerprint, req.Fingerprint))
		return
	}
	for _, i := range req.Indices {
		if i < 0 || i >= x.Points {
			apiError(w, http.StatusConflict, codeShardConflict,
				fmt.Errorf("shard index %d outside the %d-point design space", i, x.Points))
			return
		}
	}
	var chars []core.Characterization
	_, f := s.execute(r.Context(), execution{
		x: x, sync: true,
		shard: func(ctx context.Context, study *core.Study) error {
			var err error
			if chars, err = study.Characterize(ctx, req.Indices); err != nil {
				return err
			}
			return delayPoints(ctx, len(req.Indices))
		},
		render: func(*core.Results) error {
			data, err := store.EncodeShard(chars)
			if err != nil {
				apiError(w, http.StatusInternalServerError, codeInternal, err)
				return err
			}
			s.shardsServed.Add(1)
			w.Header().Set("Content-Type", "application/octet-stream")
			_, _ = w.Write(data)
			return nil
		},
	})
	if f != nil {
		writeFailure(w, f, false)
	}
}
