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

// The fabric worker protocol: the version handshake (GET /v1/version) and
// the shard-execution endpoint (POST /v1/shard) the fabric coordinator
// fans studies out through. A shard's answer is a CRC-enveloped gob
// (store.EncodeShard), so a torn response reads as detected corruption,
// never as silently truncated physics.

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

// handleVersion answers the worker handshake: every schema version that
// crosses the wire. A coordinator refuses a worker whose versions disagree
// with its own (fabric.Pool.handshake).
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

// handleShard characterizes one slice of a study's design space — the
// worker half of the fabric protocol. The request carries the effective
// sweep configuration; this worker rebuilds the study from it
// (sweep.Rebuild) and must arrive at the coordinator's fingerprint, or the
// two processes disagree about what the work is (409 shard_conflict).
// Shards run through the study lifecycle (execute) with the sync path's
// concurrency budget, load shedding, and execution timeout. Their configs
// go through this worker's memo, never its store, and their winners or
// errors return as one CRC-enveloped payload (core.Study.Characterize says
// which configs ship).
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
	x, err := sweep.Rebuild(req.Config, req.Fingerprint, nil)
	if errors.Is(err, sweep.ErrRebuilt) {
		apiError(w, http.StatusConflict, codeShardConflict, err)
		return
	}
	if err != nil {
		configError(w, err)
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
