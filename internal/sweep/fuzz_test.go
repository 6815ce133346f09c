package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// FuzzExpand feeds study descriptions — what a POST body, a journaled job
// or a shard request carries — through Parse and Expand. Every input must
// either fail as a parse or validation error (Parse or Config.Study
// rejects it) or as a *SpaceError, or expand to a study whose effective
// config re-expands, with no overrides, to the same fingerprint, grid size
// and config bytes: the invariant the query index and the shard handler
// rely on.
func FuzzExpand(f *testing.F) {
	for _, seed := range []string{
		multiAxisConfig,
		dnnConfig,
		legacyConfig,
		adaptiveRefConfig("fuzz_adaptive", []string{`{"technology": "STT", "flavor": "Opt"}`}, 4, ""),
		adaptiveRefConfig("fuzz_adaptive_axes", []string{`{"technology": "FeFET", "flavor": "Opt"}`}, 3, `
  "write_buffers": [null, {"mask_latency": true, "buffer_latency_ns": 1}],
  "fault": {"modes": ["none", "raw"], "seed": 9, "probe_bytes": 256},
  "budget": 2,`),
		`{"name": "no capacities", "cells": [{"technology": "STT", "flavor": "Opt"}],
  "traffic": {"fixed": [{"name": "t", "reads_per_sec": 1}]}}`,
		`{"name":`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The design space has no size limit yet, and generic traffic makes
		// points² patterns: a mutated points count would spend this target's
		// time and memory building patterns. Such inputs are skipped until
		// sweep parsing bounds the grid.
		var probe struct {
			Traffic struct {
				Generic *struct{ Points int } `json:"generic"`
			} `json:"traffic"`
		}
		json.Unmarshal(data, &probe)
		if g := probe.Traffic.Generic; g != nil && g.Points > 64 {
			t.Skip("generic traffic grid larger than this target explores")
		}

		x, err := Expand(data, Overrides{}, nil)
		if err != nil {
			if errors.As(err, new(*SpaceError)) {
				return
			}
			cfg, perr := Parse(bytes.NewReader(data))
			if perr == nil {
				_, perr = cfg.Study()
			}
			if perr == nil {
				t.Fatalf("Expand failed past parsing and validation without a SpaceError: %v", err)
			}
			return
		}
		again, err := Expand(x.Config, Overrides{}, nil)
		if err != nil {
			t.Fatalf("the effective config does not re-expand: %v\n%s", err, x.Config)
		}
		if again.Fingerprint != x.Fingerprint || again.Points != x.Points || !bytes.Equal(again.Config, x.Config) {
			t.Fatalf("re-expansion drifted: fingerprint %s -> %s, points %d -> %d, config\n%s\n->\n%s",
				x.Fingerprint, again.Fingerprint, x.Points, again.Points, x.Config, again.Config)
		}
	})
}
