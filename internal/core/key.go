package core

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"strings"

	"repro/internal/cell"
	"repro/internal/eval"
	"repro/internal/nvsim"
	"repro/internal/traffic"
)

// Point identity. The persistent study store (internal/store) keys every
// evaluated grid point by a canonical serialization of everything that
// determines its result: the cell definition (which carries bits per cell),
// capacity, word width, the study's target list, constraints, traffic
// patterns, and the point's resolved evaluation options (write buffer,
// fault mode with its per-point seed). Two studies that overlap — the same
// cells at the same capacities under the same traffic, wrapped in different
// study names or submitted months apart — produce identical point keys and
// reuse each other's work; anything that would change a single output byte
// of the point (even a pattern's display name) changes the key.
//
// The study name is deliberately excluded: it labels the result envelope,
// not the computation.

// pointKeyVersion stamps every key. Bump it whenever the result schema
// changes (fields added to eval.Metrics or nvsim.Result, model revisions),
// so stale store entries become unreachable instead of wrong.
const pointKeyVersion = "nvmx-point/v1"

// PointKeyVersion is exported for the /v1/version worker handshake: two
// processes exchanging points must agree on the key schema, or identical
// physics would hash to different addresses.
const PointKeyVersion = pointKeyVersion

// PointCache is the per-point result cache Study.RunStream consults before
// characterizing a grid point and fills after computing one. Implementations
// (internal/store) must be safe for concurrent use: the worker pool calls
// Get and Put from many goroutines.
type PointCache interface {
	// Get returns the cached result for a key produced by Study.PointKey.
	Get(key string) (CachedPoint, bool)
	// Put stores a computed point. Implementations own the durability
	// policy; Put must not mutate the slices it is handed.
	Put(key string, pt CachedPoint)
}

// CachedPoint is the stored form of one completed grid point: exactly what
// Study.runPoint produced, so replaying it into a Results is
// indistinguishable from recomputing it.
type CachedPoint struct {
	Arrays  []nvsim.Result
	Metrics []eval.Metrics
	Skipped []string
}

// PointKey returns the canonical identity of one grid point under this
// study. The serialization is versioned, order-fixed, and exact (floats in
// hexadecimal notation); the store hashes it to address the entry.
func (s *Study) PointKey(spec PointSpec) string {
	b := make([]byte, 0, 512)
	b = appendPointHead(b, &spec)
	b = s.appendStudyKey(b)
	b = s.appendPointTail(b, &spec)
	return string(b)
}

// A point key is three sections: the head (key version, cell, capacity and
// word width), the study-wide section (targets, constraints and every
// traffic pattern, the bulk of a key on a large traffic sweep) and the tail
// (the point's evaluation options). Code that keys many points of one
// study serializes the study-wide section once (see pointKeyer).

func appendPointHead(b []byte, spec *PointSpec) []byte {
	b = append(b, pointKeyVersion...)
	b = append(b, '\n')
	b = appendCellKey(b, &spec.Cell)
	b = append(b, '\n')
	b = strconv.AppendInt(b, spec.CapacityBytes, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(spec.WordBits), 10)
	return append(b, '\n')
}

func (s *Study) appendStudyKey(b []byte) []byte {
	// Key the effective target list, so a pre-run Fingerprint matches the
	// points the run will store.
	for _, t := range s.targets() {
		b = strconv.AppendInt(b, int64(t), 10)
		b = append(b, ',')
	}
	b = append(b, '\n')
	b = appendKeyFloat(b, s.MaxAreaMM2)
	b = append(b, ',')
	b = appendKeyFloat(b, s.MaxReadLatencyNS)
	b = append(b, '\n')
	for i := range s.Patterns {
		b = appendPatternKey(b, &s.Patterns[i])
		b = append(b, '\n')
	}
	return b
}

func (s *Study) appendPointTail(b []byte, spec *PointSpec) []byte {
	opts := spec.options(s.Options)
	return opts.AppendKey(b)
}

// pointKeyer keys many points of one study with its study-wide section
// serialized once: the same bytes as PointKey.
type pointKeyer struct {
	s      *Study
	shared string
}

func (s *Study) keyer() pointKeyer {
	return pointKeyer{s: s, shared: string(s.appendStudyKey(nil))}
}

// append appends the point's key to b.
func (k pointKeyer) append(b []byte, spec *PointSpec) []byte {
	b = appendPointHead(b, spec)
	b = append(b, k.shared...)
	return k.s.appendPointTail(b, spec)
}

// key returns the point's key in a single allocation of its exact size:
// the head and tail render into stack scratch, and the three sections are
// copied once into the key.
func (k pointKeyer) key(spec *PointSpec) string {
	var head [512]byte
	var tail [128]byte
	h := appendPointHead(head[:0], spec)
	t := k.s.appendPointTail(tail[:0], spec)
	var key strings.Builder
	key.Grow(len(h) + len(k.shared) + len(t))
	key.Write(h)
	key.WriteString(k.shared)
	key.Write(t)
	return key.String()
}

// Fingerprint returns the study-level identity: a hash covering the name,
// any Pareto selection, which axes the study declares, and every grid
// point's key, in enumeration order. Two configurations with equal
// fingerprints produce byte-identical study bodies in every format, which
// is what the service's ETag and async singleflight deduplication rely on.
// The axis-declaration flags matter even when the enumerated points are
// identical: output writers gate columns on Declares (a study-wide
// word_bits and a single-valued word_bits_axis enumerate the same specs
// but render different rows). It fails only when the design space itself
// cannot be enumerated.
func (s *Study) Fingerprint() (string, error) {
	specs, err := s.Space()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte("nvmx-study/v1\n"))
	h.Write([]byte(s.Name))
	h.Write([]byte{'\n'})
	for _, m := range s.Pareto {
		h.Write([]byte(m))
		h.Write([]byte{','})
	}
	h.Write([]byte{'\n'})
	for a := Axis(0); a < numAxes; a++ {
		if s.Declares(a) {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	h.Write([]byte{'\n'})
	// Adaptive runs evaluate a (seed, budget)-determined subset of the grid,
	// so those knobs are part of the study identity; exhaustive studies hash
	// exactly as they always have.
	if s.Mode == ModeAdaptive {
		h.Write([]byte("mode:adaptive,"))
		h.Write([]byte(strconv.FormatInt(int64(s.Budget), 10)))
		h.Write([]byte{','})
		h.Write([]byte(strconv.FormatInt(s.Seed, 10)))
		h.Write([]byte{'\n'})
	}
	k := s.keyer()
	var key []byte
	for i := range specs {
		key = k.append(key[:0], &specs[i])
		key = append(key, 0)
		h.Write(key)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// CharacterizationKey returns the canonical identity of the engine work
// one grid point requires: the cell definition, capacity, and word width —
// the exact fields the plan phase (plan.go) dedupes characterizations by.
// Points sharing a CharacterizationKey share one engine pass, which is why
// the fabric coordinator consistent-hashes by this key rather than by
// PointKey: every point of a unique characterization config lands on the
// same worker, so no config is ever characterized on two machines.
func (s *Study) CharacterizationKey(spec PointSpec) string {
	b := make([]byte, 0, 256)
	b = appendCellKey(b, &spec.Cell)
	b = append(b, '\n')
	b = strconv.AppendInt(b, spec.CapacityBytes, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(spec.WordBits), 10)
	return string(b)
}

// appendKeyFloat mirrors eval's canonical float notation for the
// characterization-side fields.
func appendKeyFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'x', -1, 64)
}

// appendCellKey serializes every cell.Definition field. The explicit field
// list is deliberate: a new Definition field must be added here (and the
// key version bumped) before the store can be trusted with it.
func appendCellKey(b []byte, d *cell.Definition) []byte {
	b = append(b, "cell:"...)
	b = append(b, d.Name...)
	b = append(b, 0)
	b = strconv.AppendInt(b, int64(d.Tech), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(d.Flavor), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(d.BitsPerCell), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(d.Sense), 10)
	for _, v := range [...]float64{
		d.AreaF2, d.NodeNM,
		d.ReadLatencyNS, d.WriteLatencyNS, d.ReadEnergyPJ, d.WriteEnergyPJ,
		d.EnduranceCycles, d.RetentionS,
		d.ResOnOhm, d.ResOffOhm, d.ReadVoltage, d.WriteVoltage,
		d.CellLeakagePW, d.RefreshPeriodS, d.DtoDSigma,
	} {
		b = append(b, ',')
		b = appendKeyFloat(b, v)
	}
	return b
}

// appendPatternKey serializes every traffic.Pattern field, name included —
// the name appears in result rows, so it is part of the point's identity.
func appendPatternKey(b []byte, p *traffic.Pattern) []byte {
	b = append(b, "pat:"...)
	b = append(b, p.Name...)
	b = append(b, 0)
	for _, v := range [...]float64{
		p.ReadsPerSec, p.WritesPerSec, p.ReadsPerTask, p.WritesPerTask,
		p.TasksPerSec,
	} {
		b = appendKeyFloat(b, v)
		b = append(b, ',')
	}
	b = strconv.AppendInt(b, p.FootprintBytes, 10)
	return b
}
