package store

import (
	"crypto/sha256"
	"fmt"
	"slices"

	"repro/internal/core"
)

// Study manifests. A manifest makes a completed study addressable by its
// fingerprint (core.Study.Fingerprint): it records the study's name, grid
// size, and the *effective* sweep configuration (request-level overrides
// like ?pareto= already applied), which is everything needed to re-expand
// the identical core.Study later and look its points up in the
// content-addressed point store — without running the engine.
//
// Manifests are what turn the store from a cache into a queryable result
// set: `GET /v1/studies/{fingerprint}` re-renders a stored study
// byte-identically, and the internal/query index enumerates manifests to
// build its in-memory columnar view. They are written after a study
// completes with no failed points (a partially failed study is not fully
// stored, so it is not addressable) and live in the backend — on disk
// under DIR/studies/<fingerprint>.gob, in the same checksummed envelope as
// every other store file — or, when the backend cannot hold them (a
// memory-only or degraded store, a failed write), in memory, so such a
// store still answers queries within one process.

// studyVersion stamps every manifest file; unknown versions are skipped on
// list (they may belong to a newer binary sharing the directory).
const studyVersion = "nvmx-studyrec/v1"

// StudyRecord is the durable description of one completed, fully stored
// study.
type StudyRecord struct {
	Version     string
	Fingerprint string
	Name        string
	// Config is the effective sweep configuration (JSON) the study expanded
	// from, with request-level overrides applied. Re-parsing it yields a
	// study with the same fingerprint; readers verify that before trusting
	// the record.
	Config []byte
	// Points is the study's design-space grid size.
	Points int
	// Exploration is the adaptive run's coverage record; nil for exhaustive
	// studies (gob omits nil pointers, so old manifests decode unchanged).
	// Its Indices list is what lets the query layer replay exactly the
	// evaluated subset instead of demanding the full grid.
	Exploration *core.Exploration
}

// studyKind registers manifests: DIR/studies/<fingerprint>.gob.
var studyKind = &kind[StudyRecord]{
	layout: layout{dir: "studies", suffix: ".gob"},
	codec:  newCodec(studyVersion, studyFingerprint),
	name:   studyFingerprint,
}

func studyFingerprint(rec *StudyRecord) string { return rec.Fingerprint }

// studyMirror is what the store keeps of one manifest: the digest of its
// encoded record (studyDigest), which is all an equal save needs to skip the write, and
// the record itself only while the backend does not hold it — a write in
// flight or failed, or a memory-only or degraded store. On a persistent
// backend a saved manifest costs its fingerprint and digest, not its
// configuration bytes.
type studyMirror struct {
	sum [sha256.Size]byte
	rec *StudyRecord // nil once a persistent backend holds the record
	// pending: the backend does not hold the record yet (its write is in
	// flight or failed), so an equal save writes it again.
	pending bool
}

// studyDigest encodes a manifest's gob payload and digests its value
// message. Within one process a record always encodes to the same value
// message (the type definitions before it carry this process's type ids),
// so equal digests mean equal records.
func studyDigest(rec *StudyRecord) ([]byte, [sha256.Size]byte, error) {
	payload, err := studyKind.codec.gob.encode(rec)
	if err != nil {
		return nil, [sha256.Size]byte{}, err
	}
	n, _ := typeDefs(payload)
	return payload, sha256.Sum256(payload[n:]), nil
}

// SaveStudy records a completed study's manifest, writing it through to
// the backend. Saving a record equal to one the backend already holds
// writes nothing and leaves StudyGeneration alone, so a warm re-run costs
// no disk write; a record whose backend write failed stays resident and is
// written again on the next save. Backend errors degrade durability, never
// the caller: the resident record still answers queries for the rest of
// the process.
func (s *Store) SaveStudy(rec StudyRecord) error {
	if rec.Fingerprint == "" {
		return fmt.Errorf("store: study record needs a fingerprint")
	}
	rec.Version = studyVersion
	payload, sum, err := studyDigest(&rec)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.studiesMu.Lock()
	old, had := s.studiesMem[rec.Fingerprint]
	same := had && old.sum == sum
	if same && !old.pending {
		s.studiesMu.Unlock()
		return nil
	}
	if !same {
		s.studyGen.Add(1)
	}
	s.studiesMem[rec.Fingerprint] = studyMirror{sum: sum, rec: &rec, pending: true}
	s.studiesMu.Unlock()
	data, err := studyKind.codec.frame(payload)
	if err == nil {
		err = s.local.WriteStudy(rec.Fingerprint, data)
	}
	if err == nil {
		s.studiesMu.Lock()
		if m := s.studiesMem[rec.Fingerprint]; m.sum == sum {
			m.pending = false
			if s.persistent() {
				m.rec = nil
			}
			s.studiesMem[rec.Fingerprint] = m
		}
		s.studiesMu.Unlock()
	}
	return err
}

// StudyGeneration counts changes to the set of manifests this process
// knows: it moves when SaveStudy records a new fingerprint or a changed
// record, or LoadStudy first reads a fingerprint from the backend. It
// never moves back, so an unchanged generation means this process has
// seen no new manifest — though another process sharing the backend may
// have written one, which only StudyFingerprints finds.
func (s *Store) StudyGeneration() int64 { return s.studyGen.Load() }

// LoadStudy returns the manifest of one stored study by fingerprint: the
// resident record if the backend does not hold it, else the backend's.
// Corrupt records are discarded and read as misses, like point records.
func (s *Store) LoadStudy(fingerprint string) (StudyRecord, bool) {
	s.studiesMu.Lock()
	m, had := s.studiesMem[fingerprint]
	s.studiesMu.Unlock()
	if m.rec != nil {
		return *m.rec, true
	}
	rec, ok := s.local.ReadStudy(fingerprint)
	if !ok || had {
		return rec, ok
	}
	// A manifest another process (or an earlier run) wrote: remember its
	// digest, so an equal save skips the write.
	if _, sum, err := studyDigest(&rec); err == nil {
		s.studiesMu.Lock()
		if _, ok := s.studiesMem[fingerprint]; !ok {
			s.studiesMem[fingerprint] = studyMirror{sum: sum}
			s.studyGen.Add(1)
		}
		s.studiesMu.Unlock()
	}
	return rec, true
}

// StudyFingerprints lists every stored study's fingerprint, sorted and
// without reading a manifest: the backend's listing plus the manifests
// only this process holds, so studies saved by this process stay listed
// after a failed write or with the store degraded to memory-only mode.
func (s *Store) StudyFingerprints() []string {
	fps := s.local.StudyFingerprints()
	s.studiesMu.Lock()
	for fp, m := range s.studiesMem {
		if m.rec != nil {
			fps = append(fps, fp)
		}
	}
	s.studiesMu.Unlock()
	slices.Sort(fps)
	return slices.Compact(fps)
}
