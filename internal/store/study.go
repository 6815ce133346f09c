package store

import (
	"fmt"
	"reflect"
	"sort"

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
// stored, so it is not addressable), live in memory (so a memory-only or
// degraded store still answers queries within one process) and, when a
// directory is configured, on disk under DIR/studies/<fingerprint>.gob in
// the same checksummed envelope as every other store file.

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
	codec:  codec[StudyRecord]{version: studyVersion, id: studyFingerprint},
	name:   studyFingerprint,
}

func studyFingerprint(rec *StudyRecord) string { return rec.Fingerprint }

// studyMirror is one manifest in the store's in-memory mirror, and whether
// the backend holds it too (its last write succeeded, or it was read from
// the backend).
type studyMirror struct {
	rec     StudyRecord
	durable bool
}

// SaveStudy records a completed study's manifest, write-through to memory
// and the backend. Saving a record equal to one the backend already holds
// writes nothing and leaves StudyGeneration alone, so a warm re-run costs
// no disk write; a record whose backend write failed is written again on
// the next save. Backend errors degrade durability, never the caller: the
// in-memory record still answers queries for the rest of the process.
func (s *Store) SaveStudy(rec StudyRecord) error {
	if rec.Fingerprint == "" {
		return fmt.Errorf("store: study record needs a fingerprint")
	}
	rec.Version = studyVersion
	s.studiesMu.Lock()
	old, had := s.studiesMem[rec.Fingerprint]
	same := had && reflect.DeepEqual(old.rec, rec)
	if same && old.durable {
		s.studiesMu.Unlock()
		return nil
	}
	if !same {
		s.studiesMem[rec.Fingerprint] = studyMirror{rec: rec}
		s.studyGen.Add(1)
	}
	s.studiesMu.Unlock()
	err := s.backend.WriteStudy(rec)
	if err == nil {
		s.studiesMu.Lock()
		if m := s.studiesMem[rec.Fingerprint]; reflect.DeepEqual(m.rec, rec) {
			m.durable = true
			s.studiesMem[rec.Fingerprint] = m
		}
		s.studiesMu.Unlock()
	}
	return err
}

// StudyGeneration counts changes to the manifest mirror: it moves when the
// mirror gains a fingerprint or a record changes, by SaveStudy or by
// LoadStudy caching a backend record. The mirror never shrinks, so an
// unchanged generation means this process has seen no new manifest —
// though another process sharing the backend may have written one, which
// only ListStudies finds.
func (s *Store) StudyGeneration() int64 { return s.studyGen.Load() }

// LoadStudy returns the manifest of one stored study by fingerprint:
// memory first, then the backend. Corrupt records are discarded and read
// as misses, like point records.
func (s *Store) LoadStudy(fingerprint string) (StudyRecord, bool) {
	s.studiesMu.Lock()
	m, ok := s.studiesMem[fingerprint]
	s.studiesMu.Unlock()
	if ok {
		return m.rec, true
	}
	rec, ok := s.backend.ReadStudy(fingerprint)
	if !ok {
		return StudyRecord{}, false
	}
	s.studiesMu.Lock()
	if m, ok := s.studiesMem[fingerprint]; ok {
		rec = m.rec // a concurrent save or load got there first
	} else {
		s.studiesMem[fingerprint] = studyMirror{rec: rec, durable: true}
		s.studyGen.Add(1)
	}
	s.studiesMu.Unlock()
	return rec, true
}

// ListStudies returns every stored study manifest, sorted by name then
// fingerprint (deterministic across processes). The union of the in-memory
// mirror and the backend is returned, so studies saved by this process
// stay listed even after the store degrades to memory-only mode.
func (s *Store) ListStudies() []StudyRecord {
	for _, fp := range s.backend.StudyFingerprints() {
		s.studiesMu.Lock()
		_, have := s.studiesMem[fp]
		s.studiesMu.Unlock()
		if !have {
			s.LoadStudy(fp) // caches into the mirror on success
		}
	}
	s.studiesMu.Lock()
	out := make([]StudyRecord, 0, len(s.studiesMem))
	for _, m := range s.studiesMem {
		out = append(out, m.rec)
	}
	s.studiesMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}
