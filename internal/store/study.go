package store

import (
	"bytes"
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
// stored, so it is not addressable) and live on disk under
// DIR/studies/<fingerprint>.gob, in the same checksummed envelope as every
// other store file. The store keeps in memory only the manifests the
// directory does not hold — a memory-only or degraded store's, or one
// whose write failed — as the exact bytes the file would contain, so such
// a store still answers queries within one process, and a directory store
// keeps nothing per saved study: whether a save is equal to what is stored
// is decided from the file itself.

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

// SaveStudy records a completed study's manifest, writing it through to
// the directory. A save whose encoded record equals what the store holds
// — the directory's file, or the resident bytes of one the directory does
// not hold — writes nothing and leaves StudyGeneration alone, so a warm
// re-run costs one file read and no disk write. A record whose write
// failed stays resident, as the exact bytes its file would hold, and is
// written again on the next save. Directory errors degrade durability,
// never the caller: the resident record still answers queries for the
// rest of the process.
func (s *Store) SaveStudy(rec StudyRecord) error {
	if rec.Fingerprint == "" {
		return fmt.Errorf("store: study record needs a fingerprint")
	}
	rec.Version = studyVersion
	data, err := studyKind.codec.encode(rec)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	fp := rec.Fingerprint
	s.studiesMu.Lock()
	held, resident := s.studiesMem[fp]
	s.studiesMu.Unlock()
	if !resident && s.persistent() {
		held, _ = s.local.readFileRetry(studyKind.path(s.local.dir, fp))
	}
	changed := !bytes.Equal(held, data)
	if !changed && (!resident || !s.persistent()) {
		return nil
	}
	if s.persistent() {
		err = writeEncoded(s.local, studyKind.layout, fp, data)
	}
	s.studiesMu.Lock()
	if err == nil && s.persistent() {
		delete(s.studiesMem, fp)
	} else {
		s.studiesMem[fp] = data
	}
	s.studiesMu.Unlock()
	// Only now can a reader find the record, so a listing that sees the
	// generation move finds it.
	if changed {
		s.studyGen.Add(1)
	}
	return err
}

// StudyGeneration counts SaveStudy calls that stored a new or changed
// manifest (a file whose bytes differ counts as changed). Reads never
// move it, and it never moves back, so an unchanged generation means this
// process has saved no new manifest — though another process sharing the
// directory may have written one, which only StudyFingerprints finds.
func (s *Store) StudyGeneration() int64 { return s.studyGen.Load() }

// LoadStudy returns the manifest of one stored study by fingerprint: the
// resident record if the directory does not hold it, else the
// directory's. Corrupt records are discarded and read as misses, like
// point records.
func (s *Store) LoadStudy(fingerprint string) (StudyRecord, bool) {
	s.studiesMu.Lock()
	data, resident := s.studiesMem[fingerprint]
	s.studiesMu.Unlock()
	if resident {
		rec, status := studyKind.read(data, fingerprint)
		return rec, status == readOK
	}
	if !s.persistent() {
		return StudyRecord{}, false
	}
	return readRecord(s.local, studyKind, fingerprint, fingerprint)
}

// StudyFingerprints lists every stored study's fingerprint, sorted and
// without reading a manifest: the directory's listing plus the manifests
// only this process holds, so studies saved by this process stay listed
// after a failed write or with the store degraded to memory-only mode.
func (s *Store) StudyFingerprints() []string {
	fps := s.local.StudyFingerprints()
	s.studiesMu.Lock()
	for fp := range s.studiesMem {
		fps = append(fps, fp)
	}
	s.studiesMu.Unlock()
	slices.Sort(fps)
	return slices.Compact(fps)
}
