package store

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
)

// Offline store checking and repair, behind `nvmexplorer fsck`. Fsck walks
// a store directory — point files, job records and study manifests —
// verifying each file through its kind's codec exactly as the live store
// does (version, checksum, file name), and in repair mode quarantines what
// is broken and rewrites what is merely stale (legacy pre-checksum point
// files are upgraded to the current checksummed format). Files of record
// kinds this binary no longer writes are counted as legacy and, in repair
// mode, removed.

// FsckReport is the result of one store scan.
type FsckReport struct {
	// Point files.
	PointsOK      int `json:"points_ok"`
	PointsLegacy  int `json:"points_legacy"`  // readable pre-checksum (v1) files
	PointsCorrupt int `json:"points_corrupt"` // torn, bit-flipped, or misplaced
	PointsUnknown int `json:"points_unknown"` // newer schema than this binary

	// Job journal.
	JobsIncomplete int `json:"jobs_incomplete"`
	JobsCorrupt    int `json:"jobs_corrupt"`
	JobsUnknown    int `json:"jobs_unknown"` // newer schema than this binary

	// Study manifests.
	StudiesOK      int `json:"studies_ok"`
	StudiesCorrupt int `json:"studies_corrupt"` // torn, bit-flipped, or misnamed
	StudiesUnknown int `json:"studies_unknown"` // newer schema than this binary

	// Legacy counts files of record kinds older versions wrote and this
	// one never reads: fabric shard-assignment records (jobs/*.shards),
	// anti-entropy sync records (sync/*.gob), per-point job progress
	// files (jobs/*.progress) and the engine memo snapshot (memo.gob).
	Legacy int `json:"legacy"`

	// Repair actions taken (repair mode only).
	Repaired    int `json:"repaired"`    // legacy points rewritten to the current format
	Quarantined int `json:"quarantined"` // corrupt files moved to .corrupt/
	Removed     int `json:"removed"`     // legacy files deleted
}

// legacyFiles are the layouts of the record kinds counted in Legacy. The
// memo snapshot is the only .gob file older versions wrote at the root.
var legacyFiles = []layout{
	{dir: "jobs", suffix: ".shards"},
	{dir: "sync", suffix: ".gob"},
	{dir: "jobs", suffix: ".progress"},
	{dir: "", suffix: ".gob"},
}

// Clean reports whether the scan found nothing wrong (legacy-format files
// are stale, not wrong).
func (r *FsckReport) Clean() bool {
	return r.PointsCorrupt == 0 && r.JobsCorrupt == 0 && r.StudiesCorrupt == 0
}

// Summary renders the report for terminal output.
func (r *FsckReport) Summary() string {
	var b strings.Builder
	unknown := func(n int) {
		if n > 0 {
			fmt.Fprintf(&b, ", %d unknown-version (left in place)", n)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "points: %d ok, %d legacy, %d corrupt", r.PointsOK, r.PointsLegacy, r.PointsCorrupt)
	unknown(r.PointsUnknown)
	fmt.Fprintf(&b, "journal: %d incomplete job(s), %d corrupt", r.JobsIncomplete, r.JobsCorrupt)
	unknown(r.JobsUnknown)
	fmt.Fprintf(&b, "studies: %d ok, %d corrupt", r.StudiesOK, r.StudiesCorrupt)
	unknown(r.StudiesUnknown)
	if r.Legacy > 0 {
		fmt.Fprintf(&b, "legacy: %d file(s) from an older version (-repair removes them)\n", r.Legacy)
	}
	if r.Repaired+r.Quarantined+r.Removed > 0 {
		fmt.Fprintf(&b, "repair: %d rewritten, %d quarantined, %d removed\n",
			r.Repaired, r.Quarantined, r.Removed)
	}
	return b.String()
}

// Fsck scans (and with repair=true, repairs) a store directory on the real
// filesystem.
func Fsck(dir string, repair bool) (*FsckReport, error) {
	return FsckFS(dir, DiskFS, repair)
}

// fsckKind is one registered record kind as fsck scans it: its files,
// its checker, and the report counters it feeds. upgrade, points only,
// turns a v1 pre-checksum file into current-format bytes.
type fsckKind struct {
	layout
	check                func(data []byte, name string) readStatus
	ok, corrupt, unknown *int
	upgrade              func(data []byte, name string) ([]byte, readStatus)
}

// FsckFS is Fsck with an explicit filesystem (tests).
func FsckFS(dir string, fsys FS, repair bool) (*FsckReport, error) {
	if dir == "" {
		return nil, errors.New("store: fsck needs a store directory")
	}
	if err := checkDir(dir); err != nil {
		return nil, err
	}
	if _, err := os.Stat(dir); errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("store: %s: no such store", dir)
	}
	lb := newLocalBackend(dir, fsys)
	rep := &FsckReport{}
	for _, k := range []fsckKind{
		{pointKind.layout, pointKind.check, &rep.PointsOK, &rep.PointsCorrupt, &rep.PointsUnknown, upgradeV1Point},
		{studyKind.layout, studyKind.check, &rep.StudiesOK, &rep.StudiesCorrupt, &rep.StudiesUnknown, nil},
		{jobKind.layout, jobKind.check, &rep.JobsIncomplete, &rep.JobsCorrupt, &rep.JobsUnknown, nil},
	} {
		if err := lb.fsckScan(k, rep, repair); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	for _, l := range legacyFiles {
		if err := lb.scanDir(l, func(path, _ string) { rep.Legacy++; lb.fsckRemove(rep, path, repair) }); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	rep.Quarantined = int(lb.h.quarantined.Load())
	return rep, nil
}

// fsckScan checks every file of one kind: ok and unknown-version records
// are counted and left alone, corrupt ones (torn, bit-flipped, or at the
// wrong file name) are counted and, in repair mode, quarantined.
func (lb *localBackend) fsckScan(k fsckKind, rep *FsckReport, repair bool) error {
	var readErr error
	err := lb.scanDir(k.layout, func(path, name string) {
		data, err := lb.fs.ReadFile(path)
		if err != nil {
			readErr = errors.Join(readErr, err)
			return
		}
		status := k.check(data, name)
		if status == readMissing && k.upgrade != nil {
			out, st := k.upgrade(data, name)
			if st == readOK {
				rep.PointsLegacy++
				if repair && lb.fs.WriteFileAtomic(path, out) == nil {
					rep.Repaired++
				}
				return
			}
			status = st
		}
		switch status {
		case readCorrupt:
			*k.corrupt++
			if repair {
				lb.quarantine(path)
			}
		case readOK:
			*k.ok++
		default:
			*k.unknown++
		}
	})
	return errors.Join(err, readErr)
}

// recordV1 is the legacy (pre-checksum) point file: the record gob-encoded
// whole, key-verified but unsummed.
type recordV1 struct {
	Version string
	Key     string
	Point   core.CachedPoint
}

// upgradeV1Point re-encodes a v1 point file found at name in the current
// format. A v1 record at the wrong address is corrupt; anything that is
// not v1 stays an unknown version.
func upgradeV1Point(data []byte, name string) ([]byte, readStatus) {
	var rec recordV1
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&rec); err != nil || rec.Version != recordVersionV1 {
		return nil, readMissing
	}
	if addr(rec.Key) != name {
		return nil, readCorrupt
	}
	out, err := pointKind.codec.encode(pointPayload{Key: rec.Key, Point: rec.Point})
	if err != nil {
		return nil, readCorrupt
	}
	return out, readOK
}

// fsckRemove deletes one file in repair mode, counting it as removed.
func (lb *localBackend) fsckRemove(rep *FsckReport, path string, repair bool) {
	if repair && lb.fs.Remove(path) == nil {
		rep.Removed++
	}
}
