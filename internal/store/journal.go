package store

import (
	"sort"
	"strconv"
	"strings"
)

// The write-ahead job journal. An async study job is journaled to
// DIR/jobs/<id>.job (a checksummed, atomically renamed gob record carrying
// everything needed to rebuild the job: its effective config — the request
// body with every request-level option already applied, as a study
// manifest records it — fingerprint, format, and grid size) *before* it is
// enqueued. When the job reaches a terminal state its record is removed.
//
// A record whose config no longer rebuilds to its fingerprint is dropped on
// replay; that includes records from older versions, which journaled the
// raw request body beside separate option fields.
//
// On restart, `serve -store` replays the journal (Store.IncompleteJobs),
// re-adopts every job that never reached a terminal state, and re-runs it
// through the normal pipeline — where every already-stored point is a store
// hit, so a SIGKILL mid-study recomputes at most the points that were not
// yet stored when the process died. The point store is the job's progress:
// nothing else records which points finished.

// journalVersion stamps every job record; unknown versions are skipped on
// replay (they may belong to a newer binary sharing the directory).
const journalVersion = "nvmx-journal/v1"

// JobRecord is the durable description of one async job.
type JobRecord struct {
	Version     string
	ID          string
	Fingerprint string
	Name        string
	Format      string
	Config      []byte // effective study configuration (sweep.Expansion.Config)
	Total       int    // grid points in the design space
}

// jobKind registers job records: DIR/jobs/<id>.job.
var jobKind = &kind[JobRecord]{
	layout: layout{dir: "jobs", suffix: ".job"},
	codec:  newCodec(journalVersion, jobID),
	name:   jobID,
}

func jobID(rec *JobRecord) string { return rec.ID }

// journalEnabled reports whether this store journals at all: only a
// healthy directory store has a journal; memory-only and degraded stores
// no-op — jobs still run, they just don't survive a crash of this process.
func (s *Store) journalEnabled() bool { return s.local.enabled() }

// JournalJob durably records a job before it runs. Called write-ahead: the
// record must be on disk before the job is queued, so a crash at any later
// moment finds it on replay.
func (s *Store) JournalJob(rec JobRecord) error {
	if !s.journalEnabled() {
		return nil
	}
	rec.Version = journalVersion
	return writeRecord(s.local, jobKind, rec)
}

// JournalDone removes a job's record once it reaches a terminal state
// (done, failed, or deliberately canceled) — terminal jobs must not be
// re-adopted on restart. Best-effort; a leftover record only costs a
// redundant (store-warm) replay.
func (s *Store) JournalDone(id string) {
	if !s.journalEnabled() {
		return
	}
	_ = s.local.fs.Remove(jobKind.path(s.local.dir, id))
}

// IncompleteJobs replays the journal: every job record left on disk, in
// submission (ID-sequence) order. Corrupt records — a job record copied to another job's file name
// included — are quarantined and skipped, and unknown versions are
// skipped and left in place: a damaged journal must never block startup,
// nor replay one job twice.
func (s *Store) IncompleteJobs() []JobRecord {
	if !s.journalEnabled() {
		return nil
	}
	lb := s.local
	var recs []JobRecord
	err := lb.scanDir(jobKind.layout, func(path, name string) {
		data, status := lb.readFileRetry(path)
		if status != readOK {
			return
		}
		rec, status := jobKind.read(data, name)
		switch status {
		case readOK:
			recs = append(recs, rec)
		case readCorrupt:
			lb.quarantine(path)
		}
	})
	if err != nil {
		lb.h.fail("readdir "+lb.jobsDir(), err)
		return nil
	}
	sort.Slice(recs, func(i, k int) bool {
		return JobSeq(recs[i].ID) < JobSeq(recs[k].ID)
	})
	return recs
}

// JobSeq extracts the numeric sequence from a "job-N" ID (0 when
// malformed): journal replay sorts by it, so malformed IDs sort first, and
// a resuming server numbers new jobs past it.
func JobSeq(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	if err != nil {
		return 0
	}
	return n
}
