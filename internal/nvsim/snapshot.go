package nvsim

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Memo-cache snapshots. The persistent study store (internal/store)
// snapshots the memo cache to disk on shutdown and reloads it on startup,
// so a restarted process answers *partially overlapping* studies — new
// traffic over already-characterized arrays, another optimization target
// of a cached configuration — without re-running the engine. (Fully
// repeated points never reach the memo at all: the per-point store serves
// them.)
//
// The wire format is gob with an explicit version string. gob tolerates
// schema drift by silently zero-filling, which here would mean silently
// wrong physics — so SnapshotVersion must be bumped whenever Config,
// Result, Organization, or cell.Definition change shape, a snapshot of any
// other version is refused whole with ErrSnapshotVersion, and RestoreMemo
// additionally skips every entry whose winners do not belong to its key.

// SnapshotVersion identifies the memo snapshot schema. v1 held every
// admissible candidate per key; v2 holds the eight per-target winners.
const SnapshotVersion = "nvmx-memo/v2"

// ErrSnapshotVersion reports a well-formed snapshot of a schema version
// this binary does not speak: not corruption, just unusable. Stores leave
// such a file in place; the next SaveMemo overwrites it.
var ErrSnapshotVersion = errors.New("nvsim: unknown memo snapshot version")

// memoSnapshot is the on-disk form: each entry carries the normalized
// Config it was characterized for (the memo key) and the winner of every
// optimization target, indexed by OptTarget.
type memoSnapshot struct {
	Version string
	Entries []memoSnapshotEntry
}

type memoSnapshotEntry struct {
	Config Config
	Best   [numOptTargets]Result
}

// SnapshotMemo writes every completed, successful memo entry to w. Entries
// still being computed by another goroutine and entries that failed are
// skipped — they re-compute (or re-fail) naturally after a restore.
func SnapshotMemo(w io.Writer) error {
	snap := memoSnapshot{Version: SnapshotVersion}
	memo.mu.Lock()
	for key, e := range memo.m {
		if e.ready.Load() && e.err == nil {
			snap.Entries = append(snap.Entries, memoSnapshotEntry{Config: key, Best: e.best})
		}
	}
	memo.mu.Unlock()
	if err := gob.NewEncoder(w).Encode(&snap); err != nil {
		return fmt.Errorf("nvsim: encoding memo snapshot: %w", err)
	}
	return nil
}

// decodeSnapshot reads one snapshot of the current version, dropping
// every invalid entry.
func decodeSnapshot(r io.Reader) (*memoSnapshot, error) {
	var snap memoSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("nvsim: decoding memo snapshot: %w", err)
	}
	if snap.Version != SnapshotVersion {
		return nil, fmt.Errorf("%w %q, want %q", ErrSnapshotVersion, snap.Version, SnapshotVersion)
	}
	snap.Entries = slices.DeleteFunc(snap.Entries, func(se memoSnapshotEntry) bool { return !se.valid() })
	return &snap, nil
}

// valid reports whether an entry is one bestPerTarget could have produced:
// a normalized memo key whose winners pass ValidWinners for every target.
func (se *memoSnapshotEntry) valid() bool {
	cfg := se.Config
	return cfg.normalize() == nil && cfg == se.Config.memoKey() &&
		ValidWinners(cfg, allTargets, se.Best[:])
}

// allTargets is every optimization target, the order Best is indexed in.
var allTargets = OptTargets()

// ValidWinners reports whether winners could be CharacterizeTargets(cfg,
// targets)'s all-successful answer: one result per target, in order, each
// for cfg's cell, capacity and normalized word width, admitted by cfg's
// constraints. It checks winners computed elsewhere (a memo snapshot, a
// fabric shard).
func ValidWinners(cfg Config, targets []OptTarget, winners []Result) bool {
	cfg.Target = 0
	if cfg.normalize() != nil || len(winners) != len(targets) {
		return false
	}
	for i, t := range targets {
		r := &winners[i]
		if r.Target != t || t < 0 || t >= numOptTargets || r.Cell != cfg.Cell ||
			r.CapacityBytes != cfg.CapacityBytes || r.WordBits != cfg.WordBits || !cfg.admissible(*r) {
			return false
		}
	}
	return true
}

// RestoreMemo merges a snapshot written by SnapshotMemo into the memo
// cache, returning how many entries were inserted. Invalid entries are
// skipped; keys already present keep their live value; the cache capacity
// still applies. A snapshot of another schema version is refused whole
// with an error wrapping ErrSnapshotVersion.
func RestoreMemo(r io.Reader) (int, error) {
	snap, err := decodeSnapshot(r)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, se := range snap.Entries {
		e := &memoEntry{best: se.Best}
		e.once.Do(func() {})
		e.ready.Store(true)
		memo.mu.Lock()
		if _, ok := memo.m[se.Config]; !ok && len(memo.m) < memoMaxEntries {
			memo.m[se.Config] = e
			n++
		}
		memo.mu.Unlock()
	}
	return n, nil
}

// CheckMemoSnapshot validates a snapshot — decodable, right schema version
// — without touching the live memo, returning how many of its entries are
// valid (RestoreMemo inserts at most that many). Offline verification
// (`nvmexplorer fsck`) uses this so a scan never mutates engine state.
func CheckMemoSnapshot(r io.Reader) (int, error) {
	snap, err := decodeSnapshot(r)
	if err != nil {
		return 0, err
	}
	return len(snap.Entries), nil
}

// MemoLen reports how many configurations the cache currently holds.
func MemoLen() int {
	memo.mu.Lock()
	defer memo.mu.Unlock()
	return len(memo.m)
}
