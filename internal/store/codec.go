package store

import (
	"hash/crc32"
	"path/filepath"
	"strings"
)

// The one record codec and the one directory walker. Every record the
// store writes — points, study manifests, the job journal, and the shard
// wire payload — is framed by a codec[T], and every on-disk kind is
// registered once as a kind[T]: where its files live and which file name
// a record belongs at. Reads, writes, directory listings and fsck all go
// through these, so every kind follows the same fault policy by
// construction:
//
//	torn or checksum-failed      corrupt: a miss, quarantined
//	valid envelope, unknown      a miss, left in place (a newer binary
//	version                      sharing the directory may own it)
//	decodes, wrong file name     corrupt: a miss, quarantined
//
// The live read path (ReadPoint) does not read the v1
// pre-checksum point format: such a file is an unknown version. Only fsck
// decodes it, so `fsck -repair` upgrades old stores in place.

// envelope is the frame of every record, on disk and on the wire: a
// version, a CRC-32 (IEEE) of Payload, and the gob-encoded payload itself.
// The checksum turns silent bit flips (and torn HTTP bodies) into detected
// corruption instead of gob decoding noise — or worse, silently wrong
// physics.
type envelope struct {
	Version string
	Sum     uint32
	Payload []byte
}

// readStatus classifies one record read.
type readStatus int

const (
	readOK readStatus = iota
	// readMissing: absent, or a version this binary doesn't know. A miss,
	// but not corruption — the file is left in place.
	readMissing
	readCorrupt
	readIOError
)

// codec frames one record kind: payload T, gob-encoded inside a
// version-stamped, checksummed envelope. Both gob layers run on compiled
// state (compiled.go), shared by every copy of the codec.
type codec[T any] struct {
	version string
	// id returns the record's identity — the key, fingerprint, or ID it is
	// looked up by. nil for payloads with no identity (the shard wire).
	id  func(*T) string
	gob *gobType[T]
}

func newCodec[T any](version string, id func(*T) string) codec[T] {
	return codec[T]{version: version, id: id, gob: newGobType[T]()}
}

// envelopes is the envelope's compiled gob state, shared by every kind.
var envelopes = newGobType[envelope]()

// encode builds the envelope bytes for one record.
func (c codec[T]) encode(rec T) ([]byte, error) {
	payload, err := c.gob.encode(&rec)
	if err != nil {
		return nil, err
	}
	return c.frame(payload)
}

// frame wraps an encoded payload in its envelope.
func (c codec[T]) frame(payload []byte) ([]byte, error) {
	return envelopes.encode(&envelope{Version: c.version, Sum: crc32.ChecksumIEEE(payload), Payload: payload})
}

// decode verifies and decodes one record's bytes. wantID == "" skips the
// identity check (directory scans check the file name instead).
func (c codec[T]) decode(data []byte, wantID string) (T, readStatus) {
	var rec, zero T
	var env envelope
	if err := envelopes.decode(data, &env); err != nil || env.Version == "" {
		return zero, readCorrupt
	}
	if env.Version != c.version {
		return zero, readMissing
	}
	if crc32.ChecksumIEEE(env.Payload) != env.Sum {
		return zero, readCorrupt
	}
	if err := c.gob.decode(env.Payload, &rec); err != nil {
		return zero, readCorrupt
	}
	if wantID != "" && c.id(&rec) != wantID {
		return zero, readCorrupt
	}
	return rec, readOK
}

// layout is where one record kind's files live in a store directory.
type layout struct {
	dir    string // subdirectory of the store root
	suffix string
	// nested files sit one shard-subdirectory level down, named by the
	// first two characters of their name (points/<2hex>/).
	nested bool
}

// path names the file of one record.
func (l layout) path(root, name string) string {
	if l.nested {
		return filepath.Join(root, l.dir, name[:2], name+l.suffix)
	}
	return filepath.Join(root, l.dir, name+l.suffix)
}

// kind registers one on-disk record kind: its layout, its codec, and the
// file name (without suffix) a record belongs at.
type kind[T any] struct {
	layout
	codec codec[T]
	name  func(*T) string
}

// read decodes one file of this kind and verifies the record sits at its
// own name: a copied or renamed record would never be found by its
// identity, so it is corrupt.
func (k *kind[T]) read(data []byte, name string) (T, readStatus) {
	rec, status := k.codec.decode(data, "")
	if status == readOK && k.name(&rec) != name {
		var zero T
		return zero, readCorrupt
	}
	return rec, status
}

// check is read without the record, for fsck.
func (k *kind[T]) check(data []byte, name string) readStatus {
	_, status := k.read(data, name)
	return status
}

// writeRecord durably writes one record at the path its kind derives.
func writeRecord[T any](lb *localBackend, k *kind[T], rec T) error {
	data, err := k.codec.encode(rec)
	if err != nil {
		return err
	}
	return writeEncoded(lb, k.layout, k.name(&rec), data)
}

// writeEncoded durably writes one encoded record under its file name.
func writeEncoded(lb *localBackend, l layout, name string, data []byte) error {
	path := l.path(lb.dir, name)
	if err := lb.fs.MkdirAll(filepath.Dir(path)); err != nil {
		lb.h.fail("mkdir "+filepath.Dir(path), err)
		return err
	}
	return lb.writeFileRetry(path, data)
}

// readRecord loads the record at one file name, verifying its identity
// against wantID. Any failure is a miss: absence silently, I/O errors
// after a retry (feeding the degradation tracker), an unknown version
// leaving the file in place, and corruption — torn write, checksum
// mismatch, identity mismatch (a hash collision or a misplaced file) —
// after quarantining the file so it never costs another read.
func readRecord[T any](lb *localBackend, k *kind[T], name, wantID string) (T, bool) {
	var zero T
	path := k.path(lb.dir, name)
	data, status := lb.readFileRetry(path)
	if status != readOK {
		return zero, false
	}
	rec, status := k.codec.decode(data, wantID)
	switch status {
	case readOK:
		lb.h.ok()
		return rec, true
	case readCorrupt:
		lb.quarantine(path)
	}
	return zero, false
}

// scanDir is the store's one directory walker: it calls visit with the
// path and the suffix-less name of every regular file of layout l. A
// missing directory is empty. Unreadable subdirectories are skipped; the
// first listing error is returned once the walk is done.
func (lb *localBackend) scanDir(l layout, visit func(path, name string)) error {
	root := filepath.Join(lb.dir, l.dir)
	dirs := []string{root}
	if l.nested {
		ents, err := lb.fs.ReadDir(root)
		if err != nil {
			return err
		}
		dirs = dirs[:0]
		for _, ent := range ents {
			if ent.IsDir() {
				dirs = append(dirs, filepath.Join(root, ent.Name()))
			}
		}
	}
	var first error
	for _, dir := range dirs {
		ents, err := lb.fs.ReadDir(dir)
		if err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		for _, ent := range ents {
			name := ent.Name()
			if ent.IsDir() || !strings.HasSuffix(name, l.suffix) {
				continue
			}
			visit(filepath.Join(dir, name), strings.TrimSuffix(name, l.suffix))
		}
	}
	return first
}
