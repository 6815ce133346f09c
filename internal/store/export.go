package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
)

// Byte-level record access: the half of the store the /v1/store/* HTTP API
// is made of. Records cross the wire in exactly their envelope form, so
// the consumer's CRC check covers the network path for free — a torn or
// proxied-and-mangled response is detected corruption, same as a torn
// file.

// Errors ImportPoint and ImportStudy distinguish so the HTTP layer can map
// them onto stable error codes.
var (
	// ErrCorruptRecord: the bytes fail the envelope checks (torn, bit
	// flipped, or the payload disagrees with its address).
	ErrCorruptRecord = errors.New("store: corrupt record")
	// ErrUnknownVersion: a schema this binary doesn't speak.
	ErrUnknownVersion = errors.New("store: unknown record version")
)

// ExportPoint returns the raw envelope bytes of one point record by
// content address: resident entries are re-encoded, anything else comes
// from the backend verbatim.
func (s *Store) ExportPoint(addrHex string) ([]byte, bool) {
	if sum, err := hex.DecodeString(addrHex); err == nil && len(sum) == sha256.Size {
		s.mu.Lock()
		i, ok := s.mem.at[[sha256.Size]byte(sum)]
		var p pointPayload
		if ok {
			p = pointPayload{Key: s.mem.slots[i].key, Point: s.mem.slots[i].pt}
		}
		s.mu.Unlock()
		if ok {
			if data, err := pointKind.codec.encode(p); err == nil {
				return data, true
			}
		}
	}
	return s.backend.ExportPoint(addrHex)
}

// ImportPoint verifies one point record's envelope bytes and stores the
// point under its own canonical key, returning that key. The caller does
// not get to choose the address — the record names its key and the key
// hashes to the address, so a mislabeled upload can only ever collide with
// itself.
func (s *Store) ImportPoint(data []byte) (string, error) {
	p, status := pointKind.codec.decode(data, "")
	if err := importError(status); err != nil {
		return "", err
	}
	s.Put(p.Key, p.Point)
	return p.Key, nil
}

// ExportStudy returns the raw envelope bytes of one study manifest.
func (s *Store) ExportStudy(fingerprint string) ([]byte, bool) {
	rec, ok := s.LoadStudy(fingerprint)
	if !ok {
		return nil, false
	}
	data, err := studyKind.codec.encode(rec)
	if err != nil {
		return nil, false
	}
	return data, true
}

// ImportStudy verifies one manifest's envelope bytes and saves it,
// returning its fingerprint.
func (s *Store) ImportStudy(data []byte) (string, error) {
	rec, status := studyKind.codec.decode(data, "")
	if err := importError(status); err != nil {
		return "", err
	}
	_ = s.SaveStudy(rec) // durability is best-effort, same as SaveStudy callers
	return rec.Fingerprint, nil
}

// importError maps a decode status onto the import errors.
func importError(status readStatus) error {
	switch status {
	case readOK:
		return nil
	case readMissing:
		return ErrUnknownVersion
	}
	return ErrCorruptRecord
}
