package store

import (
	"io/fs"
	"os"
	"path/filepath"
)

// The filesystem seam. Every disk touch the store makes — point records,
// study manifests, the job journal, quarantine moves — goes through the FS
// interface, so fault-injection tests (and the chaos CI job) can wrap the
// real filesystem with deterministic error and corruption rates instead of
// needing a failing disk. Production code uses DiskFS.
//
// The primitives are deliberately coarse: WriteFileAtomic owns the
// temp-file + rename dance, so an injected fault models a torn or failed
// write exactly where a real one would occur (the store never sees a
// half-written destination file through any FS implementation).

// FS is the set of filesystem operations the store performs.
type FS interface {
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(path string) error
	// ReadFile returns the full contents of a file.
	ReadFile(path string) ([]byte, error)
	// WriteFileAtomic durably replaces path with data: write to a
	// temporary file in the same directory, then rename over path, so a
	// crash mid-write never leaves a torn destination file.
	WriteFileAtomic(path string, data []byte) error
	// Rename moves a file (same volume; used for quarantine).
	Rename(oldpath, newpath string) error
	// Remove deletes a file; removing a missing file is not an error.
	Remove(path string) error
	// ReadDir lists a directory; a missing directory reads as empty.
	ReadDir(path string) ([]fs.DirEntry, error)
}

// DiskFS is the production FS: the real filesystem via the os package.
var DiskFS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(path string) error { return os.MkdirAll(path, 0o755) }

func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(path string) error {
	err := os.Remove(path)
	if err != nil && os.IsNotExist(err) {
		return nil
	}
	return err
}

func (osFS) ReadDir(path string) ([]fs.DirEntry, error) {
	ents, err := os.ReadDir(path)
	if err != nil && os.IsNotExist(err) {
		return nil, nil
	}
	return ents, err
}
