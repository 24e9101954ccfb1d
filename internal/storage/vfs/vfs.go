// Package vfs is the filesystem seam under the storage layer: a small
// interface pair (FS, File) covering exactly the operations the WAL,
// checkpointer, retention manifest, and membership record perform, with a
// passthrough OS implementation as the default. The seam exists so a
// fault-injecting filesystem (internal/storage/faultfs) can sit under the
// whole durability stack — bit-rot, torn writes, fsync errors, ENOSPC —
// without the production path paying more than one interface indirection
// per syscall.
package vfs

import (
	"io"
	"os"
)

// File is an open file under the seam. It mirrors the *os.File methods
// the storage layer uses, plus the two durability primitives that were
// previously package-private helpers (Datasync, Preallocate) so their
// platform-specific implementations live with the seam.
type File interface {
	io.Reader
	io.Writer
	io.ReaderAt
	io.WriterAt
	io.Closer
	// Sync is a full fsync (data + metadata).
	Sync() error
	// Datasync flushes file data without forcing a metadata journal
	// commit (fdatasync on Linux; falls back to Sync elsewhere).
	Datasync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
	// Preallocate reserves size bytes (extents allocated, i_size set) so
	// appends overwrite reserved space instead of growing the inode.
	// Filesystems without fallocate support are a graceful no-op.
	Preallocate(size int64) error
	Name() string
}

// FS is the filesystem operations surface of the storage layer.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Open(name string) (File, error)
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]os.DirEntry, error)
	MkdirAll(path string, perm os.FileMode) error
	Remove(name string) error
	Rename(oldpath, newpath string) error
	Truncate(name string, size int64) error
	// SyncDir fsyncs a directory so entry creations, deletions, and
	// renames survive a crash.
	SyncDir(dir string) error
}

// OS is the passthrough implementation over the real filesystem.
type OS struct{}

type osFile struct{ *os.File }

func (f osFile) Datasync() error              { return datasync(f.File) }
func (f osFile) Preallocate(size int64) error { return preallocate(f.File, size) }

func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (OS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (OS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (OS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (OS) Remove(name string) error                     { return os.Remove(name) }
func (OS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (OS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }

func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// OrOS normalizes a possibly-nil FS to the passthrough default, so
// callers thread an optional seam without nil checks at every call site.
func OrOS(fs FS) FS {
	if fs == nil {
		return OS{}
	}
	return fs
}
