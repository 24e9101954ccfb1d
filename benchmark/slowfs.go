package main

import (
	"os"
	"time"

	"repro/internal/storage/vfs"
)

// modelledSyncDelay is the cost of one flush on the modelled disk: about
// what a datacentre SSD with a write cache charges for an fdatasync.
const modelledSyncDelay = time.Millisecond

// slowSyncFS is the benchmark's modelled disk. Reads, writes, renames and
// removals go to the real filesystem under the data directory (and stay in
// the page cache); every flush — File.Sync, File.Datasync, FS.SyncDir — is
// replaced by a fixed sleep. A real fsync of the shared virtio disk varied
// throughput by 16 % between identical runs; the fixed delay keeps what the
// benchmark exists to show (how many flushes the commit path issues and how
// much work each one covers) and drops what it cannot control.
type slowSyncFS struct {
	vfs.FS
	delay time.Duration
}

func newSlowSyncFS(delay time.Duration) slowSyncFS {
	return slowSyncFS{FS: vfs.OS{}, delay: delay}
}

func (s slowSyncFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := s.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return slowSyncFile{File: f, delay: s.delay}, nil
}

func (s slowSyncFS) Open(name string) (vfs.File, error) {
	f, err := s.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return slowSyncFile{File: f, delay: s.delay}, nil
}

func (s slowSyncFS) SyncDir(string) error {
	time.Sleep(s.delay)
	return nil
}

type slowSyncFile struct {
	vfs.File
	delay time.Duration
}

func (f slowSyncFile) Sync() error {
	time.Sleep(f.delay)
	return nil
}

func (f slowSyncFile) Datasync() error {
	time.Sleep(f.delay)
	return nil
}
