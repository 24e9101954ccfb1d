// Package faultfs is a fault-injecting vfs.FS for disk-fault testing: it
// wraps a real filesystem and, when armed, injects the disk's failure
// modes under the storage stack — seeded bit-rot in written bytes,
// torn/short writes, one-shot and sticky fsync errors, ENOSPC, and
// per-operation latency. It also models the fsyncgate semantics that make
// fsync fail-fast necessary: in crashable mode, writes land in an
// in-memory "page cache" overlay and only reach the disk on a successful
// sync — an injected sync failure DISCARDS the dirty pages (as the kernel
// does after a failed fsync), so a caller that retries or ignores the
// error and acks the write has genuinely lost data across a crash.
//
// A freshly constructed FS is a pure passthrough until a fault is armed,
// so a test harness can thread one under every node and arm faults
// mid-run. All arming methods and injected faults are safe for
// concurrent use.
package faultfs

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"syscall"
	"time"

	"repro/internal/storage/vfs"
)

// Injected fault errors. ErrInjectedSync deliberately does NOT wrap
// syscall.EIO: tests assert the exact injected cause.
var (
	ErrInjectedSync = errors.New("faultfs: injected fsync failure")
	ErrInjectedTorn = errors.New("faultfs: injected torn write")
)

// Stats counts injected faults (and total writes, for rate context).
type Stats struct {
	Writes       uint64
	BitRot       uint64
	TornWrites   uint64
	SyncFailures uint64
	ENOSPC       uint64
}

// FS is the fault-injecting filesystem. Zero faults armed = passthrough.
type FS struct {
	under vfs.FS

	mu  sync.Mutex
	rng *rand.Rand

	match func(string) bool // nil matches every file

	bitRotEvery  int   // flip one byte in every Nth matching write (0 = off)
	writeN       int   // matching writes seen (drives bitRotEvery)
	tornNext     int   // next N matching writes are torn short
	syncFailNext int   // next N syncs on matching files fail
	syncSticky   bool  // every sync on matching files fails
	spaceLeft    int64 // bytes writable before ENOSPC (-1 = unlimited)
	opDelay      time.Duration
	crashable    bool // buffer writes until a successful sync

	files map[*file]struct{} // open files, for DropDirty
	stats Stats
}

// New wraps under (nil = the real OS filesystem) with a fault layer
// seeded for deterministic injection.
func New(under vfs.FS, seed int64) *FS {
	return &FS{
		under:     vfs.OrOS(under),
		rng:       rand.New(rand.NewSource(seed)),
		spaceLeft: -1,
		files:     make(map[*file]struct{}),
	}
}

// SetPathFilter restricts fault injection to files whose path matches
// (nil = every file). Filesystem-level operations on non-matching files
// pass through untouched.
func (fs *FS) SetPathFilter(match func(path string) bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.match = match
}

// FailSyncs arms the next n syncs (Sync or Datasync) on matching files to
// fail with ErrInjectedSync.
func (fs *FS) FailSyncs(n int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.syncFailNext = n
}

// FailSyncsSticky makes every subsequent sync on matching files fail —
// the dead-disk mode.
func (fs *FS) FailSyncsSticky(on bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.syncSticky = on
}

// SetBitRotEvery flips one seeded byte in every nth matching write
// (0 disables).
func (fs *FS) SetBitRotEvery(n int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.bitRotEvery = n
}

// SetTornWrites makes the next n matching writes land only a prefix
// (roughly half) of the buffer, failing with ErrInjectedTorn.
func (fs *FS) SetTornWrites(n int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.tornNext = n
}

// SetENOSPCAfter allows budget more written bytes before every matching
// write fails with ENOSPC (-1 removes the budget).
func (fs *FS) SetENOSPCAfter(budget int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.spaceLeft = budget
}

// SetOpDelay injects d of latency into every matching file operation.
func (fs *FS) SetOpDelay(d time.Duration) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.opDelay = d
}

// SetCrashable switches matching files to page-cache semantics: writes
// are buffered in memory and only reach the underlying file on a
// successful sync; an injected sync failure discards the buffered pages.
// DropDirty simulates the crash that makes the loss observable.
func (fs *FS) SetCrashable(on bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.crashable = on
}

// DropDirty discards every open file's unsynced buffered writes — the
// crash, from the page cache's point of view.
func (fs *FS) DropDirty() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for f := range fs.files {
		f.mu.Lock()
		f.dirty = nil
		f.mu.Unlock()
	}
}

// Stats returns a snapshot of the injected-fault counters.
func (fs *FS) Stats() Stats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.stats
}

func (fs *FS) matches(path string) bool {
	return fs.match == nil || fs.match(path)
}

func (fs *FS) delay(path string) {
	fs.mu.Lock()
	d := fs.opDelay
	on := fs.matches(path)
	fs.mu.Unlock()
	if on && d > 0 {
		time.Sleep(d)
	}
}

// prepWrite applies the write-side faults to buf and returns the possibly
// mutated buffer, how many bytes to actually hand to the file, and the
// error to report after the short write (nil for a full clean write).
func (fs *FS) prepWrite(path string, buf []byte) ([]byte, int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !fs.matches(path) {
		return buf, len(buf), nil
	}
	fs.stats.Writes++
	if fs.spaceLeft >= 0 {
		if fs.spaceLeft < int64(len(buf)) {
			fs.stats.ENOSPC++
			n := int(fs.spaceLeft)
			fs.spaceLeft = 0
			return buf, n, fmt.Errorf("faultfs: %w", syscall.ENOSPC)
		}
		fs.spaceLeft -= int64(len(buf))
	}
	if fs.tornNext > 0 && len(buf) > 1 {
		fs.tornNext--
		fs.stats.TornWrites++
		return buf, len(buf) / 2, ErrInjectedTorn
	}
	if fs.bitRotEvery > 0 && len(buf) > 0 {
		fs.writeN++
		if fs.writeN%fs.bitRotEvery == 0 {
			rotted := make([]byte, len(buf))
			copy(rotted, buf)
			rotted[fs.rng.Intn(len(rotted))] ^= 1 << uint(fs.rng.Intn(8))
			fs.stats.BitRot++
			return rotted, len(rotted), nil
		}
	}
	return buf, len(buf), nil
}

// syncFault reports whether this sync should fail (consuming a one-shot
// arming), discarding crashable dirty state when it does.
func (fs *FS) syncFault(f *file) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !fs.matches(f.name) {
		return nil
	}
	if fs.syncSticky || fs.syncFailNext > 0 {
		if fs.syncFailNext > 0 {
			fs.syncFailNext--
		}
		fs.stats.SyncFailures++
		// The kernel drops the dirty pages after a failed fsync; a later
		// retry reports success without the data ever reaching the disk.
		f.mu.Lock()
		f.dirty = nil
		f.mu.Unlock()
		return ErrInjectedSync
	}
	return nil
}

func (fs *FS) isCrashable(path string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.crashable && fs.matches(path)
}

// --- vfs.FS implementation ---

func (fs *FS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	fs.delay(name)
	u, err := fs.under.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	f := &file{fs: fs, under: u, name: name}
	fs.mu.Lock()
	fs.files[f] = struct{}{}
	fs.mu.Unlock()
	return f, nil
}

func (fs *FS) Open(name string) (vfs.File, error) {
	fs.delay(name)
	u, err := fs.under.Open(name)
	if err != nil {
		return nil, err
	}
	f := &file{fs: fs, under: u, name: name}
	fs.mu.Lock()
	fs.files[f] = struct{}{}
	fs.mu.Unlock()
	return f, nil
}

func (fs *FS) ReadFile(name string) ([]byte, error) {
	fs.delay(name)
	return fs.under.ReadFile(name)
}

func (fs *FS) ReadDir(name string) ([]os.DirEntry, error)   { return fs.under.ReadDir(name) }
func (fs *FS) MkdirAll(path string, perm os.FileMode) error { return fs.under.MkdirAll(path, perm) }

func (fs *FS) Remove(name string) error {
	fs.delay(name)
	return fs.under.Remove(name)
}

func (fs *FS) Rename(oldpath, newpath string) error {
	fs.delay(newpath)
	return fs.under.Rename(oldpath, newpath)
}

func (fs *FS) Truncate(name string, size int64) error {
	fs.delay(name)
	return fs.under.Truncate(name, size)
}

func (fs *FS) SyncDir(dir string) error {
	fs.delay(dir)
	fs.mu.Lock()
	fail := fs.matches(dir) && (fs.syncSticky || fs.syncFailNext > 0)
	if fail && fs.syncFailNext > 0 {
		fs.syncFailNext--
	}
	if fail {
		fs.stats.SyncFailures++
	}
	fs.mu.Unlock()
	if fail {
		return ErrInjectedSync
	}
	return fs.under.SyncDir(dir)
}

// --- file ---

// dirtyRange is one buffered (unsynced) write in crashable mode.
type dirtyRange struct {
	off int64
	buf []byte
}

type file struct {
	fs    *FS
	under vfs.File
	name  string

	mu    sync.Mutex
	wpos  int64        // sequential-Write position (crashable mode)
	dirty []dirtyRange // buffered writes awaiting a successful sync
}

func (f *file) WriteAt(p []byte, off int64) (int, error) {
	f.fs.delay(f.name)
	buf, n, ferr := f.fs.prepWrite(f.name, p)
	if f.fs.isCrashable(f.name) {
		f.mu.Lock()
		cp := make([]byte, n)
		copy(cp, buf[:n])
		f.dirty = append(f.dirty, dirtyRange{off: off, buf: cp})
		f.mu.Unlock()
		if ferr != nil {
			return n, ferr
		}
		return len(p), nil
	}
	wn, err := f.under.WriteAt(buf[:n], off)
	if err != nil {
		return wn, err
	}
	if ferr != nil {
		return wn, ferr
	}
	return len(p), nil
}

func (f *file) Write(p []byte) (int, error) {
	if f.fs.isCrashable(f.name) {
		f.mu.Lock()
		off := f.wpos
		f.mu.Unlock()
		n, err := f.WriteAt(p, off)
		f.mu.Lock()
		f.wpos = off + int64(n)
		f.mu.Unlock()
		return n, err
	}
	f.fs.delay(f.name)
	buf, n, ferr := f.fs.prepWrite(f.name, p)
	wn, err := f.under.Write(buf[:n])
	if err != nil {
		return wn, err
	}
	if ferr != nil {
		return wn, ferr
	}
	return len(p), nil
}

func (f *file) ReadAt(p []byte, off int64) (int, error) {
	f.fs.delay(f.name)
	n, err := f.under.ReadAt(p, off)
	// Crashable dirty ranges are visible to readers before the sync, as
	// the page cache's would be.
	f.mu.Lock()
	for _, d := range f.dirty {
		lo := max64(off, d.off)
		hi := min64(off+int64(len(p)), d.off+int64(len(d.buf)))
		if lo < hi {
			copy(p[lo-off:hi-off], d.buf[lo-d.off:hi-d.off])
			if hi-off > int64(n) {
				n = int(hi - off)
				err = nil
			}
		}
	}
	f.mu.Unlock()
	return n, err
}

func (f *file) Read(p []byte) (int, error) { return f.under.Read(p) }

func (f *file) sync(full bool) error {
	f.fs.delay(f.name)
	if err := f.fs.syncFault(f); err != nil {
		return err
	}
	// Flush the page cache to the real file before syncing it.
	f.mu.Lock()
	dirty := f.dirty
	f.dirty = nil
	f.mu.Unlock()
	for _, d := range dirty {
		if _, err := f.under.WriteAt(d.buf, d.off); err != nil {
			return err
		}
	}
	if full {
		return f.under.Sync()
	}
	return f.under.Datasync()
}

func (f *file) Sync() error     { return f.sync(true) }
func (f *file) Datasync() error { return f.sync(false) }

func (f *file) Truncate(size int64) error {
	f.fs.delay(f.name)
	return f.under.Truncate(size)
}

func (f *file) Stat() (os.FileInfo, error)   { return f.under.Stat() }
func (f *file) Preallocate(size int64) error { return f.under.Preallocate(size) }
func (f *file) Name() string                 { return f.name }

func (f *file) Close() error {
	// Unsynced dirty pages die with the close — closing does not flush
	// the faultfs page cache, exactly like a crash before the fsync.
	f.fs.mu.Lock()
	delete(f.fs.files, f)
	f.fs.mu.Unlock()
	return f.under.Close()
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
