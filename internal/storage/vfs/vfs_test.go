package vfs_test

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/storage/faultfs"
	"repro/internal/storage/vfs"
)

// contract is the behaviour the storage layer relies on from any vfs.FS.
// Every case gets a fresh directory and runs against each implementation:
// the OS passthrough must satisfy it by construction, and a fault layer
// with no faults armed must be indistinguishable from it.
var contract = []struct {
	name string
	run  func(t *testing.T, fs vfs.FS, dir string)
}{
	{"create write sync read back", func(t *testing.T, fs vfs.FS, dir string) {
		path := filepath.Join(dir, "a")
		f := create(t, fs, path)
		if f.Name() != path {
			t.Fatalf("Name() = %q, want %q", f.Name(), path)
		}
		write(t, f, "hello ")
		write(t, f, "world")
		if err := f.Sync(); err != nil {
			t.Fatalf("sync: %v", err)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		wantFile(t, fs, path, "hello world")
	}},
	{"positioned writes and reads", func(t *testing.T, fs vfs.FS, dir string) {
		path := filepath.Join(dir, "a")
		f := create(t, fs, path)
		defer f.Close()
		if err := f.Preallocate(64); err != nil {
			t.Fatalf("preallocate: %v", err)
		}
		if _, err := f.WriteAt([]byte("tail"), 8); err != nil {
			t.Fatalf("write at 8: %v", err)
		}
		if _, err := f.WriteAt([]byte("head"), 0); err != nil {
			t.Fatalf("write at 0: %v", err)
		}
		if err := f.Datasync(); err != nil {
			t.Fatalf("datasync: %v", err)
		}
		r := open(t, fs, path)
		defer r.Close()
		wantAt(t, r, 0, "head")
		wantAt(t, r, 8, "tail")
		wantAt(t, r, 4, "\x00\x00\x00\x00") // the hole reads as zeroes
	}},
	{"a write is visible to a second handle at once", func(t *testing.T, fs vfs.FS, dir string) {
		// No sync in between: the page cache is shared, durability is a
		// separate matter. The WAL's concurrent readers depend on it.
		path := filepath.Join(dir, "a")
		w := create(t, fs, path)
		defer w.Close()
		before := open(t, fs, path) // opened ahead of the write
		defer before.Close()
		write(t, w, "visible")
		after := open(t, fs, path)
		defer after.Close()
		wantAt(t, before, 0, "visible")
		wantAt(t, after, 0, "visible")
		info, err := after.Stat()
		if err != nil || info.Size() != int64(len("visible")) {
			t.Fatalf("stat = %v, %v; want size %d", info, err, len("visible"))
		}
	}},
	{"rename replaces atomically and survives a dir sync", func(t *testing.T, fs vfs.FS, dir string) {
		final, tmp := filepath.Join(dir, "final"), filepath.Join(dir, "final.tmp")
		for _, gen := range []string{"generation 1", "generation 2"} {
			f := create(t, fs, tmp)
			write(t, f, gen)
			if err := f.Sync(); err != nil {
				t.Fatalf("sync: %v", err)
			}
			if err := f.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if err := fs.Rename(tmp, final); err != nil {
				t.Fatalf("rename: %v", err)
			}
			if err := fs.SyncDir(dir); err != nil {
				t.Fatalf("sync dir: %v", err)
			}
			wantFile(t, fs, final, gen)
			if _, err := fs.Open(tmp); !os.IsNotExist(err) {
				t.Fatalf("open of the renamed-away name = %v, want not-exist", err)
			}
		}
	}},
	{"remove", func(t *testing.T, fs vfs.FS, dir string) {
		path := filepath.Join(dir, "a")
		create(t, fs, path).Close()
		if err := fs.Remove(path); err != nil {
			t.Fatalf("remove: %v", err)
		}
		if _, err := fs.Open(path); !os.IsNotExist(err) {
			t.Fatalf("open after remove = %v, want not-exist", err)
		}
		if _, err := fs.ReadFile(path); !os.IsNotExist(err) {
			t.Fatalf("read after remove = %v, want not-exist", err)
		}
		if err := fs.Remove(path); !os.IsNotExist(err) {
			t.Fatalf("second remove = %v, want not-exist", err)
		}
	}},
	{"mkdir all and sorted read dir", func(t *testing.T, fs vfs.FS, dir string) {
		sub := filepath.Join(dir, "x", "y")
		if err := fs.MkdirAll(sub, 0o755); err != nil {
			t.Fatalf("mkdir all: %v", err)
		}
		if err := fs.MkdirAll(sub, 0o755); err != nil {
			t.Fatalf("mkdir all over an existing tree: %v", err)
		}
		for _, name := range []string{"002.seg", "001.seg", "MANIFEST"} {
			create(t, fs, filepath.Join(sub, name)).Close()
		}
		if err := fs.MkdirAll(filepath.Join(sub, "dir"), 0o755); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		entries, err := fs.ReadDir(sub)
		if err != nil {
			t.Fatalf("read dir: %v", err)
		}
		var got []string
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() {
				name += "/"
			}
			got = append(got, name)
		}
		if want := []string{"001.seg", "002.seg", "MANIFEST", "dir/"}; !slices.Equal(got, want) {
			t.Fatalf("read dir = %v, want %v", got, want)
		}
		if _, err := fs.ReadDir(filepath.Join(dir, "missing")); !os.IsNotExist(err) {
			t.Fatalf("read dir of a missing directory = %v, want not-exist", err)
		}
	}},
	{"truncate by handle and by name", func(t *testing.T, fs vfs.FS, dir string) {
		path := filepath.Join(dir, "a")
		f := create(t, fs, path)
		write(t, f, "0123456789")
		if err := f.Truncate(6); err != nil {
			t.Fatalf("file truncate: %v", err)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		wantFile(t, fs, path, "012345")
		if err := fs.Truncate(path, 2); err != nil {
			t.Fatalf("fs truncate: %v", err)
		}
		wantFile(t, fs, path, "01")
	}},
	{"open of a missing file", func(t *testing.T, fs vfs.FS, dir string) {
		if _, err := fs.Open(filepath.Join(dir, "missing")); !os.IsNotExist(err) {
			t.Fatalf("open = %v, want not-exist", err)
		}
		if _, err := fs.OpenFile(filepath.Join(dir, "missing"), os.O_WRONLY, 0); !os.IsNotExist(err) {
			t.Fatalf("open file without O_CREATE = %v, want not-exist", err)
		}
	}},
}

func TestContract(t *testing.T) {
	impls := []struct {
		name string
		fs   vfs.FS
	}{
		{"OS", vfs.OS{}},
		{"OrOS(nil)", vfs.OrOS(nil)},
		{"faultfs unarmed", faultfs.New(nil, 1)},
	}
	for _, impl := range impls {
		for _, c := range contract {
			t.Run(impl.name+"/"+c.name, func(t *testing.T) {
				c.run(t, impl.fs, t.TempDir())
			})
		}
	}
}

func TestOrOSKeepsAGivenFS(t *testing.T) {
	ffs := faultfs.New(nil, 1)
	if got := vfs.OrOS(ffs); got != vfs.FS(ffs) {
		t.Fatalf("OrOS replaced a non-nil FS with %T", got)
	}
}

func create(t *testing.T, fs vfs.FS, path string) vfs.File {
	t.Helper()
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("create %s: %v", path, err)
	}
	return f
}

func open(t *testing.T, fs vfs.FS, path string) vfs.File {
	t.Helper()
	f, err := fs.Open(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	return f
}

func write(t *testing.T, f vfs.File, s string) {
	t.Helper()
	if n, err := f.Write([]byte(s)); err != nil || n != len(s) {
		t.Fatalf("write %q = %d, %v", s, n, err)
	}
}

func wantAt(t *testing.T, f vfs.File, off int64, want string) {
	t.Helper()
	buf := make([]byte, len(want))
	if _, err := f.ReadAt(buf, off); err != nil {
		t.Fatalf("read at %d: %v", off, err)
	}
	if !bytes.Equal(buf, []byte(want)) {
		t.Fatalf("read at %d = %q, want %q", off, buf, want)
	}
}

func wantFile(t *testing.T, fs vfs.FS, path, want string) {
	t.Helper()
	got, err := fs.ReadFile(path)
	if err != nil {
		t.Fatalf("read file %s: %v", path, err)
	}
	if string(got) != want {
		t.Fatalf("%s holds %q, want %q", path, got, want)
	}
}
