package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The modelled disk delays the three flushes and nothing else.
func TestSlowSyncFSDelaysOnlyFlushes(t *testing.T) {
	const delay = 40 * time.Millisecond
	fs := newSlowSyncFS(delay)
	dir := t.TempDir()
	path := filepath.Join(dir, "seg")

	timed := func(op func() error) time.Duration {
		t.Helper()
		start := time.Now()
		if err := op(); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}

	f, err := fs.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4096)
	fast := map[string]func() error{
		"Preallocate": func() error { return f.Preallocate(1 << 20) },
		"Write":       func() error { _, err := f.Write(buf); return err },
		"WriteAt":     func() error { _, err := f.WriteAt(buf, 8192); return err },
		"ReadAt":      func() error { _, err := f.ReadAt(buf, 0); return err },
		"Truncate":    func() error { return f.Truncate(1 << 19) },
		"Stat":        func() error { _, err := f.Stat(); return err },
		"ReadDir":     func() error { _, err := fs.ReadDir(dir); return err },
		"ReadFile":    func() error { _, err := fs.ReadFile(path); return err },
		"Rename":      func() error { return fs.Rename(path, path+".2") },
		"Remove":      func() error { return fs.Remove(path + ".2") },
		"MkdirAll":    func() error { return fs.MkdirAll(filepath.Join(dir, "a", "b"), 0o755) },
	}
	for _, name := range []string{"Preallocate", "Write", "WriteAt", "ReadAt", "Truncate", "Stat", "ReadDir", "ReadFile", "Rename", "Remove", "MkdirAll"} {
		if took := timed(fast[name]); took >= delay/2 {
			t.Errorf("%s took %v: only flushes may be delayed", name, took)
		}
	}
	for name, op := range map[string]func() error{
		"Sync":     f.Sync,
		"Datasync": f.Datasync,
		"SyncDir":  func() error { return fs.SyncDir(dir) },
	} {
		if took := timed(op); took < delay {
			t.Errorf("%s took %v, want the modelled %v", name, took, delay)
		}
	}

	// Files opened read-only are wrapped too, and see what was written.
	if err := os.WriteFile(path, []byte("durable"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := make([]byte, 7)
	if _, err := r.ReadAt(got, 0); err != nil || string(got) != "durable" {
		t.Fatalf("read %q, %v", got, err)
	}
	if took := timed(r.Sync); took < delay {
		t.Errorf("Sync on a file from Open took %v, want the modelled %v", took, delay)
	}
}
