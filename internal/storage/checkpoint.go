package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"log/slog"
	"os"
	"path/filepath"

	"repro/internal/storage/vfs"
	"repro/internal/wire"
)

// checkpointMagic guards against reading a foreign file as a checkpoint.
const checkpointMagic = 0x43504b31 // "CPK1"

// checkpointFile is the stable name; writes go to checkpointFile+".tmp"
// first and are renamed into place, so a crash never leaves a half-written
// checkpoint under the stable name. One previous generation survives under
// checkpointFile+".prev": a stable copy whose bytes rot on disk is not the
// end of recovery — the predecessor still covers a (shorter) prefix and
// the log replay bridges the rest.
const checkpointFile = "checkpoint"

// prevSuffix aliases the shared previous-generation suffix.
const prevSuffix = vfs.PrevSuffix

// ErrCheckpointCorrupt reports a checkpoint file that fails its CRC.
var ErrCheckpointCorrupt = errors.New("storage: checkpoint corrupt")

// Checkpointer atomically persists consensus snapshots. Layout of the
// file: uint32 magic, int64 seq, uint32 snapshot length, snapshot bytes,
// uint32 CRC32 (IEEE) over everything before it.
type Checkpointer struct {
	dir string
	fs  vfs.FS
}

// NewCheckpointer prepares a checkpointer rooted at dir (created if
// missing). fs is the filesystem seam (nil = the real OS filesystem).
func NewCheckpointer(dir string, fs vfs.FS) (*Checkpointer, error) {
	fs = vfs.OrOS(fs)
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	return &Checkpointer{dir: dir, fs: fs}, nil
}

// Save durably replaces the checkpoint with (seq, snapshot): write to a
// temp file, fsync, demote the current stable copy to the .prev
// generation, rename the temp over the stable name, fsync the directory.
// The demotion means a crash (or later bit-rot in the new copy) always
// leaves one good older checkpoint to fall back to.
func (c *Checkpointer) Save(seq int64, snapshot []byte) error {
	// Pooled encode buffer: checkpoints run on a background worker but
	// repeat for the node's lifetime, so the encode should not allocate
	// per save any more than the WAL record paths do.
	w := wire.GetWriter(20 + len(snapshot))
	defer wire.PutWriter(w)
	w.PutUint32(checkpointMagic)
	w.PutUint64(uint64(seq))
	w.PutUint32(uint32(len(snapshot)))
	w.PutRaw(snapshot)
	w.PutUint32(crc32.ChecksumIEEE(w.Bytes()))
	buf := w.Bytes()

	final := filepath.Join(c.dir, checkpointFile)
	return vfs.SaveAtomicWithPrev(c.fs, c.dir, final, buf)
}

// Load returns the latest checkpoint. found is false when none was ever
// saved. A stale temp file from an interrupted Save is ignored (the rename
// never happened, so the previous stable checkpoint — if any — still
// governs). A stable copy that fails its CRC falls back to the retained
// .prev generation: an older checkpoint only lengthens the log replay, it
// never loses state.
func (c *Checkpointer) Load() (seq int64, snapshot []byte, found bool, err error) {
	stable := filepath.Join(c.dir, checkpointFile)
	seq, snapshot, found, err = c.loadOne(stable)
	if err == nil {
		return seq, snapshot, found, nil
	}
	pseq, psnap, pfound, perr := c.loadOne(stable + prevSuffix)
	if perr == nil && pfound {
		slog.Warn("storage: checkpoint corrupt; falling back to previous generation",
			"file", stable, "err", err, "prev_seq", pseq)
		return pseq, psnap, true, nil
	}
	return 0, nil, false, err
}

func (c *Checkpointer) loadOne(path string) (seq int64, snapshot []byte, found bool, err error) {
	raw, err := c.fs.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil, false, nil
	}
	if err != nil {
		return 0, nil, false, fmt.Errorf("storage: %w", err)
	}
	if len(raw) < 20 {
		return 0, nil, false, ErrCheckpointCorrupt
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(tail) {
		return 0, nil, false, ErrCheckpointCorrupt
	}
	if binary.BigEndian.Uint32(body[:4]) != checkpointMagic {
		return 0, nil, false, ErrCheckpointCorrupt
	}
	seq = int64(binary.BigEndian.Uint64(body[4:12]))
	n := binary.BigEndian.Uint32(body[12:16])
	if int(n) != len(body)-16 {
		return 0, nil, false, ErrCheckpointCorrupt
	}
	snapshot = make([]byte, n)
	copy(snapshot, body[16:])
	return seq, snapshot, true, nil
}
