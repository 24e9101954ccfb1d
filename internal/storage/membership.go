package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/storage/vfs"
	"repro/internal/wire"
)

// membershipMagic guards against reading a foreign file as a membership
// record.
const membershipMagic = 0x4d425231 // "MBR1"

// membershipFile is the stable name; like the checkpoint, writes go to a
// temp file and are renamed into place so a crash never leaves a torn
// record under the stable name.
const membershipFile = "membership"

// ErrMembershipCorrupt reports a membership record that fails its CRC.
var ErrMembershipCorrupt = errors.New("storage: membership record corrupt")

// MembershipCorruptError is the typed fail-fast report of a rotten
// membership record, naming the file so the operator can act on it. There
// is deliberately NO previous-generation fallback here: recovering into a
// stale group view is a safety violation (the node could rejoin a
// membership consensus already moved past), so a corrupt record stops the
// boot — the runbook answer is -recover-from-peers. Unwraps to
// ErrMembershipCorrupt.
type MembershipCorruptError struct {
	// Path is the corrupt record's file.
	Path string
	// Err is the underlying cause.
	Err error
}

func (e *MembershipCorruptError) Error() string {
	return fmt.Sprintf("storage: membership record %s is corrupt (refusing to guess the group; wipe and re-join via -recover-from-peers): %v", e.Path, e.Err)
}

func (e *MembershipCorruptError) Unwrap() error { return ErrMembershipCorrupt }

// MembershipRecord is the durable group view a node recovers into: the
// membership epoch (count of ordered reconfig operations applied) and the
// member ids with their vote weights. A node that crashes after applying a
// reconfig restarts from this record, not from its static configuration, so
// the group it rejoins is the one consensus last agreed on.
type MembershipRecord struct {
	Epoch   uint64
	Members []int32
	Weights map[int32]uint32
}

// marshal encodes the record body (without magic/CRC framing).
func (m *MembershipRecord) marshal(w *wire.Writer) {
	w.PutUvarint(m.Epoch)
	w.PutUvarint(uint64(len(m.Members)))
	for _, id := range m.Members {
		w.PutInt32(id)
		w.PutUint32(m.Weights[id])
	}
}

// unmarshalMembershipRecord decodes a record body.
func unmarshalMembershipRecord(r *wire.Reader) (*MembershipRecord, error) {
	rec := &MembershipRecord{Epoch: r.Uvarint()}
	n := r.Count(8) // id and weight
	if n > 1<<10 {
		return nil, fmt.Errorf("%w: membership size %d out of range", ErrMembershipCorrupt, n)
	}
	rec.Members = make([]int32, 0, n)
	rec.Weights = make(map[int32]uint32, n)
	for i := 0; i < n; i++ {
		id := r.Int32()
		rec.Members = append(rec.Members, id)
		rec.Weights[id] = r.Uint32()
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMembershipCorrupt, err)
	}
	return rec, nil
}

// SaveMembership durably replaces the membership record. Saves are
// monotonic in epoch: a record at or below the newest on-disk epoch is a
// no-op, so a stale observer callback can never roll the group view back.
// Reconfigurations are rare, so the two fsyncs (file + directory) are paid
// synchronously.
func (s *NodeStorage) SaveMembership(rec *MembershipRecord) error {
	s.memberMu.Lock()
	defer s.memberMu.Unlock()
	if s.memberEpoch != nil && rec.Epoch <= *s.memberEpoch {
		return nil
	}

	w := wire.GetWriter(24 + 8*len(rec.Members))
	defer wire.PutWriter(w)
	w.PutUint32(membershipMagic)
	rec.marshal(w)
	w.PutUint32(crc32.ChecksumIEEE(w.Bytes()))
	buf := w.Bytes()

	tmp := filepath.Join(s.dir, membershipFile+".tmp")
	final := filepath.Join(s.dir, membershipFile)
	f, err := s.fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("storage: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("storage: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	if err := s.fs.Rename(tmp, final); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	epoch := rec.Epoch
	s.memberEpoch = &epoch
	return nil
}

// loadMembership reads the stable membership record; nil when none was
// ever saved (the node has never applied a reconfiguration). A record
// that fails its CRC is a typed *MembershipCorruptError naming the file —
// fail fast, never guess the group view.
func loadMembership(fs vfs.FS, dir string) (*MembershipRecord, error) {
	path := filepath.Join(dir, membershipFile)
	raw, err := fs.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	if len(raw) < 8 {
		return nil, &MembershipCorruptError{Path: path, Err: errors.New("truncated record")}
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(tail) {
		return nil, &MembershipCorruptError{Path: path, Err: errors.New("crc mismatch")}
	}
	if binary.BigEndian.Uint32(body[:4]) != membershipMagic {
		return nil, &MembershipCorruptError{Path: path, Err: errors.New("bad magic")}
	}
	rec, err := unmarshalMembershipRecord(wire.NewReader(body[4:]))
	if err != nil {
		return nil, &MembershipCorruptError{Path: path, Err: err}
	}
	return rec, nil
}
