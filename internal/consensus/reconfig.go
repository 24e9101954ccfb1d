package consensus

import (
	"bytes"
	"fmt"

	"repro/internal/transport"
	"repro/internal/wire"
)

// This file implements group reconfiguration (Section 5.2 of the paper:
// "reconfiguration (of the group of ordering nodes)"). A reconfiguration is
// an ordinary request carrying a tagged operation; because it is totally
// ordered like any envelope, every replica applies the membership change at
// the same point in the decision sequence. A joining node starts with the
// new membership in its static configuration and catches up through the
// standard state-transfer path, which the paper notes is cheap because the
// ordering service's state is tiny.

// reconfigMagic tags reconfiguration operations inside the request stream.
var reconfigMagic = []byte("\x00RECONFIG\x00")

// ReconfigKind selects the membership change.
type ReconfigKind uint8

// Supported membership changes.
const (
	ReconfigAdd ReconfigKind = iota + 1
	ReconfigRemove
)

// ReconfigOp describes one membership change.
type ReconfigOp struct {
	Kind    ReconfigKind
	Replica ReplicaID
	// Weight is the WHEAT vote weight of an added replica (0 means 1).
	Weight int
}

// EncodeReconfigOp serializes a membership change for submission through a
// consensus client (Client.Invoke).
func EncodeReconfigOp(op ReconfigOp) []byte {
	w := wire.NewWriter(len(reconfigMagic) + 16)
	w.PutRaw(reconfigMagic)
	w.PutByte(byte(op.Kind))
	w.PutInt32(int32(op.Replica))
	w.PutUint32(uint32(op.Weight))
	return w.Bytes()
}

// decodeReconfigOp recognizes and decodes a reconfiguration operation.
func decodeReconfigOp(op []byte) (ReconfigOp, bool) {
	if len(op) < len(reconfigMagic) || !bytes.Equal(op[:len(reconfigMagic)], reconfigMagic) {
		return ReconfigOp{}, false
	}
	r := wire.NewReader(op[len(reconfigMagic):])
	out := ReconfigOp{
		Kind:    ReconfigKind(r.Byte()),
		Replica: ReplicaID(r.Int32()),
		Weight:  int(r.Uint32()),
	}
	if r.Finish() != nil {
		return ReconfigOp{}, false
	}
	if out.Kind != ReconfigAdd && out.Kind != ReconfigRemove {
		return ReconfigOp{}, false
	}
	return out, true
}

// IsReconfigOp reports whether op is a tagged membership change; the
// ordering layer's request validator must accept these alongside envelopes.
func IsReconfigOp(op []byte) bool {
	_, ok := decodeReconfigOp(op)
	return ok
}

// MembershipView is a consistent snapshot of the group at one membership
// epoch: the epoch counter, the sorted member set, the derived fault
// threshold, and the vote weights. Obtained lock-free via
// Replica.MembershipView; safe to retain (never mutated after publication).
type MembershipView struct {
	Epoch   uint64
	Members []ReplicaID
	F       int
	Weights map[ReplicaID]int
}

// MembershipView returns the replica's current membership view. Safe from
// any goroutine at any time, including before Start and during recovery.
func (r *Replica) MembershipView() MembershipView {
	if v := r.liveMembership.Load(); v != nil {
		return *v
	}
	return MembershipView{}
}

// publishMembership refreshes the lock-free membership view and the address
// tables from the event-loop-owned state, wherever epoch or membership change.
func (r *Replica) publishMembership() {
	v := &MembershipView{
		Epoch:   r.epoch,
		Members: append([]ReplicaID(nil), r.membership...),
		F:       r.cfg.F,
		Weights: make(map[ReplicaID]int, len(r.membership)),
	}
	r.addrs = make(map[ReplicaID]transport.Addr, len(r.membership))
	r.ids = make(map[transport.Addr]ReplicaID, len(r.membership))
	for _, id := range r.membership {
		v.Weights[id] = r.qt.weightOf(id)
		r.addrs[id] = id.Addr()
		r.ids[r.addrs[id]] = id
	}
	r.liveMembership.Store(v)
}

// notifyMembership invokes the membership observer with the published view.
func (r *Replica) notifyMembership() {
	if r.membershipObserver != nil {
		r.membershipObserver(r.MembershipView())
	}
}

// applyReconfig executes an ordered membership change. It runs on the event
// loop at delivery time, so every correct replica transitions at the same
// decision boundary. The epoch advances for every ordered op — including
// no-ops — so a replica that saw the op as already applied (a joiner whose
// static config lists itself) counts the same epochs as everyone else.
func (r *Replica) applyReconfig(op ReconfigOp) {
	r.epoch++
	changed := false
	switch op.Kind {
	case ReconfigAdd:
		member := false
		for _, id := range r.membership {
			if id == op.Replica {
				member = true
				break
			}
		}
		if !member {
			r.membership = append(r.membership, op.Replica)
			changed = true
		}
	case ReconfigRemove:
		kept := r.membership[:0]
		for _, id := range r.membership {
			if id != op.Replica {
				kept = append(kept, id)
			}
		}
		if len(kept) != len(r.membership) {
			r.membership = kept
			changed = true
		}
	}
	if changed {
		sortReplicas(r.membership)

		// Rebuild quorum arithmetic: the fault threshold follows the
		// paper's n = 3f+1 sizing, and weights reset to the configured
		// assignment for members that have one (added members default to
		// the op's weight).
		n := len(r.membership)
		f := MaxFaults(n)
		weights := make(map[ReplicaID]int, n)
		for _, id := range r.membership {
			w := 1
			if cw, ok := r.cfg.Weights[id]; ok && cw > 0 {
				w = cw
			}
			if op.Kind == ReconfigAdd && id == op.Replica && op.Weight > 0 {
				w = op.Weight
			}
			weights[id] = w
		}
		r.qt = newQuorumTracker(r.membership, weights, f)
		r.cfg.F = f
		r.cfg.Weights = weights
		r.statMembers.Store(int32(n))
		r.refreshLeaderStat()
	}
	r.publishMembership()
	r.notifyMembership()
}

// Membership returns the current group membership. Safe from any
// goroutine; the snapshot reflects the state at some recent decision
// boundary.
func (r *Replica) Membership() []ReplicaID {
	var out []ReplicaID
	r.Inspect(func() {
		out = make([]ReplicaID, len(r.membership))
		copy(out, r.membership)
	})
	return out
}

func sortReplicas(ids []ReplicaID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// marshalMembership serializes the membership epoch + members + weights into
// snapshots so that state transfer across a reconfig boundary is unambiguous:
// the installing replica learns exactly which epoch the checkpoint was taken
// in, alongside the group it must join.
func (r *Replica) marshalMembership(w *wire.Writer) {
	w.PutUvarint(r.epoch)
	w.PutUvarint(uint64(len(r.membership)))
	for _, id := range r.membership {
		w.PutInt32(int32(id))
		w.PutUint32(uint32(r.qt.weightOf(id)))
	}
}

// unmarshalMembership restores epoch + membership + weights from a snapshot.
func (r *Replica) unmarshalMembership(rd *wire.Reader) error {
	epoch := rd.Uvarint()
	n := rd.Count(8) // an id and a weight per member
	if n == 0 || n > 1<<10 {
		return fmt.Errorf("consensus: membership size %d out of range", n)
	}
	membership := make([]ReplicaID, 0, n)
	weights := make(map[ReplicaID]int, n)
	for i := 0; i < n; i++ {
		id := ReplicaID(rd.Int32())
		weight := int(rd.Uint32())
		if weight < 1 {
			weight = 1
		}
		membership = append(membership, id)
		weights[id] = weight
	}
	if err := rd.Err(); err != nil {
		return err
	}
	sortReplicas(membership)
	r.epoch = epoch
	r.membership = membership
	r.cfg.F = MaxFaults(len(membership))
	r.cfg.Weights = weights
	r.qt = newQuorumTracker(membership, weights, r.cfg.F)
	r.statMembers.Store(int32(len(membership)))
	r.refreshLeaderStat()
	r.publishMembership()
	r.notifyMembership()
	return nil
}
