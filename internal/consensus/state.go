package consensus

import (
	"encoding/binary"
	"slices"
	"sort"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

// This file implements durability and state transfer (Section 5.2 of the
// paper): replicas checkpoint the application snapshot every
// CheckpointInterval decisions and truncate the decision log; a lagging or
// joining replica fetches the latest checkpoint plus the log suffix from
// its peers and replays it. The ordering service's application state is
// tiny (next block number + previous block hash), which is exactly why the
// paper argues frequent checkpoints are cheap for this workload.

// wrapSnapshot bundles the application snapshot with the replica-level
// request-deduplication table; both are replicated state. Every replica
// must produce the same bytes for the same state: state transfer matches
// f+1 replies byte for byte.
//
// Layout: membership (see marshalMembership), uvarint count, then per
// client in id order its id and dedup state (see clientDedup.marshalInto),
// then the app snapshot bytes. One pass over the clients sizes the writer,
// so the snapshot is written into one buffer.
func (r *Replica) wrapSnapshot() []byte {
	app := r.app.Snapshot()
	// Four uvarints: epoch, member count, client count, app length.
	size := 4*binary.MaxVarintLen64 + 8*len(r.membership) + len(app)
	clients := make([]string, 0, len(r.clients))
	for c, d := range r.clients {
		if !d.replicated {
			continue
		}
		clients = append(clients, c)
		size += binary.MaxVarintLen64 + len(c) + d.marshalledSize()
	}
	slices.Sort(clients)
	w := wire.NewWriter(size)
	r.marshalMembership(w)
	w.PutUvarint(uint64(len(clients)))
	for _, c := range clients {
		w.PutString(c)
		r.clients[c].marshalInto(w)
	}
	w.PutBytes(app)
	return w.Bytes()
}

// unwrapSnapshot restores the membership and the dedup table and returns
// the application snapshot portion. A snapshot that does not read whole
// changes nothing. A client the snapshot does not list keeps no dedup
// state, and a pooled request the restored table marks executed leaves the
// pool (dropExecuted).
func (r *Replica) unwrapSnapshot(b []byte) ([]byte, bool) {
	rd := wire.NewReader(b)
	installMembership, err := r.unmarshalMembership(rd)
	if err != nil {
		return nil, false
	}
	n := rd.Count(10) // an empty id, the floor and no runs
	if rd.Err() != nil || n > maxPendingRequests {
		return nil, false
	}
	executed := make([]clientDedup, n)
	for i := range executed {
		client := rd.String()
		d, ok := readClientDedup(rd)
		if !ok {
			return nil, false
		}
		d.client = client
		executed[i] = d
	}
	appSnap := rd.BytesCopy()
	if err := rd.Finish(); err != nil {
		return nil, false
	}
	installMembership()
	for _, c := range r.clients {
		c.clientDedup, c.replicated = clientDedup{client: c.client}, false
	}
	for _, d := range executed {
		c := r.record(d.client)
		d.client = c.client // the one copy pooled requests share
		c.clientDedup, c.replicated = d, true
	}
	r.dropExecuted()
	return appSnap, true
}

// requestStateTransfer broadcasts a state request when the replica detects
// that it is too far behind to catch up through ordinary votes.
func (r *Replica) requestStateTransfer() {
	if r.fetching {
		return
	}
	r.fetching = true
	r.fetchStarted = time.Now()
	r.stateReplies = make(map[ReplicaID]*stateReplyMsg)
	m := &stateRequestMsg{FromSeq: r.lastDelivered}
	for _, id := range r.membership {
		if id == r.cfg.SelfID {
			continue
		}
		r.sendTo(id, msgStateRequest, m.marshal())
	}
}

func (r *Replica) onStateRequest(from ReplicaID, m *stateRequestMsg) {
	if r.behavior.Load().Mute {
		return
	}
	reply := &stateReplyMsg{CheckpointSeq: -1}
	if m.FromSeq < r.checkpointSeq {
		// The requester predates our checkpoint: ship the snapshot and the
		// full log suffix.
		reply.CheckpointSeq = r.checkpointSeq
		reply.Snapshot = r.checkpointSnap
	}
	start := m.FromSeq + 1
	if reply.CheckpointSeq >= 0 {
		start = reply.CheckpointSeq + 1
	}
	seqs := make([]int64, 0, len(r.decidedLog))
	for seq := range r.decidedLog {
		if seq >= start {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	// Only a contiguous prefix is useful to the requester.
	expected := start
	for _, seq := range seqs {
		if seq != expected {
			break
		}
		reply.Entries = append(reply.Entries, logEntryWire{Seq: seq, Batch: r.decidedLog[seq]})
		expected++
	}
	// A reply with neither snapshot nor entries is sent too: it says this
	// replica holds nothing past FromSeq, and f+1 such replies end a
	// transfer that has nothing to fetch. A requester never ends one on its
	// own, and a leader that is fetching proposes nothing, so silence here
	// wedged a group whose replicas all asked at the same height, as they
	// may after a partition heals.
	r.sendTo(from, msgStateReply, reply.marshal())
}

func (r *Replica) onStateReply(from ReplicaID, m *stateReplyMsg) {
	if !r.fetching {
		return
	}
	r.stateReplies[from] = m

	// Require f+1 replicas to agree on the exact reply content before
	// applying it: at least one of them is correct.
	counts := make(map[cryptoutil.Digest][]ReplicaID)
	for id, reply := range r.stateReplies {
		d := reply.digest()
		counts[d] = append(counts[d], id)
	}
	for _, ids := range counts {
		if len(ids) < r.qt.f+1 {
			continue
		}
		r.applyState(r.stateReplies[ids[0]])
		return
	}
}

func (r *Replica) applyState(m *stateReplyMsg) {
	r.fetching = false
	r.stateReplies = make(map[ReplicaID]*stateReplyMsg)

	if m.CheckpointSeq > r.lastDelivered {
		appSnap, ok := r.unwrapSnapshot(m.Snapshot)
		if !ok {
			return
		}
		r.app.Restore(appSnap, m.CheckpointSeq)
		r.lastDelivered = m.CheckpointSeq
		r.checkpointSeq = m.CheckpointSeq
		r.checkpointSnap = m.Snapshot
		// A checkpoint jump is a durability event: persist it so a crash
		// right after state transfer does not fall back behind the jump.
		r.logCheckpoint(m.CheckpointSeq, m.Snapshot)
		r.statDelivered.Store(m.CheckpointSeq)
		// Protocol state below the snapshot is obsolete.
		for seq := range r.instances {
			if seq <= m.CheckpointSeq {
				delete(r.instances, seq)
			}
		}
		for seq := range r.decidedLog {
			if seq <= m.CheckpointSeq {
				delete(r.decidedLog, seq)
			}
		}
	}

	for _, entry := range m.Entries {
		if entry.Seq != r.lastDelivered+1 {
			continue
		}
		inst := r.instance(entry.Seq)
		r.adoptDecided(inst, entry.Batch)
		r.deliver(inst)
	}
	r.deliverContiguous()
}
