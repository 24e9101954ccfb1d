package consensus

import (
	"fmt"
	"os"

	"repro/internal/wire"
)

// This file wires a durable backend under the replica (the WAL + checkpoint
// discipline the paper's replicas rely on to survive crashes, Section 5.2):
// every decided batch is enqueued on the durable log, in sequence order,
// before it is delivered to the application, checkpoints are persisted as
// they are taken, and on construction the replica restores the newest
// checkpoint and replays the logged suffix, so a restart resumes exactly
// at the durable frontier instead of at zero.

// DecisionToken tracks an enqueued decision record: Wait blocks until the
// record is fsynced and returns the commit error, if any; Done reports
// completion without blocking (the replica polls it to surface commit
// failures from the event loop without ever stalling on the fsync).
type DecisionToken interface {
	Wait() error
	Done() bool
}

// Durability persists consensus decisions and checkpoints (the ordering
// node backs it with storage.NodeStorage's unified commit log). The
// replica never blocks its event loop on a decision's fsync: the record is
// enqueued, the loop keeps executing, and the application gates externally
// visible effects on the token — the write-ahead discipline is "fsync
// before anything leaves the node", which is what the paper actually
// requires, at a fraction of the stall of "fsync before execute".
type Durability interface {
	// AppendDecision enqueues the decided batch of instance seq for a
	// later group commit and returns its durability token. The enqueue
	// may be lazy: the backend need not start a commit for it, since the
	// replica only polls the token; whoever gates on the decision (the
	// ordering node, when the decision seals a block) starts it. Appends
	// must commit in call order. batch is valid only during the call (the
	// replica reuses it, and its storage, for a later instance).
	AppendDecision(seq int64, batch *Batch) DecisionToken
	// SaveCheckpoint durably stores the wrapped snapshot taken at seq
	// before returning, and may prune log records at or below seq.
	SaveCheckpoint(seq int64, snapshot []byte) error
	// SaveCheckpointAsync persists the snapshot off the calling goroutine
	// (a checkpoint subsumes older ones, so backends may coalesce), so a
	// routine checkpoint's fsyncs never run on the event loop.
	SaveCheckpointAsync(seq int64, snapshot []byte)
}

// Batch is a decided batch as a Durability backend receives it: its runs as
// entries, which PutEntry writes straight into the backend's record. A
// record of a uvarint count and every entry length-prefixed reads back as a
// DurableEntry's Batch.
type Batch struct{ runs [][]request }

// set makes b the batch reqs, cut into its maximal runs, in the storage of
// b's runs; set(nil) drops the views of the batch b held.
func (b *Batch) set(reqs []request) {
	b.runs = emptied(b.runs)
	for rest := reqs; len(rest) > 0; {
		n := runLen(rest)
		b.runs, rest = append(b.runs, rest[:n]), rest[n:]
	}
}

// Len is the number of entries: the batch's runs.
func (b *Batch) Len() int { return len(b.runs) }

// EntrySize is the length of entry i.
func (b *Batch) EntrySize(i int) int { return runSize(b.runs[i], false) }

// PutEntry writes entry i into w.
func (b *Batch) PutEntry(w *wire.Writer, i int) { putRun(w, b.runs[i], false) }

// DurableEntry is one logged decision handed back at recovery: its batch's
// entries (its runs), which the replica decodes as views.
type DurableEntry struct {
	Seq   int64
	Batch [][]byte
}

// DurableState is the recovered durable state a replica restores from.
type DurableState struct {
	// CheckpointSeq is -1 when no checkpoint exists.
	CheckpointSeq int64
	// Checkpoint is the wrapped snapshot at CheckpointSeq (the layout
	// produced by the replica's own checkpointing).
	Checkpoint []byte
	// Decisions are the logged batches after CheckpointSeq, in order.
	Decisions []DurableEntry
}

// WithDurability attaches a durable backend and the state recovered from
// it. NewReplica restores the checkpoint and replays the decisions through
// the application before returning, and the running replica logs every
// decision (and checkpoint) through d.
func WithDurability(d Durability, state *DurableState) Option {
	return func(r *Replica) {
		r.durable = d
		r.recoverState = state
	}
}

// restoreDurable replays the recovered state. Runs during NewReplica, on
// the constructing goroutine, before the event loop exists — so calling
// Application methods here honours the single-goroutine contract.
func (r *Replica) restoreDurable(st *DurableState) error {
	if st.CheckpointSeq >= 0 {
		appSnap, ok := r.unwrapSnapshot(st.Checkpoint)
		if !ok {
			return fmt.Errorf("consensus: recovered checkpoint at seq %d is malformed", st.CheckpointSeq)
		}
		r.app.Restore(appSnap, st.CheckpointSeq)
		r.lastDelivered = st.CheckpointSeq
		r.lastProposed = st.CheckpointSeq
		r.checkpointSeq = st.CheckpointSeq
		r.checkpointSnap = st.Checkpoint
		r.durableSeq = st.CheckpointSeq
		r.statDelivered.Store(st.CheckpointSeq)
	}
	for _, e := range st.Decisions {
		if e.Seq <= r.lastDelivered {
			continue // behind the checkpoint: pruning just hadn't caught up
		}
		if e.Seq != r.lastDelivered+1 {
			return fmt.Errorf("consensus: decision log gap at seq %d (delivered %d)",
				e.Seq, r.lastDelivered)
		}
		reqs, err := r.decodeDecided(e.Seq, e.Batch)
		if err != nil {
			return err
		}
		inst := r.instance(e.Seq)
		// Decided, hence validated by a quorum.
		r.adoptDecided(inst, reqs)
		r.durableSeq = e.Seq // already on disk: execute must not re-log it
		r.deliver(inst)
		if e.Seq > r.lastProposed {
			r.lastProposed = e.Seq
		}
	}
	return nil
}

// logDecision write-ahead-logs one decided batch if it is the next one the
// durable log expects. Gating on contiguity keeps the on-disk log dense
// (replay depends on it) and makes the hook idempotent across the several
// call sites that may see the same instance. The record is enqueued and
// the loop keeps going: records commit in call order, so the on-disk log
// stays dense, and the application gates visible effects on the token. A
// commit failure poisons the backend's log (later enqueues fail too) and
// surfaces on the token at the gate; the previous token is polled (never
// waited on) so a poisoned log is also reported here, from the loop, once.
func (r *Replica) logDecision(seq int64, reqs []request) {
	if r.durable == nil || seq != r.durableSeq+1 {
		return
	}
	if prev := r.lastDecisionTok; prev != nil && prev.Done() {
		if err := prev.Wait(); err != nil && !r.durableFailureLogged {
			r.durableFailureLogged = true
			fmt.Fprintf(os.Stderr, "consensus: replica %d: decision log failed before seq %d: %v\n",
				r.cfg.SelfID, seq, err)
		}
	}
	r.logged.set(reqs)
	r.lastDecisionTok = r.durable.AppendDecision(seq, &r.logged)
	r.logged.set(nil)
	r.durableSeq = seq
}

// logCheckpoint persists a checkpoint snapshot and advances the durable
// frontier (a checkpoint subsumes every decision at or below its seq).
func (r *Replica) logCheckpoint(seq int64, snapshot []byte) {
	if r.durable == nil {
		return
	}
	if seq <= r.durableSeq {
		// Routine checkpoint: every decision at or below seq is already
		// in the durable log (or enqueued ahead of this save's effects),
		// so the checkpoint is pure optimization — it only shortens
		// recovery's replay — and the loop need not wait for its fsyncs.
		r.durable.SaveCheckpointAsync(seq, snapshot)
		return
	}
	// Bridging checkpoint (seq > durableSeq, e.g. a state-transfer jump
	// over decisions this replica never logged): it must be on disk
	// before any later decision record, or a crash in between would
	// leave a gap in the durable history. Save synchronously.
	if err := r.durable.SaveCheckpoint(seq, snapshot); err != nil {
		fmt.Fprintf(os.Stderr, "consensus: replica %d: checkpoint write failed at seq %d: %v\n",
			r.cfg.SelfID, seq, err)
		return
	}
	r.durableSeq = seq
}
