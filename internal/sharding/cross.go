package sharding

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/wire"
)

// Cross-shard atomic visibility. Shards are independent consensus groups,
// so no single decision can place an envelope in two chains at once.
// Instead the routing layer runs a two-phase mark/commit protocol made of
// ordinary envelopes — the ordering nodes stay completely unaware:
//
//  1. MARK(xid, channels, payload) is ordered in EVERY involved channel
//     (each on its own shard). A mark alone is a staged, invisible
//     record.
//  2. Only after the coordinator has OBSERVED every mark ordered does it
//     broadcast COMMIT(xid) into every channel, retrying until each
//     chain has one.
//
// Readers apply the visibility rule (VisibilityTracker): the cross-shard
// envelope is visible in a chain iff that chain contains MARK(xid) and a
// later COMMIT(xid). Atomicity follows from the commit gate: commits are
// only ever sent once every chain holds its mark, so either every chain
// can become visible (commit retries survive partitions: a healed shard
// orders the retried commit) or none ever does (a coordinator that dies
// before phase 2 leaves only invisible marks). The chaos harness's
// cross-shard-atomic invariant checks exactly this "both chains or
// neither" property while a shard is partitioned.

// Payload magics distinguishing cross-shard records from application
// payloads (first four bytes of the envelope payload).
var (
	markMagic   = []byte("XSM1")
	commitMagic = []byte("XSC1")
)

// EncodeMark builds the MARK payload: the transaction id, the full
// channel set (so any reader can learn the other chains involved), and
// the application payload it stages.
func EncodeMark(xid string, channels []string, payload []byte) []byte {
	w := wire.NewWriter(16 + len(xid) + len(payload) + 8*len(channels))
	w.PutRaw(markMagic)
	w.PutString(xid)
	w.PutUvarint(uint64(len(channels)))
	for _, ch := range channels {
		w.PutString(ch)
	}
	w.PutBytes(payload)
	return w.Bytes()
}

// DecodeMark decodes a MARK payload; ok is false for non-mark payloads.
func DecodeMark(payload []byte) (xid string, channels []string, inner []byte, ok bool) {
	if !bytes.HasPrefix(payload, markMagic) {
		return "", nil, nil, false
	}
	r := wire.NewReader(payload[len(markMagic):])
	xid = r.String()
	n := r.Count(1)
	if r.Err() != nil || n > 1<<16 {
		return "", nil, nil, false
	}
	channels = make([]string, 0, n)
	for i := 0; i < n; i++ {
		channels = append(channels, r.String())
	}
	inner = r.BytesCopy()
	if r.Finish() != nil {
		return "", nil, nil, false
	}
	return xid, channels, inner, true
}

// EncodeCommit builds the COMMIT payload for a transaction id.
func EncodeCommit(xid string) []byte {
	w := wire.NewWriter(8 + len(xid))
	w.PutRaw(commitMagic)
	w.PutString(xid)
	return w.Bytes()
}

// DecodeCommit decodes a COMMIT payload; ok is false for non-commit
// payloads.
func DecodeCommit(payload []byte) (xid string, ok bool) {
	if !bytes.HasPrefix(payload, commitMagic) {
		return "", false
	}
	r := wire.NewReader(payload[len(commitMagic):])
	xid = r.String()
	if r.Finish() != nil {
		return "", false
	}
	return xid, true
}

// VisibilityTracker applies the reader-side visibility rule to ONE
// channel's chain, fed in order: a cross-shard transaction is visible
// here iff a MARK(xid) was observed and a COMMIT(xid) after it. Safe for
// concurrent Observe/query (the chaos invariants poll it while a stream
// consumer feeds it).
type VisibilityTracker struct {
	mu      sync.Mutex
	marked  map[string]bool
	visible map[string]bool
	inner   map[string][]byte
}

// NewVisibilityTracker builds an empty tracker.
func NewVisibilityTracker() *VisibilityTracker {
	return &VisibilityTracker{
		marked:  make(map[string]bool),
		visible: make(map[string]bool),
		inner:   make(map[string][]byte),
	}
}

// ObserveBlock feeds every envelope of a delivered block, in order.
func (t *VisibilityTracker) ObserveBlock(b *fabric.Block) {
	for _, raw := range b.Envelopes {
		t.ObserveRaw(raw)
	}
}

// ObserveRaw feeds one ordered envelope. Non-cross-shard envelopes are
// ignored.
func (t *VisibilityTracker) ObserveRaw(raw []byte) {
	env, err := fabric.UnmarshalEnvelope(raw)
	if err != nil {
		return
	}
	if xid, _, inner, ok := DecodeMark(env.Payload); ok {
		t.mu.Lock()
		if !t.marked[xid] {
			t.marked[xid] = true
			t.inner[xid] = inner
		}
		t.mu.Unlock()
		return
	}
	if xid, ok := DecodeCommit(env.Payload); ok {
		t.mu.Lock()
		if t.marked[xid] {
			t.visible[xid] = true // commit after mark: visible
		}
		t.mu.Unlock()
	}
}

// Marked reports whether the chain holds the transaction's MARK.
func (t *VisibilityTracker) Marked(xid string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.marked[xid]
}

// Visible reports whether the transaction is visible in this chain
// (MARK followed by COMMIT).
func (t *VisibilityTracker) Visible(xid string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.visible[xid]
}

// Payload returns the staged application payload of a marked
// transaction (nil when it was never marked).
func (t *VisibilityTracker) Payload(xid string) []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.inner[xid]
}

// CrossTx is one cross-shard atomic broadcast: a payload that must become
// visible in every listed channel — chains on any mix of shards — or in
// none.
type CrossTx struct {
	// XID is the globally unique transaction id (the mark/commit join
	// key). Required.
	XID string
	// ClientID stamps the mark/commit envelopes.
	ClientID string
	// Channels are the involved chains (at least one; cross-shard when
	// they route to different shards, but same-shard pairs work
	// identically).
	Channels []string
	// Payload is the application record staged by the marks.
	Payload []byte
}

// CrossOptions tunes the coordinator.
type CrossOptions struct {
	// Timeout bounds the whole run (default 10s). On expiry during phase
	// 1 the transaction is left aborted (marks only — invisible
	// everywhere). On expiry during phase 2 ErrCrossIndeterminate is
	// returned: commits are in flight and a later reader may legally see
	// the transaction; re-driving the commit (ResumeCommit) is the
	// recovery path.
	Timeout time.Duration
	// RetryEvery is the mark/commit rebroadcast cadence while waiting
	// for the chains to show them (default 250ms). Rebroadcasts are
	// idempotent under the visibility rule.
	RetryEvery time.Duration
}

func (o CrossOptions) withDefaults() CrossOptions {
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	if o.RetryEvery <= 0 {
		o.RetryEvery = 250 * time.Millisecond
	}
	return o
}

// ErrCrossAborted reports a cross-shard broadcast that never reached the
// commit phase: no chain will ever show the transaction.
var ErrCrossAborted = errors.New("sharding: cross-shard tx aborted before commit")

// ErrCrossIndeterminate reports a commit phase that timed out before
// every chain showed the commit: the transaction WILL become visible on
// chains that order a commit; drive ResumeCommit until it succeeds to
// restore the both-or-neither guarantee.
var ErrCrossIndeterminate = errors.New("sharding: cross-shard commit in flight but unconfirmed")

// BroadcastCross runs the two-phase mark/commit protocol for one
// transaction through this router, blocking until the transaction is
// visible in every involved chain (nil), provably aborted
// (ErrCrossAborted), or indeterminate at the deadline
// (ErrCrossIndeterminate).
func (r *Router) BroadcastCross(tx CrossTx, opts CrossOptions) error {
	if tx.XID == "" || len(tx.Channels) == 0 {
		return fmt.Errorf("sharding: cross tx needs an id and channels")
	}
	opts = opts.withDefaults()
	deadline := time.NewTimer(opts.Timeout)
	defer deadline.Stop()

	// Watch every involved chain BEFORE broadcasting anything: marks can
	// only order after the trackers are live, so nothing is missed.
	trackers := make([]*VisibilityTracker, len(tx.Channels))
	streams := make([]*fabric.BlockStream, len(tx.Channels))
	defer func() {
		for _, s := range streams {
			if s != nil {
				s.Cancel()
			}
		}
	}()
	for i, channel := range tx.Channels {
		stream, err := r.Deliver(channel, fabric.DeliverNewest())
		if err != nil {
			r.cross.Aborted.Inc()
			return fmt.Errorf("%w: watch %q: %v", ErrCrossAborted, channel, err)
		}
		streams[i] = stream
		trackers[i] = NewVisibilityTracker()
		go func(t *VisibilityTracker, s *fabric.BlockStream) {
			for b := range s.Blocks() {
				t.ObserveBlock(b)
			}
		}(trackers[i], stream)
	}

	// Phase 1: order a mark in every chain; rebroadcast until observed.
	marks := make([][]byte, len(tx.Channels))
	for i, channel := range tx.Channels {
		marks[i] = (&fabric.Envelope{
			ChannelID: channel,
			ClientID:  tx.ClientID,
			Payload:   EncodeMark(tx.XID, tx.Channels, tx.Payload),
		}).Marshal()
	}
	if err := r.driveAll(tx.XID, marks, trackers, (*VisibilityTracker).Marked, opts, deadline.C); err != nil {
		r.cross.MarkFailed.Inc()
		r.cross.Aborted.Inc()
		return fmt.Errorf("%w: %v", ErrCrossAborted, err)
	}
	r.cross.Marked.Inc()

	// Phase 2: every chain holds its mark — commit everywhere.
	commits := make([][]byte, len(tx.Channels))
	for i, channel := range tx.Channels {
		commits[i] = (&fabric.Envelope{
			ChannelID: channel,
			ClientID:  tx.ClientID,
			Payload:   EncodeCommit(tx.XID),
		}).Marshal()
	}
	if err := r.driveAll(tx.XID, commits, trackers, (*VisibilityTracker).Visible, opts, deadline.C); err != nil {
		return fmt.Errorf("%w: %v", ErrCrossIndeterminate, err)
	}
	r.cross.Committed.Inc()
	return nil
}

// ResumeCommit re-drives the commit phase of a transaction whose
// BroadcastCross returned ErrCrossIndeterminate (every mark is known
// ordered; only commits may be missing). Safe to call repeatedly.
func (r *Router) ResumeCommit(tx CrossTx, opts CrossOptions) error {
	if tx.XID == "" || len(tx.Channels) == 0 {
		return fmt.Errorf("sharding: cross tx needs an id and channels")
	}
	opts = opts.withDefaults()
	deadline := time.NewTimer(opts.Timeout)
	defer deadline.Stop()

	trackers := make([]*VisibilityTracker, len(tx.Channels))
	streams := make([]*fabric.BlockStream, len(tx.Channels))
	defer func() {
		for _, s := range streams {
			if s != nil {
				s.Cancel()
			}
		}
	}()
	commits := make([][]byte, len(tx.Channels))
	for i, channel := range tx.Channels {
		// Replay from genesis so an already-visible chain answers
		// immediately instead of waiting for a fresh commit to order.
		stream, err := r.Deliver(channel, fabric.DeliverOldest())
		if err != nil {
			return fmt.Errorf("%w: watch %q: %v", ErrCrossIndeterminate, channel, err)
		}
		streams[i] = stream
		trackers[i] = NewVisibilityTracker()
		go func(t *VisibilityTracker, s *fabric.BlockStream) {
			for b := range s.Blocks() {
				t.ObserveBlock(b)
			}
		}(trackers[i], stream)
		commits[i] = (&fabric.Envelope{
			ChannelID: channel,
			ClientID:  tx.ClientID,
			Payload:   EncodeCommit(tx.XID),
		}).Marshal()
	}
	if err := r.driveAll(tx.XID, commits, trackers, (*VisibilityTracker).Visible, opts, deadline.C); err != nil {
		return fmt.Errorf("%w: %v", ErrCrossIndeterminate, err)
	}
	r.cross.Committed.Inc()
	return nil
}

// driveAll broadcasts one raw envelope per chain and rebroadcasts on the
// retry cadence until pred holds on every tracker or the deadline fires.
// Broadcast failures are tolerated (a partitioned shard answers
// unavailable; the retry reaches it after the heal) — only the deadline
// aborts.
func (r *Router) driveAll(xid string, raws [][]byte, trackers []*VisibilityTracker,
	pred func(*VisibilityTracker, string) bool, opts CrossOptions, deadline <-chan time.Time) error {
	tick := time.NewTicker(opts.RetryEvery)
	defer tick.Stop()
	for {
		done := true
		for i, t := range trackers {
			if pred(t, xid) {
				continue
			}
			done = false
			r.BroadcastRaw(raws[i]) // best effort; retried next tick
		}
		if done {
			return nil
		}
		select {
		case <-deadline:
			lagging := 0
			for _, t := range trackers {
				if !pred(t, xid) {
					lagging++
				}
			}
			return fmt.Errorf("deadline: %d of %d chains still waiting", lagging, len(trackers))
		case <-tick.C:
		}
	}
}
