package core

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/consensus"
	"repro/internal/transport"
)

// This file implements the join bootstrap of a new ordering node: a node
// started from an empty data directory, with the current group plus itself
// as its static membership, announces a ReconfigAdd for its own identity
// until the group orders it (Section 5.2: membership changes flow through
// the same total order as envelopes). Once admitted, the newcomer is
// included in the group's consensus traffic, catches up through the
// standard checkpoint state transfer, and back-fills its durable ledgers
// from the peers' retention floor via the signature-verified fetch path
// (floor discovery and floor-climbing live in runBackfill). The
// announcement itself is policy-driven — jittered exponential backoff with
// peer rotation — so transient loss delays the join instead of failing it;
// only the hard deadline turns it into a typed JoinError.

// JoinError is the typed failure of a cluster join: the hard deadline
// passed (or the node stopped) before it observed itself admitted.
type JoinError struct {
	// Node is the joining replica's identity.
	Node consensus.ReplicaID
	// Elapsed is how long the join ran before giving up.
	Elapsed time.Duration
	// Epoch is the membership epoch last observed locally (0 when the node
	// never saw an ordered reconfiguration).
	Epoch uint64
	// Stopped reports that the node was stopped mid-join rather than the
	// deadline passing.
	Stopped bool
}

func (e *JoinError) Error() string {
	if e.Stopped {
		return fmt.Sprintf("join: node %d stopped after %v before being admitted (local epoch %d)",
			int(e.Node), e.Elapsed.Round(time.Millisecond), e.Epoch)
	}
	return fmt.Sprintf("join: node %d not admitted within %v (local epoch %d)",
		int(e.Node), e.Elapsed.Round(time.Millisecond), e.Epoch)
}

// JoinOptions tunes the join bootstrap.
type JoinOptions struct {
	// Weight is the WHEAT vote weight to request (0 means 1).
	Weight int
	// Announce schedules the ReconfigAdd re-announcements (zero fields take
	// the shared retry defaults, starting at 500ms).
	Announce transport.RetryPolicy
	// Deadline is the hard join deadline. Zero means 60 seconds.
	Deadline time.Duration
}

// Join announces this node to the group it was configured against and
// blocks until the node observes its own admission: the membership epoch
// advanced past the locally known one with the node still a member — which
// can only happen once the peers ordered the add and started including the
// node in the decision stream (directly or via state transfer). Each
// announcement is a fresh ordered request; re-announcing after the add
// took is a no-op membership-wise (the epoch still advances everywhere, by
// design, so joiner and group stay in step). Call after Start. On failure
// the returned error is a *JoinError.
func (n *OrderingNode) Join(opts JoinOptions) error {
	if opts.Deadline <= 0 {
		opts.Deadline = 60 * time.Second
	}
	if opts.Announce.Initial <= 0 {
		opts.Announce.Initial = 500 * time.Millisecond
	}
	self := n.cfg.Consensus.SelfID
	start := time.Now()
	base := n.replica.MembershipView().Epoch
	op := consensus.EncodeReconfigOp(consensus.ReconfigOp{
		Kind: consensus.ReconfigAdd, Replica: self, Weight: opts.Weight,
	})
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	deadline := start.Add(opts.Deadline)
	for attempt := 0; ; attempt++ {
		n.submit(op, n.peerAddrs())
		// Poll for admission until the next announcement is due.
		waitUntil := time.Now().Add(opts.Announce.Delay(attempt, rng))
		for time.Now().Before(waitUntil) {
			v := n.replica.MembershipView()
			if v.Epoch > base && containsReplica(v.Members, self) {
				return nil
			}
			select {
			case <-n.done:
				return &JoinError{Node: self, Elapsed: time.Since(start), Epoch: v.Epoch, Stopped: true}
			case <-time.After(20 * time.Millisecond):
			}
		}
		if opts.Announce.MaxAttempts > 0 && attempt+1 >= opts.Announce.MaxAttempts {
			break
		}
		if time.Now().After(deadline) {
			break
		}
	}
	return &JoinError{Node: self, Elapsed: time.Since(start), Epoch: n.replica.MembershipView().Epoch}
}
