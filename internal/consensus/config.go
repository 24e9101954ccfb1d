// Package consensus implements the BFT-SMaRt replication stack the ordering
// service runs on: the Mod-SMaRt state machine replication protocol over a
// PBFT-like Byzantine consensus (Section 4 of the paper, message pattern in
// Figure 3), plus the WHEAT variant with weighted (vote-assigned) quorums for
// geo-replicated deployments. A replica executes an instance only once it is
// decided, in every configuration, so nothing it executed is ever undone.
//
// The normal-case protocol per consensus instance i:
//
//	leader  --PROPOSE(batch)-->  all
//	all     --WRITE(hash)----->  all     (on valid PROPOSE from the leader)
//	all     --ACCEPT(hash)---->  all     (on a quorum of matching WRITEs)
//	decide batch                          (on a quorum of matching ACCEPTs)
//
// where a quorum is ceil((n+f+1)/2) replicas, generalized to weighted votes
// for WHEAT. If the leader stalls or misbehaves, the synchronization phase
// (STOP / STOPDATA / SYNC) elects the next regency's leader and carries
// write-certified values across so that no decided value is lost.
package consensus

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/transport"
)

// ReplicaID identifies a consensus replica (an ordering node).
type ReplicaID int32

// Addr returns the replica's transport address.
func (id ReplicaID) Addr() transport.Addr {
	return transport.Addr("replica-" + strconv.Itoa(int(id)))
}

// Defaults mirroring the paper's setup (batch limit 400, Section 6.2).
const (
	DefaultBatchSize          = 400
	DefaultBatchTimeout       = 5 * time.Millisecond
	DefaultRequestTimeout     = 4 * time.Second
	DefaultCheckpointInterval = 1024
)

// Config parameterizes a replica.
type Config struct {
	// SelfID is this replica's identity. It must appear in Replicas.
	SelfID ReplicaID
	// Replicas is the initial membership. Order does not matter; the
	// membership is kept sorted internally, and the leader of regency r is
	// membership[r mod n].
	Replicas []ReplicaID
	// F is the number of Byzantine faults tolerated. Zero means the maximum
	// for the membership size: floor((n-1)/3).
	F int
	// Weights assigns votes per replica for WHEAT's weighted quorums. Nil
	// or empty means every replica has one vote (classic BFT-SMaRt).
	Weights map[ReplicaID]int
	// BatchSize caps requests per PROPOSE (the paper uses 400).
	BatchSize int
	// BatchTimeout delays no batch: with no instance open the leader
	// proposes whatever is pooled at once. It is only the unit the window
	// is measured in: the leader keeps min(PipelineDepth, instance latency
	// / BatchTimeout) instances in flight, partial batches evenly spaced —
	// on a WAN about one BatchTimeout apart, since PipelineDepth does not
	// cap the window there. Where that is one instance (a LAN), a second
	// one opens only for the requests that complete an application unit (a
	// block; see Cutter). The rule is Replica.proposeDue.
	BatchTimeout time.Duration
	// RequestTimeout is how long a pending request may wait before the
	// replica triggers the synchronization phase (leader change).
	RequestTimeout time.Duration
	// CheckpointInterval is the number of decisions between application
	// snapshots; the decision log is truncated at each checkpoint
	// (Section 5.2: the tiny ordering-service state makes frequent
	// checkpoints cheap).
	CheckpointInterval int64
	// Key signs synchronization-phase messages (STOPDATA). Optional: when
	// nil, leader-change evidence is accepted unsigned (crash-fault level).
	Key *cryptoutil.KeyPair
	// Registry resolves replica public keys for STOPDATA verification.
	Registry *cryptoutil.Registry
	// ValidateRequest, when set, vets each request operation in a PROPOSE
	// before the replica WRITEs for it (the ordering service checks that
	// envelopes are well-formed).
	ValidateRequest func(op []byte) error
}

// withDefaults returns a copy of the config with zero fields filled in.
func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = DefaultBatchSize
	}
	if c.BatchTimeout <= 0 {
		c.BatchTimeout = DefaultBatchTimeout
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	if c.CheckpointInterval <= 0 {
		c.CheckpointInterval = DefaultCheckpointInterval
	}
	if c.F <= 0 {
		c.F = MaxFaults(len(c.Replicas))
	}
	return c
}

func (c Config) validate() error {
	if len(c.Replicas) == 0 {
		return errors.New("consensus: empty membership")
	}
	seen := make(map[ReplicaID]bool, len(c.Replicas))
	self := false
	for _, id := range c.Replicas {
		if seen[id] {
			return fmt.Errorf("consensus: duplicate replica id %d", id)
		}
		seen[id] = true
		if id == c.SelfID {
			self = true
		}
	}
	if !self {
		return fmt.Errorf("consensus: self id %d not in membership", c.SelfID)
	}
	n := len(c.Replicas)
	if n < 3*c.F+1 {
		return fmt.Errorf("consensus: n=%d cannot tolerate f=%d (need n >= 3f+1)", n, c.F)
	}
	if len(c.Weights) > 0 {
		for _, id := range c.Replicas {
			w, ok := c.Weights[id]
			if !ok {
				return fmt.Errorf("consensus: replica %d missing from weights", id)
			}
			if w < 1 {
				return fmt.Errorf("consensus: replica %d has weight %d < 1", id, w)
			}
		}
	}
	return nil
}

// MaxFaults returns the maximum number of Byzantine faults an n-replica
// group tolerates: floor((n-1)/3).
func MaxFaults(n int) int {
	if n < 1 {
		return 0
	}
	return (n - 1) / 3
}

// QuorumSize returns the classic BFT-SMaRt quorum ceil((n+f+1)/2).
func QuorumSize(n, f int) int {
	return (n + f + 2) / 2 // integer ceil((n+f+1)/2)
}

// BinaryWeights computes WHEAT's binary vote assignment for a membership of
// n = 3f+1+delta replicas: 2f replicas receive Vmax = 1 + delta/f votes and
// the remaining f+1+delta receive Vmin = 1 vote. The preferred replicas (the
// "fastest" ones in WHEAT's empirical placement) receive Vmax first; any
// remaining Vmax slots are assigned in ascending id order. delta must be a
// multiple of f so that Vmax is integral.
func BinaryWeights(replicas []ReplicaID, f, delta int, preferred []ReplicaID) (map[ReplicaID]int, error) {
	n := len(replicas)
	if n != 3*f+1+delta {
		return nil, fmt.Errorf("consensus: binary weights need n=3f+1+delta, got n=%d f=%d delta=%d", n, f, delta)
	}
	if delta == 0 {
		weights := make(map[ReplicaID]int, n)
		for _, id := range replicas {
			weights[id] = 1
		}
		return weights, nil
	}
	if f == 0 || delta%f != 0 {
		return nil, fmt.Errorf("consensus: delta=%d must be a positive multiple of f=%d", delta, f)
	}
	vmax := 1 + delta/f
	weights := make(map[ReplicaID]int, n)
	for _, id := range replicas {
		weights[id] = 1
	}
	slots := 2 * f
	for _, id := range preferred {
		if slots == 0 {
			break
		}
		if w, ok := weights[id]; ok && w == 1 {
			weights[id] = vmax
			slots--
		}
	}
	if slots > 0 {
		sorted := make([]ReplicaID, len(replicas))
		copy(sorted, replicas)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, id := range sorted {
			if slots == 0 {
				break
			}
			if weights[id] == 1 {
				weights[id] = vmax
				slots--
			}
		}
	}
	return weights, nil
}

// quorumTracker performs weighted quorum arithmetic for one membership view.
type quorumTracker struct {
	weights      map[ReplicaID]int
	totalWeight  int
	maxWeight    int
	quorumWeight int
	f            int
	n            int
}

// newQuorumTracker derives quorum thresholds from a membership and weight
// assignment. With unit weights the threshold reduces to ceil((n+f+1)/2).
// With weights, a quorum is any subset whose vote sum q satisfies
// 2q - V > f * Vmax, i.e. any two quorums intersect in weight larger than
// f*Vmax and therefore contain at least one correct replica in common.
func newQuorumTracker(replicas []ReplicaID, weights map[ReplicaID]int, f int) *quorumTracker {
	qt := &quorumTracker{
		weights: make(map[ReplicaID]int, len(replicas)),
		f:       f,
		n:       len(replicas),
	}
	for _, id := range replicas {
		w := 1
		if len(weights) > 0 {
			w = weights[id]
		}
		qt.weights[id] = w
		qt.totalWeight += w
		if w > qt.maxWeight {
			qt.maxWeight = w
		}
	}
	qt.quorumWeight = (qt.totalWeight+qt.f*qt.maxWeight)/2 + 1
	return qt
}

// weightOf returns a replica's vote weight (zero for non-members).
func (qt *quorumTracker) weightOf(id ReplicaID) int {
	return qt.weights[id]
}

// certSize is the plain-count threshold used by the synchronization phase
// (STOP and STOPDATA collection): 2f+1 and n-f respectively, as in
// Mod-SMaRt. These are counts, not weights: the synchronization phase of
// WHEAT keeps cardinality quorums.
func (qt *quorumTracker) stopQuorum() int { return 2*qt.f + 1 }

func (qt *quorumTracker) stopDataQuorum() int { return qt.n - qt.f }
