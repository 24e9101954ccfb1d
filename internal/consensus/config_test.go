package consensus

import (
	"testing"
	"testing/quick"

	"repro/internal/cryptoutil"
)

func ids(n int) []ReplicaID {
	out := make([]ReplicaID, n)
	for i := range out {
		out[i] = ReplicaID(i)
	}
	return out
}

func TestMaxFaults(t *testing.T) {
	cases := []struct{ n, f int }{
		{1, 0}, {3, 0}, {4, 1}, {5, 1}, {6, 1}, {7, 2}, {10, 3}, {13, 4},
	}
	for _, c := range cases {
		if got := MaxFaults(c.n); got != c.f {
			t.Errorf("MaxFaults(%d) = %d, want %d", c.n, got, c.f)
		}
	}
}

func TestQuorumSize(t *testing.T) {
	// The paper's quorum is ceil((n+f+1)/2).
	cases := []struct{ n, f, q int }{
		{4, 1, 3}, {7, 2, 5}, {10, 3, 7}, {5, 1, 4},
	}
	for _, c := range cases {
		if got := QuorumSize(c.n, c.f); got != c.q {
			t.Errorf("QuorumSize(%d,%d) = %d, want %d", c.n, c.f, got, c.q)
		}
	}
}

func TestQuorumIntersectionProperty(t *testing.T) {
	// Any two quorums of size ceil((n+f+1)/2) intersect in at least f+1
	// replicas (so at least one correct replica).
	f := func(nRaw, fRaw uint8) bool {
		fv := int(fRaw%4) + 1
		n := 3*fv + 1 + int(nRaw%3) // n in [3f+1, 3f+3]
		q := QuorumSize(n, fv)
		// Worst-case overlap of two quorums drawn from n replicas.
		overlap := 2*q - n
		return overlap >= fv+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryWeightsPaperConfig(t *testing.T) {
	// WHEAT with n=5, f=1, delta=1: two replicas weigh Vmax=2, three weigh
	// Vmin=1 (footnote 11 of the paper).
	replicas := ids(5)
	weights, err := BinaryWeights(replicas, 1, 1, []ReplicaID{0, 4})
	if err != nil {
		t.Fatalf("BinaryWeights: %v", err)
	}
	if weights[0] != 2 || weights[4] != 2 {
		t.Fatalf("preferred replicas not Vmax: %v", weights)
	}
	if weights[1] != 1 || weights[2] != 1 || weights[3] != 1 {
		t.Fatalf("non-preferred replicas not Vmin: %v", weights)
	}
	total := 0
	for _, w := range weights {
		total += w
	}
	if total != 7 { // n + 2*delta
		t.Fatalf("total weight = %d, want 7", total)
	}
}

func TestBinaryWeightsDeltaZero(t *testing.T) {
	weights, err := BinaryWeights(ids(4), 1, 0, nil)
	if err != nil {
		t.Fatalf("BinaryWeights: %v", err)
	}
	for id, w := range weights {
		if w != 1 {
			t.Fatalf("replica %d weight %d, want 1", id, w)
		}
	}
}

func TestBinaryWeightsValidation(t *testing.T) {
	if _, err := BinaryWeights(ids(5), 1, 2, nil); err == nil {
		t.Fatal("accepted n != 3f+1+delta")
	}
	if _, err := BinaryWeights(ids(9), 2, 2, nil); err != nil {
		t.Fatalf("rejected valid n=9 f=2 delta=2: %v", err)
	}
	if _, err := BinaryWeights(ids(8), 2, 1, nil); err == nil {
		t.Fatal("accepted delta not multiple of f")
	}
}

func TestBinaryWeightsFillsSlotsWithoutPreferred(t *testing.T) {
	weights, err := BinaryWeights(ids(5), 1, 1, nil)
	if err != nil {
		t.Fatalf("BinaryWeights: %v", err)
	}
	vmax := 0
	for _, w := range weights {
		if w == 2 {
			vmax++
		}
	}
	if vmax != 2 {
		t.Fatalf("expected 2 Vmax replicas, got %d (%v)", vmax, weights)
	}
}

func TestWeightedQuorumClassicEquivalence(t *testing.T) {
	// With unit weights the tracker must reduce to ceil((n+f+1)/2).
	for _, n := range []int{4, 7, 10} {
		f := MaxFaults(n)
		qt := newQuorumTracker(ids(n), nil, f)
		if qt.quorumWeight != QuorumSize(n, f) {
			t.Errorf("n=%d: quorumWeight = %d, want %d", n, qt.quorumWeight, QuorumSize(n, f))
		}
	}
}

func TestWeightedQuorumWheat(t *testing.T) {
	// n=5, f=1, delta=1, total V=7, Vmax=2: quorum weight is
	// floor((7+2)/2)+1 = 5.
	weights, err := BinaryWeights(ids(5), 1, 1, []ReplicaID{0, 1})
	if err != nil {
		t.Fatalf("BinaryWeights: %v", err)
	}
	qt := newQuorumTracker(ids(5), weights, 1)
	if qt.quorumWeight != 5 {
		t.Fatalf("quorumWeight = %d, want 5", qt.quorumWeight)
	}
	digest := cryptoutil.Hash([]byte("value"))
	isQuorum := func(members ...ReplicaID) bool {
		var votes tally
		for _, id := range members {
			votes.add(0, id, digest)
		}
		got, ok := votes.quorum(0, qt)
		return ok && got == digest
	}
	// Both Vmax replicas + one Vmin = 2+2+1 = 5: quorum.
	if !isQuorum(0, 1, 2) {
		t.Fatal("Vmax+Vmax+Vmin should be a quorum")
	}
	// One Vmax + two Vmin = 4: not a quorum.
	if isQuorum(0, 2, 3) {
		t.Fatal("Vmax+Vmin+Vmin must not be a quorum")
	}
	// One Vmax + three Vmin = 5: quorum.
	if !isQuorum(0, 2, 3, 4) {
		t.Fatal("Vmax+3*Vmin should be a quorum")
	}
	// All three Vmin = 3: not a quorum.
	if isQuorum(2, 3, 4) {
		t.Fatal("3*Vmin must not be a quorum")
	}
}

// A tally counts each voter once per regency, sums weights per digest, and
// forgets an older regency's votes when a newer one's arrive.
func TestTallyCountsEachVoterOncePerRegency(t *testing.T) {
	qt := newQuorumTracker(ids(7), nil, 2) // quorum of 5
	a, b := cryptoutil.Hash([]byte("a")), cryptoutil.Hash([]byte("b"))
	var votes tally
	for _, id := range []ReplicaID{0, 1, 2, 3} {
		votes.add(0, id, a)
	}
	votes.add(0, 0, b) // a second vote of voter 0: ignored
	votes.add(0, 4, b)
	votes.add(0, 4, a) // voter 4 already voted for b
	if _, ok := votes.quorum(0, qt); ok {
		t.Fatal("four votes for a and one for b make a quorum of 5")
	}
	votes.add(0, 5, a)
	if got, ok := votes.quorum(0, qt); !ok || got != a {
		t.Fatalf("five votes for a: quorum %v for %x", ok, got)
	}
	if _, ok := votes.quorum(1, qt); ok {
		t.Fatal("regency 0 votes make a quorum in regency 1")
	}
	for _, id := range []ReplicaID{0, 1, 2, 3, 4, 5, 6} { // spills past the inline votes
		votes.add(1, id, b)
	}
	if got, ok := votes.quorum(1, qt); !ok || got != b || len(votes.votes) != 7 {
		t.Fatalf("regency 1: quorum %v for %x over %d votes", ok, got, len(votes.votes))
	}
	votes.add(0, 0, a) // an older regency's vote
	if _, ok := votes.quorum(0, qt); ok || len(votes.votes) != 7 {
		t.Fatal("a vote of an older regency was counted")
	}
}

func TestWeightedQuorumIntersectionProperty(t *testing.T) {
	// For every binary weight assignment, any two weighted quorums
	// intersect with total weight > f*Vmax, which guarantees a common
	// correct replica even if f replicas (worst case: the heaviest ones)
	// are Byzantine.
	f := func(fRaw, deltaMultRaw uint8, seed int64) bool {
		fv := int(fRaw%3) + 1
		delta := fv * int(deltaMultRaw%3) // 0, f, or 2f
		n := 3*fv + 1 + delta
		replicas := ids(n)
		weights, err := BinaryWeights(replicas, fv, delta, nil)
		if err != nil {
			return false
		}
		qt := newQuorumTracker(replicas, weights, fv)
		// Worst-case intersection weight of two quorums: each quorum has
		// weight >= quorumWeight out of total V, so the overlap weight is
		// at least 2*quorumWeight - V.
		overlap := 2*qt.quorumWeight - qt.totalWeight
		return overlap > fv*qt.maxWeight
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	base := Config{SelfID: 0, Replicas: ids(4)}
	if _, err := NewReplica(base.withDefaults(), nil, nil); err == nil {
		t.Fatal("nil app accepted")
	}
	cases := []Config{
		{SelfID: 9, Replicas: ids(4)},                                   // self not a member
		{SelfID: 0, Replicas: []ReplicaID{0, 0, 1, 2}},                  // duplicate
		{SelfID: 0, Replicas: ids(4), F: 2},                             // too many faults
		{SelfID: 0, Replicas: nil},                                      // empty
		{SelfID: 0, Replicas: ids(4), Weights: map[ReplicaID]int{0: 1}}, // incomplete weights
	}
	for i, cfg := range cases {
		if err := cfg.withDefaults().validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	good := Config{SelfID: 0, Replicas: ids(4)}.withDefaults()
	if err := good.validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if good.F != 1 || good.BatchSize != DefaultBatchSize {
		t.Fatalf("defaults not applied: %+v", good)
	}
}

func TestLeaderRotation(t *testing.T) {
	r := &Replica{membership: ids(4)}
	if got := r.leaderOf(0); got != 0 {
		t.Fatalf("leaderOf(0) = %d", got)
	}
	if got := r.leaderOf(5); got != 1 {
		t.Fatalf("leaderOf(5) = %d", got)
	}
	if got := r.leaderOf(-1); got < 0 || int(got) >= 4 {
		t.Fatalf("leaderOf(-1) out of range: %d", got)
	}
}

func TestReplicaAddr(t *testing.T) {
	if ReplicaID(3).Addr() != "replica-3" {
		t.Fatalf("Addr = %q", ReplicaID(3).Addr())
	}
}
