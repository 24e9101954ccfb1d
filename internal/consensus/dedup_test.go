package consensus

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/wire"
)

func newClientDedup() *clientDedup {
	return &clientDedup{sparse: make(map[uint64]bool)}
}

func TestClientDedupBasics(t *testing.T) {
	d := newClientDedup()
	if d.contains(1) {
		t.Fatal("fresh dedup contains 1")
	}
	d.mark(1)
	d.mark(3)
	if !d.contains(1) || !d.contains(3) || d.contains(2) {
		t.Fatal("marking misbehaves")
	}
	// Compaction advances only over the contiguous prefix.
	d.compact()
	if d.floor != 1 {
		t.Fatalf("floor = %d, want 1", d.floor)
	}
	d.mark(2)
	d.compact()
	if d.floor != 3 {
		t.Fatalf("floor = %d, want 3", d.floor)
	}
	if len(d.sparse) != 0 {
		t.Fatalf("sparse not drained: %v", d.sparse)
	}
	if !d.contains(2) || !d.contains(3) || d.contains(4) {
		t.Fatal("contains wrong after compaction")
	}
}

func TestClientDedupOutOfOrder(t *testing.T) {
	// The scenario that motivated exact tracking: a high sequence executes
	// first (e.g. proposed by a Byzantine leader); lower sequences must
	// still be executable exactly once afterwards.
	d := newClientDedup()
	d.mark(200)
	if d.contains(90) {
		t.Fatal("marking 200 must not absorb 90")
	}
	d.mark(90)
	if !d.contains(90) || !d.contains(200) || d.contains(91) {
		t.Fatal("out-of-order marks wrong")
	}
}

func TestClientDedupSerializationRoundTrip(t *testing.T) {
	d := newClientDedup()
	for _, s := range []uint64{1, 2, 3, 7, 9} {
		d.mark(s)
	}
	d.compact() // floor=3, sparse={7,9}
	w := wire.NewWriter(0)
	d.marshalInto(w, nil)
	got := readClientDedup(wire.NewReader(w.Bytes()))
	if got.floor != 3 {
		t.Fatalf("floor = %d", got.floor)
	}
	for _, s := range []uint64{1, 2, 3, 7, 9} {
		if !got.contains(s) {
			t.Fatalf("round trip lost %d", s)
		}
	}
	if got.contains(4) || got.contains(8) {
		t.Fatal("round trip invented sequences")
	}
}

func TestClientDedupProperty(t *testing.T) {
	// Exactness: after marking an arbitrary multiset of sequences, contains
	// is true exactly for the marked set, regardless of order or
	// interleaved compactions.
	f := func(seqsRaw []uint16, compactEvery uint8) bool {
		d := newClientDedup()
		marked := make(map[uint64]bool)
		step := int(compactEvery%5) + 1
		for i, raw := range seqsRaw {
			seq := uint64(raw%256) + 1
			d.mark(seq)
			marked[seq] = true
			if i%step == 0 {
				d.compact()
			}
		}
		for seq := uint64(1); seq <= 257; seq++ {
			if d.contains(seq) != marked[seq] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDedupSessionJumpKeepsStragglerHeadroom(t *testing.T) {
	d := newClientDedup()
	base := uint64(1_700_000_000_000_000_000) // wall-clock-nanos session base
	// Out-of-order execution across a leader change: base+2 lands first.
	d.mark(base + 2)
	d.compact()
	if d.floor >= base+1 {
		t.Fatalf("floor %d jumped over in-flight seq %d", d.floor, base+1)
	}
	if d.floor <= sessionGap {
		t.Fatalf("floor %d did not jump over the session gap", d.floor)
	}
	// The displaced straggler still executes exactly once.
	if d.contains(base + 1) {
		t.Fatal("straggler swallowed as duplicate")
	}
	d.mark(base + 1)
	if !d.contains(base+1) || !d.contains(base+2) {
		t.Fatal("marked sequences not deduplicated")
	}
	// Once the session's progress exceeds the headroom, the hole below the
	// session base closes and the sparse set compacts into the floor.
	for i := uint64(3); i <= compactHeadroom+2; i++ {
		d.mark(base + i)
	}
	d.compact()
	if len(d.sparse) != 0 {
		t.Fatalf("sparse set not compacted: %d entries left (floor %d)", len(d.sparse), d.floor)
	}
	if !d.contains(base+1) || d.contains(base+compactHeadroom+3) {
		t.Fatal("floor compaction lost dedup state")
	}
}

// A delivered instance compacts the dedup state of the clients its batch
// names and of no other: a client that is not named has executed nothing
// since its last compaction, and walking every record made each delivery
// cost as much as the replica had clients. Every replica executes the same
// batches, so every replica compacts the same records at the same instance.
func TestDeliverCompactsOnlyNamedClients(t *testing.T) {
	r, err := NewReplica(Config{SelfID: 3, Replicas: ids(4)}, &countApp{}, &sinkConn{addr: ReplicaID(3).Addr()})
	if err != nil {
		t.Fatal(err)
	}
	// A session jump: compaction moves the floor to compactHeadroom below
	// the new session's lowest executed sequence.
	const jumped = sessionGap + 100
	for _, id := range []string{"idle", "named"} {
		c := r.record(id)
		c.replicated = true
		c.mark(jumped)
	}
	r.deliver(&instance{seq: 0, decided: true, reqs: []request{{ClientID: "named", Seq: jumped + 1, Op: []byte("op")}}})
	if idle := r.clients["idle"]; idle.floor != 0 || !idle.contains(jumped) {
		t.Fatalf("an instance that does not name the idle client compacted it to floor %d", idle.floor)
	}
	if named := r.clients["named"]; named.floor != jumped-compactHeadroom {
		t.Fatalf("the named client's floor is %d after its instance, want %d", named.floor, jumped-compactHeadroom)
	}
	r.deliver(&instance{seq: 1, decided: true, reqs: []request{{ClientID: "idle", Seq: jumped + 1, Op: []byte("op")}}})
	if idle := r.clients["idle"]; idle.floor != jumped-compactHeadroom {
		t.Fatalf("the idle client's floor is %d once an instance names it, want %d", idle.floor, jumped-compactHeadroom)
	}
}

// BenchmarkDeliverWithIdleClients delivers one-request instances of one
// client while other clients' records sit idle: the cost of a delivery must
// not grow with the records its batch does not name.
func BenchmarkDeliverWithIdleClients(b *testing.B) {
	for _, idle := range []int{10, 20_000} {
		b.Run(fmt.Sprintf("idle=%d", idle), func(b *testing.B) {
			r, err := NewReplica(Config{SelfID: 3, Replicas: ids(4)}, &countApp{}, &sinkConn{addr: ReplicaID(3).Addr()})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < idle; i++ {
				c := r.record(fmt.Sprintf("idle-%d", i))
				c.replicated = true
				c.mark(1)
			}
			batch := []request{{ClientID: "client", Op: []byte("op")}}
			inst := &instance{decided: true}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch[0].Seq = uint64(i + 1)
				inst.seq, inst.reqs = int64(i), batch
				r.deliver(inst)
				delete(r.decidedLog, inst.seq)
			}
		})
	}
}
