package consensus

import (
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/wire"
)

// checkDedupInvariant fails unless d keeps clientDedup's invariant.
func checkDedupInvariant(t *testing.T, d *clientDedup) {
	t.Helper()
	prev := d.floor
	for _, r := range d.runs {
		if r.first > r.last || r.first <= prev || r.first-prev < 2 {
			t.Fatalf("floor %d, runs %v: runs must be sorted, disjoint and apart, above floor+1", d.floor, d.runs)
		}
		prev = r.last
	}
	if prev-d.floor > windowCap {
		t.Fatalf("floor %d trails the highest executed seq %d by more than windowCap", d.floor, prev)
	}
}

func TestClientDedupBasics(t *testing.T) {
	d := &clientDedup{}
	if d.contains(1) {
		t.Fatal("fresh dedup contains 1")
	}
	d.mark(1)
	d.mark(3)
	if !d.contains(1) || !d.contains(3) || d.contains(2) {
		t.Fatal("marking misbehaves")
	}
	// The floor covers only the contiguous prefix.
	if d.floor != 1 || !slices.Equal(d.runs, []seqRun{{3, 3}}) {
		t.Fatalf("floor %d, runs %v, want 1 and [3]", d.floor, d.runs)
	}
	d.mark(2)
	if d.floor != 3 || len(d.runs) != 0 {
		t.Fatalf("floor %d, runs %v, want 3 and none", d.floor, d.runs)
	}
	if !d.contains(2) || !d.contains(3) || d.contains(4) {
		t.Fatal("contains wrong once the floor absorbed the run")
	}
}

func TestClientDedupOutOfOrder(t *testing.T) {
	// The scenario that motivated exact tracking: a high sequence executes
	// first (e.g. proposed by a Byzantine leader); lower sequences must
	// still be executable exactly once afterwards.
	d := &clientDedup{}
	d.mark(200)
	if d.contains(90) {
		t.Fatal("marking 200 must not absorb 90")
	}
	d.mark(90)
	if !d.contains(90) || !d.contains(200) || d.contains(91) {
		t.Fatal("out-of-order marks wrong")
	}
	// Filling the gap between two runs merges them.
	for s := uint64(91); s < 200; s++ {
		d.mark(s)
	}
	if !slices.Equal(d.runs, []seqRun{{90, 200}}) {
		t.Fatalf("runs %v, want [90, 200]", d.runs)
	}
}

func TestClientDedupSerializationRoundTrip(t *testing.T) {
	d := &clientDedup{}
	for _, s := range []uint64{1, 2, 3, 7, 9, 12, 11, 13} {
		d.mark(s)
	}
	// floor 3; runs 7, 9, 11..13: a one-seq run as its seq, a longer one
	// as its last seq, then its first.
	w := wire.NewWriter(0)
	d.marshalInto(w)
	const want = "0000000000000003" + "04" + "0000000000000007" + "0000000000000009" +
		"000000000000000d" + "000000000000000b"
	if got := hex.EncodeToString(w.Bytes()); got != want {
		t.Fatalf("encoded %s, want %s", got, want)
	}
	got, ok := readClientDedup(wire.NewReader(w.Bytes()))
	if !ok || got.floor != 3 || !slices.Equal(got.runs, d.runs) {
		t.Fatalf("round trip read floor %d, runs %v (ok %v), want 3, %v", got.floor, got.runs, ok, d.runs)
	}
	for _, s := range []uint64{1, 2, 3, 7, 9, 11, 12, 13} {
		if !got.contains(s) {
			t.Fatalf("round trip lost %d", s)
		}
	}
	if got.contains(4) || got.contains(8) || got.contains(10) || got.contains(14) {
		t.Fatal("round trip invented sequences")
	}
}

// readClientDedup decodes only the tables marshalInto writes for a state
// that keeps the invariant.
func TestClientDedupRefusesNonCanonicalTables(t *testing.T) {
	table := func(floor uint64, words ...uint64) []byte {
		w := wire.NewWriter(0)
		w.PutUint64(floor)
		w.PutUvarint(uint64(len(words)))
		for _, s := range words {
			w.PutUint64(s)
		}
		return w.Bytes()
	}
	for _, c := range []struct {
		name string
		b    []byte
	}{
		{"a run at the floor's next seq", table(10, 11)},
		{"a run below the floor", table(10, 5)},
		{"adjacent one-seq runs", table(10, 12, 13)},
		{"a longer run adjacent to the one before", table(10, 12, 20, 13)},
		{"overlapping runs", table(10, 20, 12, 15)},
		{"unsorted runs", table(10, 30, 25, 20, 15)},
		{"a descending triple", table(10, 20, 15, 12)},
		{"a run windowCap+1 above the floor", table(10, 10+windowCap+1)},
		{"a count beyond the input", table(10, 12)[:16]},
		{"a huge count", append(table(10)[:8], 0xff, 0xff, 0xff, 0xff, 0x0f)},
	} {
		if d, ok := readClientDedup(wire.NewReader(c.b)); ok {
			t.Errorf("%s: decoded as floor %d, runs %v", c.name, d.floor, d.runs)
		}
	}
	if d, ok := readClientDedup(wire.NewReader(table(10, 12, 10+windowCap))); !ok || len(d.runs) != 2 {
		t.Fatalf("a table at the window's edge: floor %d, runs %v, ok %v", d.floor, d.runs, ok)
	}
}

func TestClientDedupProperty(t *testing.T) {
	// Exactness: after marking an arbitrary multiset of sequences, contains
	// is true exactly for the marked set and for what lies windowCap or
	// more below the highest marked seq, regardless of order; the state
	// keeps the invariant after every mark and reads back from its
	// encoding as itself.
	f := func(seqsRaw []uint16) bool {
		d := &clientDedup{}
		marked := make(map[uint64]bool)
		var top uint64
		for _, raw := range seqsRaw {
			// 512 seqs next to each other, 128 spots windowCap/4 apart.
			seq := uint64(raw%512) + uint64(raw>>9)*(windowCap/4) + 1
			d.mark(seq)
			marked[seq] = true
			top = max(top, seq)
			checkDedupInvariant(t, d)
		}
		for _, raw := range seqsRaw {
			base := uint64(raw>>9) * (windowCap / 4)
			for seq := base; seq <= base+513; seq++ {
				if d.contains(seq) != (marked[seq] || seq+windowCap <= top) {
					return false
				}
			}
		}
		w := wire.NewWriter(0)
		d.marshalInto(w)
		got, ok := readClientDedup(wire.NewReader(w.Bytes()))
		return ok && got.floor == d.floor && slices.Equal(got.runs, d.runs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// executeAll delivers reqs at r in instances of up to 100 requests and
// again as duplicates, and returns how many operations the application
// executed.
func executeAll(r *Replica, reqs []request) int {
	app := r.app.(*countApp)
	before := app.ops
	for round := 0; round < 2; round++ {
		for rest := reqs; len(rest) > 0; {
			n := min(len(rest), 100)
			r.deliver(&instance{seq: r.lastDelivered + 1, decided: true, reqs: rest[:n]})
			rest = rest[n:]
		}
	}
	return app.ops - before
}

// seqRange returns the requests of client first..last, in order.
func seqRange(client string, first, last uint64) []request {
	var reqs []request
	for s := first; s <= last; s++ {
		reqs = append(reqs, request{ClientID: client, Seq: s, Op: []byte("op")})
	}
	return reqs
}

// A client restarted under the same id numbers its requests from a later
// wall-clock base (see NewClient). Every request of the new session
// executes exactly once: its first ones out of order, as a leader change
// may re-propose them, and more of them than windowCap, so the jump's run
// is absorbed into the floor on the way.
func TestDedupSessionJumpKeepsStragglerHeadroom(t *testing.T) {
	r, err := NewReplica(Config{SelfID: 3, Replicas: ids(4)}, &countApp{}, &sinkConn{addr: ReplicaID(3).Addr()})
	if err != nil {
		t.Fatal(err)
	}
	const old = uint64(1_700_000_000_000_000_000)
	if got := executeAll(r, seqRange("client", old+1, old+50)); got != 50 {
		t.Fatalf("the first session executed %d of its 50 requests", got)
	}
	base := old + 5_000_000_000 // restarted five seconds later
	straggler := seqRange("client", base+1, base+1)
	if got := executeAll(r, seqRange("client", base+2, base+10)); got != 9 {
		t.Fatalf("the new session's first requests executed %d times, want 9", got)
	}
	if got := executeAll(r, straggler); got != 1 {
		t.Fatalf("the new session's displaced first request executed %d times, want 1", got)
	}
	const later = windowCap + 1000
	if got := executeAll(r, seqRange("client", base+11, base+10+later)); got != later {
		t.Fatalf("the new session's next %d requests executed %d times", later, got)
	}
	if got := executeAll(r, straggler); got != 0 {
		t.Fatalf("a request already executed executed again %d times", got)
	}
}

// A straggler within windowCap of its client's highest executed seq, here
// 20,000 below it, still executes exactly once, after the later ones.
func TestStragglerWithinWindowExecutesOnce(t *testing.T) {
	r, err := NewReplica(Config{SelfID: 3, Replicas: ids(4)}, &countApp{}, &sinkConn{addr: ReplicaID(3).Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if got := executeAll(r, seqRange("client", 1, 100)); got != 100 {
		t.Fatalf("executed %d of 100 requests", got)
	}
	if got := executeAll(r, seqRange("client", 102, 20_101)); got != 20_000 {
		t.Fatalf("executed %d of the 20,000 requests after the straggler", got)
	}
	if got := executeAll(r, seqRange("client", 101, 101)); got != 1 {
		t.Fatalf("the straggler executed %d times, want 1", got)
	}
}

// A client with one permanent hole below 20,000 later executed sequences
// costs its checkpoint one run, not 20,000 listed sequences.
func TestPermanentHoleKeepsCheckpointEntrySmall(t *testing.T) {
	r, err := NewReplica(Config{SelfID: 3, Replicas: ids(4)}, &countApp{}, &sinkConn{addr: ReplicaID(3).Addr()})
	if err != nil {
		t.Fatal(err)
	}
	empty := len(r.wrapSnapshot())
	executeAll(r, seqRange("client", 1, 100))
	executeAll(r, seqRange("client", 102, 20_101))
	if entry := len(r.wrapSnapshot()) - empty; entry >= 64 {
		t.Fatalf("the client's checkpoint entry holds %d bytes, want under 64", entry)
	}
}

// A checkpoint written when the executed seqs above a floor were listed
// one by one reads as the same executed set when no two of them are
// adjacent, and is refused as malformed when two are: it never reads as a
// different set.
func TestSparseLayoutCheckpointIsNeverMisread(t *testing.T) {
	const prefix = "00040000000000000001000000010000000100000002000000010000000300000001" +
		"010966652d636c69656e740000000000000064" // one client, fe-client, floor 100
	// Executed above the floor: 102, 103, 104 and 110.
	adjacent := prefix + "04000000000000006600000000000000670000000000000068000000000000006e0100"
	// Executed above the floor: 102, 105 and 1000.
	apart := prefix + "030000000000000066000000000000006900000000000003e80100"
	restore := func(fixture string) (*Replica, error) {
		b, err := hex.DecodeString(fixture)
		if err != nil {
			t.Fatal(err)
		}
		r, _, err := newDurableReplica(t, &fakeLog{}, &DurableState{CheckpointSeq: 4, Checkpoint: b})
		return r, err
	}
	if _, err := restore(adjacent); err == nil || !strings.Contains(err.Error(), "recovered checkpoint at seq 4 is malformed") {
		t.Fatalf("restoring a listed set with adjacent seqs: %v, want the malformed-checkpoint error", err)
	}
	r, err := restore(apart)
	if err != nil {
		t.Fatalf("restoring a listed set with no adjacent seqs: %v", err)
	}
	c := r.clients["fe-client"]
	for s := uint64(1); s <= 1001; s++ {
		if want := s <= 100 || s == 102 || s == 105 || s == 1000; c.contains(s) != want {
			t.Fatalf("seq %d reads as executed %v, want %v", s, !want, want)
		}
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
