package consensus

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/transport"
)

func TestReconfigOpCodec(t *testing.T) {
	op := ReconfigOp{Kind: ReconfigAdd, Replica: 4, Weight: 2}
	encoded := EncodeReconfigOp(op)
	if !IsReconfigOp(encoded) {
		t.Fatal("encoded op not recognized")
	}
	decoded, ok := decodeReconfigOp(encoded)
	if !ok || decoded != op {
		t.Fatalf("round trip = %+v, %v", decoded, ok)
	}
	if IsReconfigOp([]byte("ordinary payload")) {
		t.Fatal("ordinary payload recognized as reconfig")
	}
	if IsReconfigOp(nil) {
		t.Fatal("nil recognized as reconfig")
	}
	// Truncated and bad-kind encodings are rejected.
	if IsReconfigOp(encoded[:len(encoded)-2]) {
		t.Fatal("truncated op accepted")
	}
	bad := EncodeReconfigOp(ReconfigOp{Kind: 9, Replica: 1})
	if IsReconfigOp(bad) {
		t.Fatal("unknown kind accepted")
	}
}

func TestReconfigRemoveReplica(t *testing.T) {
	// Start with 5 replicas (f=1); remove replica 4 through consensus; the
	// remaining 4 keep ordering, and all report the shrunken membership.
	tc := newTestCluster(t, clusterOpts{n: 5})
	client := tc.client(t, "admin")

	for i := 0; i < 5; i++ {
		if err := client.Invoke([]byte(fmt.Sprintf("pre-%d", i))); err != nil {
			t.Fatalf("invoke: %v", err)
		}
	}
	tc.waitAllDelivered(5, 5*time.Second, nil)

	if err := client.Invoke(EncodeReconfigOp(ReconfigOp{Kind: ReconfigRemove, Replica: 4})); err != nil {
		t.Fatalf("reconfig invoke: %v", err)
	}
	waitFor(t, 5*time.Second, "membership shrink", func() bool {
		for i := 0; i < 4; i++ {
			if tc.replicas[i].Stats().Members != 4 {
				return false
			}
		}
		return true
	})
	// The removed node plays no further part; stop it.
	tc.replicas[4].Stop()
	tc.net.Disconnect(ReplicaID(4).Addr())

	for i := 0; i < 5; i++ {
		if err := client.Invoke([]byte(fmt.Sprintf("post-%d", i))); err != nil {
			t.Fatalf("invoke: %v", err)
		}
	}
	skip := map[int]bool{4: true}
	tc.waitAllDelivered(10, 10*time.Second, skip)
	tc.assertSameOrder(skip)

	membership := tc.replicas[0].Membership()
	if len(membership) != 4 {
		t.Fatalf("membership = %v", membership)
	}
	for _, id := range membership {
		if id == 4 {
			t.Fatal("removed replica still a member")
		}
	}
}

func TestReconfigAddReplica(t *testing.T) {
	// Start a 4-replica group, then add replica 4: a freshly started node
	// that already lists the full membership in its static config. It
	// catches up via state transfer and participates.
	tc := newTestCluster(t, clusterOpts{n: 4, checkpointIvl: 4, batchSize: 2})
	client := tc.client(t, "admin")

	for i := 0; i < 8; i++ {
		if err := client.Invoke([]byte(fmt.Sprintf("pre-%d", i))); err != nil {
			t.Fatalf("invoke: %v", err)
		}
	}
	tc.waitAllDelivered(8, 5*time.Second, nil)

	// Order the membership change.
	if err := client.Invoke(EncodeReconfigOp(ReconfigOp{Kind: ReconfigAdd, Replica: 4})); err != nil {
		t.Fatalf("reconfig invoke: %v", err)
	}
	waitFor(t, 5*time.Second, "membership growth", func() bool {
		for i := 0; i < 4; i++ {
			if tc.replicas[i].Stats().Members != 5 {
				return false
			}
		}
		return true
	})

	// Boot the new node with the five-member configuration.
	conn, err := tc.net.Join(ReplicaID(4).Addr())
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	app := &recordApp{}
	rep, err := NewReplica(Config{
		SelfID:             4,
		Replicas:           []ReplicaID{0, 1, 2, 3, 4},
		RequestTimeout:     500 * time.Millisecond,
		BatchTimeout:       2 * time.Millisecond,
		BatchSize:          2,
		CheckpointInterval: 4,
	}, app, conn)
	if err != nil {
		t.Fatalf("new replica: %v", err)
	}
	rep.Start()
	t.Cleanup(rep.Stop)
	tc.replicas = append(tc.replicas, rep)
	tc.apps = append(tc.apps, app)

	// More traffic: the new node must catch up (state transfer) and then
	// execute everything the others execute.
	for i := 0; i < 10; i++ {
		if err := client.Invoke([]byte(fmt.Sprintf("post-%d", i))); err != nil {
			t.Fatalf("invoke: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitFor(t, 15*time.Second, "new node catches up", func() bool {
		return tc.apps[4].opCount() >= 10
	})
	// The suffix ordered after the join must match across all replicas.
	ref := tc.apps[0].opsFlat()
	got := tc.apps[4].opsFlat()
	if len(got) == 0 || len(got) > len(ref) {
		t.Fatalf("new node executed %d ops, reference %d", len(got), len(ref))
	}
	offset := len(ref) - len(got)
	for i := range got {
		if string(got[i]) != string(ref[offset+i]) {
			t.Fatalf("new node diverged at op %d: %q vs %q", i, got[i], ref[offset+i])
		}
	}
}

func TestReconfigIgnoresDuplicates(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{n: 4})
	client := tc.client(t, "admin")
	// Removing a non-member and re-adding an existing member are no-ops.
	if err := client.Invoke(EncodeReconfigOp(ReconfigOp{Kind: ReconfigRemove, Replica: 99})); err != nil {
		t.Fatalf("invoke: %v", err)
	}
	if err := client.Invoke(EncodeReconfigOp(ReconfigOp{Kind: ReconfigAdd, Replica: 2})); err != nil {
		t.Fatalf("invoke: %v", err)
	}
	if err := client.Invoke([]byte("payload")); err != nil {
		t.Fatalf("invoke: %v", err)
	}
	tc.waitAllDelivered(1, 5*time.Second, nil)
	if got := tc.replicas[0].Stats().Members; got != 4 {
		t.Fatalf("membership changed by no-op reconfigs: %d", got)
	}
}

func TestMembershipSnapshotRoundTrip(t *testing.T) {
	net := transport.NewInProcNetwork(transport.InProcConfig{})
	defer net.Close()
	conn, err := net.Join(ReplicaID(0).Addr())
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	rep, err := NewReplica(Config{
		SelfID:   0,
		Replicas: []ReplicaID{0, 1, 2, 3},
	}, &recordApp{}, conn)
	if err != nil {
		t.Fatalf("new replica: %v", err)
	}
	snap := rep.wrapSnapshot()

	conn2, err := net.Join(ReplicaID(1).Addr())
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	rep2, err := NewReplica(Config{
		SelfID:   1,
		Replicas: []ReplicaID{0, 1, 2, 3},
	}, &recordApp{}, conn2)
	if err != nil {
		t.Fatalf("new replica: %v", err)
	}
	if _, ok := rep2.unwrapSnapshot(snap); !ok {
		t.Fatal("snapshot with membership rejected")
	}
	if len(rep2.membership) != 4 {
		t.Fatalf("membership after restore = %v", rep2.membership)
	}
}
