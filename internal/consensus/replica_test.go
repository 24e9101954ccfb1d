package consensus

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/transport"
	"repro/internal/wire"
)

// recordApp is a test application that records every delivered operation
// and snapshots its full history.
type recordApp struct {
	mu     sync.Mutex
	groups []execGroup
}

type execGroup struct {
	seq int64
	ops [][]byte
}

var _ Application = (*recordApp)(nil)

func (a *recordApp) Execute(seq int64, ops [][]byte) {
	a.mu.Lock()
	defer a.mu.Unlock()
	copied := make([][]byte, len(ops))
	for i, op := range ops {
		copied[i] = append([]byte(nil), op...)
	}
	a.groups = append(a.groups, execGroup{seq: seq, ops: copied})
}

func (a *recordApp) Snapshot() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	w := wire.NewWriter(64)
	w.PutUvarint(uint64(len(a.groups)))
	for _, g := range a.groups {
		w.PutInt64(g.seq)
		w.PutBytesSlice(g.ops)
	}
	return w.Bytes()
}

func (a *recordApp) Restore(snapshot []byte, _ int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := wire.NewReader(snapshot)
	n := r.Uvarint()
	groups := make([]execGroup, 0, n)
	for i := uint64(0); i < n; i++ {
		groups = append(groups, execGroup{seq: r.Int64(), ops: r.BytesSlice()})
	}
	if r.Finish() == nil {
		a.groups = groups
	}
}

// ops returns the flattened operation history.
func (a *recordApp) opsFlat() [][]byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out [][]byte
	for _, g := range a.groups {
		out = append(out, g.ops...)
	}
	return out
}

func (a *recordApp) opCount() int {
	return len(a.opsFlat())
}

// testCluster wires n replicas over an in-proc network.
type testCluster struct {
	t        *testing.T
	net      *transport.InProcNetwork
	replicas []*Replica
	apps     []*recordApp
	conns    []transport.Conn
	logs     []*fakeLog // per replica, when clusterOpts.durable
}

type clusterOpts struct {
	n              int
	weights        map[ReplicaID]int
	requestTimeout time.Duration
	checkpointIvl  int64
	batchSize      int
	withKeys       bool
	batchTimeout   time.Duration
	latency        time.Duration // fixed one-way delay of every link (0: instantaneous)
	durable        bool          // attach a fakeLog durability backend to every replica
	unit           int           // > 0: every replica's application is a unitApp of this unit
}

func newTestCluster(t *testing.T, opts clusterOpts) *testCluster {
	t.Helper()
	if opts.requestTimeout == 0 {
		opts.requestTimeout = 500 * time.Millisecond
	}
	if opts.checkpointIvl == 0 {
		opts.checkpointIvl = 1 << 20 // effectively off unless requested
	}
	if opts.batchSize == 0 {
		opts.batchSize = 16
	}
	if opts.batchTimeout == 0 {
		opts.batchTimeout = 2 * time.Millisecond
	}
	net := transport.NewInProcNetwork(transport.InProcConfig{Latency: transport.FixedLatency(opts.latency)})
	tc := &testCluster{t: t, net: net}
	members := ids(opts.n)

	var registry *cryptoutil.Registry
	keys := make(map[ReplicaID]*cryptoutil.KeyPair)
	if opts.withKeys {
		registry = cryptoutil.NewRegistry()
		for _, id := range members {
			kp, err := cryptoutil.GenerateKeyPair()
			if err != nil {
				t.Fatalf("keygen: %v", err)
			}
			keys[id] = kp
			registry.Register(replicaIdentity(id), kp.Public())
		}
	}

	for _, id := range members {
		conn, err := net.Join(id.Addr())
		if err != nil {
			t.Fatalf("join %v: %v", id, err)
		}
		app := &recordApp{}
		var replicaApp Application = app
		if opts.unit > 0 {
			ua := &unitApp{unit: opts.unit}
			app, replicaApp = &ua.recordApp, ua
		}
		cfg := Config{
			SelfID:             id,
			Replicas:           members,
			Weights:            opts.weights,
			RequestTimeout:     opts.requestTimeout,
			BatchTimeout:       opts.batchTimeout,
			BatchSize:          opts.batchSize,
			CheckpointInterval: opts.checkpointIvl,
			Key:                keys[id],
			Registry:           registry,
		}
		var replicaOpts []Option
		if opts.durable {
			log := &fakeLog{}
			tc.logs = append(tc.logs, log)
			replicaOpts = append(replicaOpts, WithDurability(log, &DurableState{CheckpointSeq: -1}))
		}
		rep, err := NewReplica(cfg, replicaApp, conn, replicaOpts...)
		if err != nil {
			t.Fatalf("new replica %v: %v", id, err)
		}
		tc.replicas = append(tc.replicas, rep)
		tc.apps = append(tc.apps, app)
		tc.conns = append(tc.conns, conn)
	}
	for _, rep := range tc.replicas {
		rep.Start()
	}
	t.Cleanup(tc.stop)
	return tc
}

func (tc *testCluster) stop() {
	for _, rep := range tc.replicas {
		rep.Stop()
	}
	tc.net.Close()
}

func (tc *testCluster) client(t *testing.T, name string) *Client {
	t.Helper()
	conn, err := tc.net.Join(transport.Addr(name))
	if err != nil {
		t.Fatalf("join client: %v", err)
	}
	c, err := NewClient(conn, ClientConfig{Replicas: ids(len(tc.replicas))})
	if err != nil {
		t.Fatalf("new client: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// waitFor polls until cond is true or the deadline passes.
func waitFor(t *testing.T, within time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waitAllDelivered waits until every live replica has executed want ops.
func (tc *testCluster) waitAllDelivered(want int, within time.Duration, skip map[int]bool) {
	tc.t.Helper()
	waitFor(tc.t, within, fmt.Sprintf("%d ops delivered everywhere", want), func() bool {
		for i, app := range tc.apps {
			if skip[i] {
				continue
			}
			if app.opCount() < want {
				return false
			}
		}
		return true
	})
}

// assertSameOrder verifies that all live replicas executed identical
// operation sequences (total order), and that the sequence contains exactly
// the given ops when expected is non-nil.
func (tc *testCluster) assertSameOrder(skip map[int]bool) {
	tc.t.Helper()
	var reference [][]byte
	refIdx := -1
	for i, app := range tc.apps {
		if skip[i] {
			continue
		}
		ops := app.opsFlat()
		if refIdx == -1 {
			reference = ops
			refIdx = i
			continue
		}
		if len(ops) != len(reference) {
			tc.t.Fatalf("replica %d executed %d ops, replica %d executed %d",
				i, len(ops), refIdx, len(reference))
		}
		for j := range ops {
			if !bytes.Equal(ops[j], reference[j]) {
				tc.t.Fatalf("divergent op %d: replica %d has %q, replica %d has %q",
					j, i, ops[j], refIdx, reference[j])
			}
		}
	}
}

func TestOrderingBasic(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{n: 4})
	client := tc.client(t, "client-1")

	const total = 50
	for i := 0; i < total; i++ {
		if err := client.Invoke([]byte(fmt.Sprintf("op-%03d", i))); err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
	}
	tc.waitAllDelivered(total, 5*time.Second, nil)
	tc.assertSameOrder(nil)

	// Per-client FIFO: ops from one client must appear in submission order.
	ops := tc.apps[0].opsFlat()
	for i := 1; i < len(ops); i++ {
		if string(ops[i-1]) >= string(ops[i]) {
			t.Fatalf("client order violated: %q before %q", ops[i-1], ops[i])
		}
	}
}

func TestOrderingSevenReplicas(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{n: 7})
	client := tc.client(t, "client-1")
	const total = 30
	for i := 0; i < total; i++ {
		if err := client.Invoke([]byte(fmt.Sprintf("op-%03d", i))); err != nil {
			t.Fatalf("invoke: %v", err)
		}
	}
	tc.waitAllDelivered(total, 5*time.Second, nil)
	tc.assertSameOrder(nil)
}

func TestOrderingMultipleClients(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{n: 4})
	const clients, each = 4, 20
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		client := tc.client(t, fmt.Sprintf("client-%d", c))
		wg.Add(1)
		go func(cl *Client, c int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := cl.Invoke([]byte(fmt.Sprintf("c%d-op%d", c, i))); err != nil {
					t.Errorf("invoke: %v", err)
					return
				}
			}
		}(client, c)
	}
	wg.Wait()
	tc.waitAllDelivered(clients*each, 10*time.Second, nil)
	tc.assertSameOrder(nil)
}

func TestDuplicateRequestsExecutedOnce(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{n: 4})
	conn, err := tc.net.Join("raw-client")
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	payload := EncodeRequest("raw-client", 1, []byte("only-once"))
	// Send the identical request several times to every replica.
	for round := 0; round < 3; round++ {
		for _, id := range ids(4) {
			conn.Send(id.Addr(), msgRequest, payload)
		}
		time.Sleep(20 * time.Millisecond)
	}
	tc.waitAllDelivered(1, 5*time.Second, nil)
	time.Sleep(100 * time.Millisecond) // allow any duplicates to surface
	for i, app := range tc.apps {
		if n := app.opCount(); n != 1 {
			t.Fatalf("replica %d executed %d copies", i, n)
		}
	}
}

// A replica pools a frame only from the client it names. Here another
// endpoint sends one request under victim's id, two sequences ahead of
// victim's next, with an op of its own: it is ordered nowhere, and every
// one of victim's requests, the one at that sequence too, is ordered once.
func TestFrameUnderAnotherClientsNameIsOrderedNowhere(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{n: 4})
	victim := tc.client(t, "victim")
	invoke := func(from, to int) {
		for i := from; i < to; i++ {
			if err := victim.Invoke([]byte(fmt.Sprintf("victim-%d", i))); err != nil {
				t.Fatalf("invoke %d: %v", i, err)
			}
		}
	}
	invoke(0, 5)
	tc.waitAllDelivered(5, 5*time.Second, nil)
	victim.mu.Lock()
	next := victim.nextSeq + 1
	victim.mu.Unlock()
	impostor, err := tc.net.Join("impostor")
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	forged := EncodeRequest("victim", next+2, []byte("forged"))
	for _, id := range ids(4) {
		impostor.Send(id.Addr(), msgRequest, forged)
	}
	time.Sleep(50 * time.Millisecond)
	invoke(5, 10)
	tc.waitAllDelivered(10, 5*time.Second, nil)
	time.Sleep(100 * time.Millisecond) // let anything else surface
	for i, app := range tc.apps {
		ops := app.opsFlat()
		if len(ops) != 10 {
			t.Fatalf("replica %d ordered %d ops, want victim's 10", i, len(ops))
		}
		for j, op := range ops {
			if want := fmt.Sprintf("victim-%d", j); string(op) != want {
				t.Fatalf("replica %d ordered %q at %d, want %q", i, op, j, want)
			}
		}
	}
}

func TestCrashFollowerProgress(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{n: 4})
	// Crash a follower (replica 3): n-1 = 3 replicas remain, which still
	// meets the quorum of 3 for n=4.
	tc.replicas[3].Stop()
	tc.net.Disconnect(ReplicaID(3).Addr())

	client := tc.client(t, "client-1")
	const total = 20
	for i := 0; i < total; i++ {
		if err := client.Invoke([]byte(fmt.Sprintf("op-%d", i))); err != nil {
			t.Fatalf("invoke: %v", err)
		}
	}
	skip := map[int]bool{3: true}
	tc.waitAllDelivered(total, 5*time.Second, skip)
	tc.assertSameOrder(skip)
}

func TestCrashLeaderTriggersLeaderChange(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{n: 4, requestTimeout: 300 * time.Millisecond})
	// Replica 0 leads regency 0. Crash it before any request.
	tc.replicas[0].Stop()
	tc.net.Disconnect(ReplicaID(0).Addr())

	client := tc.client(t, "client-1")
	const total = 10
	for i := 0; i < total; i++ {
		if err := client.Invoke([]byte(fmt.Sprintf("op-%d", i))); err != nil {
			t.Fatalf("invoke: %v", err)
		}
	}
	skip := map[int]bool{0: true}
	tc.waitAllDelivered(total, 10*time.Second, skip)
	tc.assertSameOrder(skip)
	for i := 1; i < 4; i++ {
		if reg := tc.replicas[i].Stats().Regency; reg < 1 {
			t.Fatalf("replica %d still in regency %d", i, reg)
		}
	}
}

func TestCrashLeaderMidStream(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{n: 4, requestTimeout: 300 * time.Millisecond})
	client := tc.client(t, "client-1")

	const before, after = 15, 15
	for i := 0; i < before; i++ {
		if err := client.Invoke([]byte(fmt.Sprintf("pre-%02d", i))); err != nil {
			t.Fatalf("invoke: %v", err)
		}
	}
	tc.waitAllDelivered(before, 5*time.Second, nil)

	tc.replicas[0].Stop()
	tc.net.Disconnect(ReplicaID(0).Addr())

	for i := 0; i < after; i++ {
		if err := client.Invoke([]byte(fmt.Sprintf("post-%02d", i))); err != nil {
			t.Fatalf("invoke: %v", err)
		}
	}
	skip := map[int]bool{0: true}
	tc.waitAllDelivered(before+after, 10*time.Second, skip)
	tc.assertSameOrder(skip)
}

func TestByzantineLeaderCorruptPropose(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{n: 4, requestTimeout: 300 * time.Millisecond, withKeys: true})
	tc.replicas[0].SetBehavior(Behavior{CorruptPropose: true})

	client := tc.client(t, "client-1")
	const total = 10
	for i := 0; i < total; i++ {
		if err := client.Invoke([]byte(fmt.Sprintf("op-%d", i))); err != nil {
			t.Fatalf("invoke: %v", err)
		}
	}
	// Honest replicas refuse the corrupt proposals, time out, change
	// leader, and order the requests under the new regency.
	skip := map[int]bool{0: true}
	tc.waitAllDelivered(total, 10*time.Second, skip)
	tc.assertSameOrder(skip)
}

func TestByzantineLeaderEquivocation(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{n: 4, requestTimeout: 300 * time.Millisecond, withKeys: true})
	tc.replicas[0].SetBehavior(Behavior{Equivocate: true})

	client := tc.client(t, "client-1")
	const total = 10
	for i := 0; i < total; i++ {
		if err := client.Invoke([]byte(fmt.Sprintf("op-%d", i))); err != nil {
			t.Fatalf("invoke: %v", err)
		}
	}
	skip := map[int]bool{0: true}
	tc.waitAllDelivered(total, 10*time.Second, skip)
	tc.assertSameOrder(skip)
}

func TestMuteLeaderRecovers(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{n: 4, requestTimeout: 300 * time.Millisecond})
	tc.replicas[0].SetBehavior(Behavior{Mute: true})

	client := tc.client(t, "client-1")
	const total = 8
	for i := 0; i < total; i++ {
		if err := client.Invoke([]byte(fmt.Sprintf("op-%d", i))); err != nil {
			t.Fatalf("invoke: %v", err)
		}
	}
	skip := map[int]bool{0: true}
	tc.waitAllDelivered(total, 10*time.Second, skip)
	tc.assertSameOrder(skip)
}

func TestCheckpointTruncatesLog(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{n: 4, checkpointIvl: 4, batchSize: 1})
	client := tc.client(t, "client-1")
	const total = 30
	for i := 0; i < total; i++ {
		if err := client.Invoke([]byte(fmt.Sprintf("op-%02d", i))); err != nil {
			t.Fatalf("invoke: %v", err)
		}
	}
	tc.waitAllDelivered(total, 10*time.Second, nil)
	// With batch size 1, 30 ops mean ~30 instances and several checkpoint
	// rounds; the decided log must stay bounded by the interval plus the
	// in-flight window rather than growing with history.
	waitFor(t, 5*time.Second, "log truncation", func() bool {
		for _, rep := range tc.replicas {
			if rep.Stats().LastDelivered < total-1 {
				return false
			}
		}
		return true
	})
	time.Sleep(50 * time.Millisecond)
	for i, rep := range tc.replicas {
		var logLen int
		var cp int64
		if !rep.Inspect(func() {
			logLen = len(rep.decidedLog)
			cp = rep.checkpointSeq
		}) {
			t.Fatalf("replica %d stopped", i)
		}
		if cp < 0 {
			t.Fatalf("replica %d never checkpointed", i)
		}
		if logLen > 16 {
			t.Fatalf("replica %d decided log holds %d entries after checkpoints", i, logLen)
		}
	}
}

func TestLaggingReplicaStateTransfer(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{n: 4, checkpointIvl: 4, batchSize: 1})
	// Partition replica 3 away from everyone.
	lagged := ReplicaID(3).Addr()
	others := []transport.Addr{ReplicaID(0).Addr(), ReplicaID(1).Addr(), ReplicaID(2).Addr()}
	tc.net.Partition([]transport.Addr{lagged}, others)

	client := tc.client(t, "client-1")
	const total = 40
	for i := 0; i < total; i++ {
		if err := client.Invoke([]byte(fmt.Sprintf("op-%02d", i))); err != nil {
			t.Fatalf("invoke: %v", err)
		}
	}
	skip := map[int]bool{3: true}
	tc.waitAllDelivered(total, 10*time.Second, skip)

	// Heal the partition and send more traffic so replica 3 observes the
	// gap and performs a state transfer.
	tc.net.Heal()
	for i := 0; i < 5; i++ {
		if err := client.Invoke([]byte(fmt.Sprintf("extra-%d", i))); err != nil {
			t.Fatalf("invoke: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	tc.waitAllDelivered(total+5, 15*time.Second, nil)
	tc.assertSameOrder(nil)
}

// assertDecidedAll requires that every live replica decided each instance it
// delivered: WHEAT changes the votes, not the rule that an instance executes
// once it is decided.
func (tc *testCluster) assertDecidedAll(skip map[int]bool) {
	tc.t.Helper()
	for i, rep := range tc.replicas {
		if skip[i] {
			continue
		}
		if s := rep.Stats(); s.Decided < s.LastDelivered+1 {
			tc.t.Fatalf("replica %d delivered instances up to %d but decided %d", i, s.LastDelivered, s.Decided)
		}
	}
}

func TestWeightedOrdering(t *testing.T) {
	weights, err := BinaryWeights(ids(5), 1, 1, []ReplicaID{0, 1})
	if err != nil {
		t.Fatalf("weights: %v", err)
	}
	tc := newTestCluster(t, clusterOpts{n: 5, weights: weights})
	client := tc.client(t, "client-1")

	const total = 40
	for i := 0; i < total; i++ {
		if err := client.Invoke([]byte(fmt.Sprintf("op-%02d", i))); err != nil {
			t.Fatalf("invoke: %v", err)
		}
	}
	tc.waitAllDelivered(total, 10*time.Second, nil)
	tc.assertSameOrder(nil)
	tc.assertDecidedAll(nil)
}

// TestWeightedCrashLeaderNoLoss crashes WHEAT's leader, a V_max replica:
// the other V_max replica and the three V_min ones still make up a quorum
// weight, elect a new leader and order every request once.
func TestWeightedCrashLeaderNoLoss(t *testing.T) {
	weights, err := BinaryWeights(ids(5), 1, 1, []ReplicaID{0, 4})
	if err != nil {
		t.Fatalf("weights: %v", err)
	}
	tc := newTestCluster(t, clusterOpts{n: 5, weights: weights, requestTimeout: 300 * time.Millisecond})
	client := tc.client(t, "client-1")

	const before, after = 10, 10
	for i := 0; i < before; i++ {
		if err := client.Invoke([]byte(fmt.Sprintf("pre-%02d", i))); err != nil {
			t.Fatalf("invoke: %v", err)
		}
	}
	tc.waitAllDelivered(before, 5*time.Second, nil)
	tc.replicas[0].Stop()
	tc.net.Disconnect(ReplicaID(0).Addr())
	for i := 0; i < after; i++ {
		if err := client.Invoke([]byte(fmt.Sprintf("post-%02d", i))); err != nil {
			t.Fatalf("invoke: %v", err)
		}
	}
	skip := map[int]bool{0: true}
	tc.waitAllDelivered(before+after, 10*time.Second, skip)
	tc.assertSameOrder(skip)
	tc.assertDecidedAll(skip)
	if reg := tc.replicas[1].Stats().Regency; reg < 1 {
		t.Fatalf("regency %d after the leader crashed", reg)
	}
}

func TestStatsProgress(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{n: 4})
	client := tc.client(t, "client-1")
	for i := 0; i < 10; i++ {
		if err := client.Invoke([]byte{byte(i)}); err != nil {
			t.Fatalf("invoke: %v", err)
		}
	}
	tc.waitAllDelivered(10, 5*time.Second, nil)
	s := tc.replicas[0].Stats()
	if s.DeliveredOps < 10 || s.Decided < 1 {
		t.Fatalf("stats not progressing: %+v", s)
	}
}
