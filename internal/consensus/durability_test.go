package consensus

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// fakeToken is a decision token whose state the test sets up front.
type fakeToken struct {
	done bool
	err  error
}

func (t fakeToken) Wait() error { return t.err }
func (t fakeToken) Done() bool  { return t.done }

// fakeLog is an in-memory Durability backend recording, in call order,
// everything the replica asks of it.
type fakeLog struct {
	mu       sync.Mutex
	events   []string // "decision:<seq>", "ckpt-sync:<seq>", "ckpt-async:<seq>"
	tok      fakeToken
	syncFail error // returned by SaveCheckpoint
}

var _ Durability = (*fakeLog)(nil)

func (l *fakeLog) record(kind string, seq int64) {
	l.mu.Lock()
	l.events = append(l.events, fmt.Sprintf("%s:%d", kind, seq))
	l.mu.Unlock()
}

func (l *fakeLog) AppendDecision(seq int64, _ *Batch) DecisionToken {
	l.record("decision", seq)
	return l.tok
}

func (l *fakeLog) SaveCheckpoint(seq int64, _ []byte) error {
	if l.syncFail != nil {
		return l.syncFail
	}
	l.record("ckpt-sync", seq)
	return nil
}

func (l *fakeLog) SaveCheckpointAsync(seq int64, _ []byte) { l.record("ckpt-async", seq) }

func (l *fakeLog) recorded() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.events...)
}

// newDurableReplica builds an unstarted single-member replica over the
// given backend. With no event loop running, the test goroutine may call
// the replica's loop-confined methods directly.
func newDurableReplica(t *testing.T, log Durability, state *DurableState) (*Replica, *recordApp, error) {
	t.Helper()
	net := transport.NewInProcNetwork(transport.InProcConfig{})
	t.Cleanup(func() { net.Close() })
	return newDurableReplicaOn(t, net, log, state)
}

func newDurableReplicaOn(t *testing.T, net *transport.InProcNetwork, log Durability, state *DurableState) (*Replica, *recordApp, error) {
	t.Helper()
	conn, err := net.Join(ReplicaID(0).Addr())
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	app := &recordApp{}
	r, err := NewReplica(Config{SelfID: 0, Replicas: ids(1)}, app, conn, WithDurability(log, state))
	return r, app, err
}

// requestBatch is a decided batch of one client request carrying op.
func requestBatch(seq uint64, op string) [][]byte {
	return logEntries([]request{{ClientID: "client", Seq: seq, Op: []byte(op)}})
}

// logEntries is the batch reqs as the decision log's entries: its runs.
func logEntries(reqs []request) [][]byte {
	var b Batch
	b.set(reqs)
	entries := make([][]byte, b.Len())
	for i := range entries {
		w := wire.NewWriter(b.EntrySize(i))
		b.PutEntry(w, i)
		entries[i] = w.Bytes()
	}
	return entries
}

// Recovery replays the batch that was decided or nothing: a logged batch
// with an entry that does not read as a run stops the replica's
// construction with an error naming the decision, instead of replaying the
// batch without it.
func TestRecoveryRefusesAnUndecodableEntry(t *testing.T) {
	good := logEntries([]request{{ClientID: "client", Seq: 1, Op: []byte("a")}})
	empty := wire.NewWriter(0)
	putRunHead(empty, "client", 2, 0)
	for name, bad := range map[string][]byte{
		"truncated":    good[0][:len(good[0])-1],
		"garbage":      {0xde, 0xad},
		"empty run":    empty.Bytes(),
		"trailing":     append(append([]byte(nil), good[0]...), 0),
		"continuation": logEntries([]request{{ClientID: "client", Seq: 2, Op: []byte("b")}})[0],
	} {
		state := &DurableState{CheckpointSeq: -1, Decisions: []DurableEntry{
			{Seq: 0, Batch: requestBatch(7, "x")},
			{Seq: 1, Batch: [][]byte{good[0], bad}},
		}}
		_, app, err := newDurableReplica(t, &fakeLog{}, state)
		if err == nil || !strings.Contains(err.Error(), "seq 1") {
			t.Fatalf("%s: a logged batch with an undecodable entry recovered (err %v, executed %d ops)", name, err, len(app.opsFlat()))
		}
	}
}

func TestLogDecisionIsDenseAndInOrder(t *testing.T) {
	log := &fakeLog{}
	r, _, err := newDurableReplica(t, log, &DurableState{CheckpointSeq: -1})
	if err != nil {
		t.Fatalf("new replica: %v", err)
	}
	r.logDecision(0, nil)
	r.logDecision(1, nil)
	r.logDecision(1, nil) // a second call site seeing the same instance
	r.logDecision(3, nil) // not the next one the log expects: would leave a gap
	r.logDecision(2, nil)
	r.logDecision(0, nil) // long since logged
	want := []string{"decision:0", "decision:1", "decision:2"}
	if got := log.recorded(); !reflect.DeepEqual(got, want) {
		t.Fatalf("backend saw %v, want %v", got, want)
	}
	if r.durableSeq != 2 {
		t.Fatalf("durableSeq = %d, want 2", r.durableSeq)
	}
}

func TestLogCheckpointRoutineIsBackgroundBridgingIsSynchronous(t *testing.T) {
	log := &fakeLog{}
	r, _, err := newDurableReplica(t, log, &DurableState{CheckpointSeq: -1})
	if err != nil {
		t.Fatalf("new replica: %v", err)
	}
	for seq := int64(0); seq < 3; seq++ {
		r.logDecision(seq, nil)
	}
	// Routine: every decision through seq 2 is already in the log.
	r.logCheckpoint(2, []byte("snap"))
	// Bridging: a state-transfer jump to seq 10 over decisions this
	// replica never logged. It must be on disk — the synchronous save
	// returned — before the next decision record is enqueued.
	r.logCheckpoint(10, []byte("snap"))
	r.logDecision(11, nil)
	want := []string{
		"decision:0", "decision:1", "decision:2",
		"ckpt-async:2", "ckpt-sync:10", "decision:11",
	}
	if got := log.recorded(); !reflect.DeepEqual(got, want) {
		t.Fatalf("backend saw %v, want %v", got, want)
	}

	// A bridging save that fails must not advance the durable frontier:
	// logging seq 21 on top of it would leave a gap on disk.
	log.syncFail = errors.New("disk gone")
	r.logCheckpoint(20, []byte("snap"))
	r.logDecision(21, nil)
	if got := log.recorded(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after a failed bridging save the backend saw %v, want %v", got, want)
	}
	if r.durableSeq != 11 {
		t.Fatalf("durableSeq = %d, want 11", r.durableSeq)
	}
}

func TestRestoreDurableReplaysCheckpointAndSuffix(t *testing.T) {
	// A donor replica that executed seqs 0..4 supplies the checkpoint.
	donor, _, err := newDurableReplica(t, &fakeLog{}, &DurableState{
		CheckpointSeq: -1,
		Decisions: []DurableEntry{
			{Seq: 0, Batch: requestBatch(1, "a")}, {Seq: 1, Batch: requestBatch(2, "b")},
			{Seq: 2, Batch: requestBatch(3, "c")}, {Seq: 3, Batch: requestBatch(4, "d")},
			{Seq: 4, Batch: requestBatch(5, "e")},
		},
	})
	if err != nil {
		t.Fatalf("donor: %v", err)
	}
	checkpoint := donor.wrapSnapshot()

	log := &fakeLog{}
	r, app, err := newDurableReplica(t, log, &DurableState{
		CheckpointSeq: 4,
		Checkpoint:    checkpoint,
		Decisions: []DurableEntry{
			{Seq: 3, Batch: requestBatch(4, "d")}, // behind the checkpoint: pruning had not caught up
			{Seq: 4, Batch: requestBatch(5, "e")},
			{Seq: 5, Batch: requestBatch(6, "f")},
			{Seq: 6, Batch: requestBatch(7, "g")},
		},
	})
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	var got []string
	for _, op := range app.opsFlat() {
		got = append(got, string(op))
	}
	if want := []string{"a", "b", "c", "d", "e", "f", "g"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("application holds %v after restore, want %v", got, want)
	}
	if r.lastDelivered != 6 || r.checkpointSeq != 4 || r.durableSeq != 6 {
		t.Fatalf("lastDelivered=%d checkpointSeq=%d durableSeq=%d, want 6, 4, 6",
			r.lastDelivered, r.checkpointSeq, r.durableSeq)
	}
	// Replayed decisions are already on disk: none may be logged again,
	// and the log resumes right after them.
	if got := log.recorded(); len(got) != 0 {
		t.Fatalf("replay re-logged %v", got)
	}
	r.logDecision(6, nil)
	r.logDecision(7, nil)
	if got, want := log.recorded(), []string{"decision:7"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after restore the backend saw %v, want %v", got, want)
	}

	// A hole in the logged suffix is corruption, not something to skip.
	_, _, err = newDurableReplica(t, &fakeLog{}, &DurableState{
		CheckpointSeq: 4,
		Checkpoint:    checkpoint,
		Decisions: []DurableEntry{
			{Seq: 5, Batch: requestBatch(6, "f")},
			{Seq: 7, Batch: requestBatch(8, "h")},
		},
	})
	if err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("restore over a decision-log gap = %v, want a gap error", err)
	}
	// So is a checkpoint that does not decode.
	_, _, err = newDurableReplica(t, &fakeLog{}, &DurableState{CheckpointSeq: 4, Checkpoint: []byte{0xff}})
	if err == nil {
		t.Fatal("restore accepted a malformed checkpoint")
	}
}

// TestFailedDecisionTokenReportedOnceFromEventLoop runs a replica whose
// log fails every decision record: the loop must keep ordering (it never
// waits on a token) and report the failure exactly once.
func TestFailedDecisionTokenReportedOnceFromEventLoop(t *testing.T) {
	// The report goes to os.Stderr. The swap happens before the replica's
	// goroutines start and is undone after they exited, so it is ordered
	// against their reads of the variable.
	capture, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = capture
	defer func() { os.Stderr = stderr }()

	net := transport.NewInProcNetwork(transport.InProcConfig{})
	defer net.Close()
	log := &fakeLog{tok: fakeToken{done: true, err: errors.New("log poisoned")}}
	r, app, err := newDurableReplicaOn(t, net, log, &DurableState{CheckpointSeq: -1})
	if err != nil {
		t.Fatalf("new replica: %v", err)
	}
	r.Start()
	clientConn, err := net.Join("client")
	if err != nil {
		t.Fatalf("join client: %v", err)
	}
	client, err := NewClient(clientConn, ClientConfig{Replicas: ids(1)})
	if err != nil {
		t.Fatalf("new client: %v", err)
	}
	// Each op is submitted only once the previous one executed, so every
	// op is a decision of its own.
	const ops = 5
	for i := 0; i < ops; i++ {
		if err := client.Invoke([]byte{byte(i)}); err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
		waitFor(t, 5*time.Second, fmt.Sprintf("op %d executed", i), func() bool {
			return app.opCount() > i
		})
	}
	client.Close()
	r.Stop()
	os.Stderr = stderr

	if got := app.opCount(); got != ops {
		t.Fatalf("executed %d ops, want %d (the loop must not stall on a failed log)", got, ops)
	}
	if got := len(log.recorded()); got < 2 {
		t.Fatalf("only %d decisions were logged; the failure is polled on the next append", got)
	}
	out, err := os.ReadFile(capture.Name())
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(out), "decision log failed"); got != 1 {
		t.Fatalf("failure reported %d times, want once; stderr:\n%s", got, out)
	}
}
