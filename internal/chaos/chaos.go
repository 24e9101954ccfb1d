// Package chaos is a scenario harness for the whole ordering stack: it
// composes fault injectors (WAN latency/jitter/loss, partitions,
// crash-restart mid-wave, byzantine dissemination and forged history)
// against continuously-running invariant checkers (deliver continuity,
// verified fetch, persist-watermark monotonicity, durability floors,
// leader-change liveness) over a live cluster under load.
//
// A Scenario is deterministic given its seed: the WAN jitter and loss
// draws, the load payloads, and the fetch probe ranges all derive from
// Scenario.Seed, so a failing run can be replayed. Faults and invariants
// are plain values — tests and examples compose them freely, and the
// registry (Scenarios) names the standard matrix. Every scenario runs one
// durable consensus group behind two frontends: an observer that measures
// and a load frontend that carries the traffic.
package chaos

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/storage/faultfs"
	"repro/internal/transport"
)

// Load shapes the traffic a scenario sustains while faults play out.
type Load struct {
	// Clients is the number of concurrent closed-loop submitters.
	Clients int
	// EnvBytes sizes each envelope payload.
	EnvBytes int
	// Pace is the per-client delay between broadcasts (bounds the rate so
	// short scenarios stay comparable across machines). Zero = 2ms.
	Pace time.Duration
}

// Scenario is one named chaos experiment: a cluster shape, a load, the
// faults to inject, and the invariants that must hold throughout.
type Scenario struct {
	Name        string
	Description string

	// Cluster shape. Zero values pick the harness defaults (4 nodes,
	// blocks of 2, checkpoint every 8 decisions, 2s request timeout).
	Nodes              int
	BlockSize          int
	CheckpointInterval int64
	RequestTimeout     time.Duration
	// RetainBlocks bounds every node's durable blocks per channel (zero
	// retains everything). Scenarios that set it run with live block-store
	// compaction, so joining and backfilling nodes bootstrap from the
	// retention floor instead of genesis — the world NoOverPrune checks.
	RetainBlocks uint64

	// DiskFaults threads a fault-injecting filesystem (faultfs) under every
	// node's storage stack, reachable via Env.FaultFS, so faults can arm
	// bit-rot, fsync failures, ENOSPC, or latency per node mid-run. Off by
	// default: fault-free scenarios run on the real filesystem.
	DiskFaults bool
	// ScrubInterval is each node's background scrub cadence (zero leaves
	// the production default alone for non-disk scenarios; disk-fault
	// scenarios default to 1s so a run actually exercises timed passes).
	ScrubInterval time.Duration

	// Seed drives every random choice in the run (jitter, loss, probe
	// ranges, payloads). Zero selects 42.
	Seed uint64
	// Duration is the fault-injection window (load runs throughout; the
	// runner then quiesces and evaluates final invariants).
	Duration time.Duration

	Load       Load
	Faults     []Fault
	Invariants []Invariant
}

func (s Scenario) withDefaults() Scenario {
	if s.Nodes == 0 {
		s.Nodes = 4
	}
	if s.BlockSize == 0 {
		s.BlockSize = 2
	}
	if s.CheckpointInterval == 0 {
		s.CheckpointInterval = 8
	}
	if s.RequestTimeout == 0 {
		s.RequestTimeout = 2 * time.Second
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	if s.Duration == 0 {
		s.Duration = 5 * time.Second
	}
	if s.Load.Clients == 0 {
		s.Load.Clients = 2
	}
	if s.Load.EnvBytes == 0 {
		s.Load.EnvBytes = 64
	}
	if s.Load.Pace == 0 {
		s.Load.Pace = 2 * time.Millisecond
	}
	if s.DiskFaults && s.ScrubInterval == 0 {
		s.ScrubInterval = time.Second
	}
	return s
}

// Fault is one injector: Run executes on its own goroutine from scenario
// start until the injection window closes (watch e.Done()). A returned
// error is recorded as a violation against the fault's name.
type Fault struct {
	Name string
	Run  func(e *Env) error
}

// Invariant is one continuous checker: Start may spawn goroutines (register
// them with e.Go) that watch the cluster until e.Done(); Stop runs after
// load has quiesced and performs final (possibly polling) assertions.
// Violations are recorded with e.Violate under the invariant's name.
type Invariant struct {
	Name  string
	Start func(e *Env) error
	Stop  func(e *Env)
}

// Env is the running world a scenario's faults and invariants act on.
type Env struct {
	Scenario Scenario
	Network  *transport.InProcNetwork
	Cluster  *core.Cluster
	// Observer is the measurement frontend (f+1 verified-signature
	// release rule); invariants watch the system through it.
	Observer *core.Frontend
	// LoadFE carries the scenario's traffic (2f+1 matching release rule).
	LoadFE *core.Frontend
	// Channel is the one channel the load runs on.
	Channel string
	F       int

	// Metrics is the registry every node/frontend of the run reports into
	// (the runner always instruments chaos clusters so MetricsSane can
	// cross-check gauges against ground truth).
	Metrics *obs.Registry

	done chan struct{}
	wg   sync.WaitGroup

	mu         sync.Mutex
	epochs     []int
	violations map[string][]string

	// canon is the channel's canonical (observer-released) chain.
	canonMu sync.Mutex
	canon   []*fabric.Block

	// faultFS holds the per-node fault-injecting filesystems (set only
	// when Scenario.DiskFaults; indexed like Cluster.Nodes).
	faultFS []*faultfs.FS

	// corrMu guards the at-rest corruption ledger ScrubHeals audits.
	corrMu    sync.Mutex
	corrupted []CorruptionMark

	// ackMu guards the acked-vs-delivered ledger NoSilentLoss audits: a
	// broadcast the load frontend acked must eventually appear in the
	// canonical chain. Delivery can race ahead of the ack bookkeeping, so
	// both sides are recorded and pending = acked minus delivered.
	ackMu        sync.Mutex
	ackPending   map[loadKey]bool
	ackDelivered map[loadKey]bool
}

// CorruptionMark is one at-rest corruption a disk fault injected: node
// index plus the block coordinates whose durable record was damaged.
type CorruptionMark struct {
	Node    int
	Channel string
	Num     uint64
}

// FaultFS returns node i's fault-injecting filesystem, or nil when the
// scenario runs without DiskFaults (or the node joined after startup).
func (e *Env) FaultFS(i int) *faultfs.FS {
	e.mu.Lock()
	defer e.mu.Unlock()
	if i < 0 || i >= len(e.faultFS) {
		return nil
	}
	return e.faultFS[i]
}

// NoteCorrupted records an injected at-rest corruption for ScrubHeals.
func (e *Env) NoteCorrupted(node int, channel string, num uint64) {
	e.corrMu.Lock()
	defer e.corrMu.Unlock()
	e.corrupted = append(e.corrupted, CorruptionMark{Node: node, Channel: channel, Num: num})
}

// CorruptionLedger snapshots the injected at-rest corruptions.
func (e *Env) CorruptionLedger() []CorruptionMark {
	e.corrMu.Lock()
	defer e.corrMu.Unlock()
	return append([]CorruptionMark(nil), e.corrupted...)
}

// noteAcked records a load broadcast the frontend acked. If the envelope
// already delivered (the release can outrun the ack return path) it is
// settled immediately.
func (e *Env) noteAcked(k loadKey) {
	e.ackMu.Lock()
	defer e.ackMu.Unlock()
	if e.ackDelivered[k] {
		return
	}
	e.ackPending[k] = true
}

// noteDelivered settles an envelope observed in the canonical stream.
func (e *Env) noteDelivered(k loadKey) {
	e.ackMu.Lock()
	defer e.ackMu.Unlock()
	e.ackDelivered[k] = true
	delete(e.ackPending, k)
}

// ackedUndelivered counts acked envelopes not yet seen in the canonical
// chain and returns the lowest and highest of them in (client, seq) order
// for the violation message.
func (e *Env) ackedUndelivered() (pending int, lowest, highest loadKey) {
	e.ackMu.Lock()
	defer e.ackMu.Unlock()
	before := func(a, b loadKey) bool {
		return a.client < b.client || a.client == b.client && a.seq < b.seq
	}
	first := true
	for k := range e.ackPending {
		if first || before(k, lowest) {
			lowest = k
		}
		if first || before(highest, k) {
			highest = k
		}
		first = false
	}
	return len(e.ackPending), lowest, highest
}

// progress describes how far every stage of the block path got — each live
// node's ledger height, persist watermark and consensus state, the
// canonical chain, both frontends' release cursors — so that a violation
// about undelivered writes says whether the nodes stopped ordering (and in
// which protocol state), a frontend stopped releasing, or everything moved
// on without the write.
func (e *Env) progress() string {
	var b strings.Builder
	for i := 0; i < e.NodeCount(); i++ {
		n, _ := e.Node(i)
		if n == nil {
			fmt.Fprintf(&b, "node %d down; ", i)
			continue
		}
		height := uint64(0)
		if led := n.Ledger(e.Channel); led != nil {
			height = led.Height()
		}
		fmt.Fprintf(&b, "node %d ledger %d persisted %d {%s}; ", i, height, n.PersistWatermark(e.Channel), consensus.DebugSnapshot(n.Replica()))
	}
	fmt.Fprintf(&b, "canonical height %d, observer released %d, load frontend released %d",
		e.CanonHeight(), e.Observer.ReleasedHeight(e.Channel), e.LoadFE.ReleasedHeight(e.Channel))
	return b.String()
}

// Done closes when the fault-injection window ends; faults and invariant
// watchers must unblock on it.
func (e *Env) Done() <-chan struct{} { return e.done }

// Go runs f on a harness-tracked goroutine; the runner waits for all of
// them before evaluating final invariants.
func (e *Env) Go(f func()) {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		f()
	}()
}

// Violate records an invariant (or fault) violation. The run fails and the
// detail surfaces in the scenario result.
func (e *Env) Violate(name, format string, args ...any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.violations[name] = append(e.violations[name], fmt.Sprintf(format, args...))
}

func (e *Env) violationsFor(name string) []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.violations[name]...)
}

// Node returns node i and its restart epoch (bumped by every KillNode), or
// nil while the node is down. Cluster membership is mutated by crash
// faults, so all node access goes through this guard.
func (e *Env) Node(i int) (*core.OrderingNode, int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.Cluster.Nodes[i], e.epochs[i]
}

// KillNode crashes node i (storage closed, endpoint detached).
func (e *Env) KillNode(i int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.Cluster.KillNode(i)
	e.epochs[i]++
}

// RestartNode recovers a killed node from its data directory.
func (e *Env) RestartNode(i int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.Cluster.RestartNode(i)
}

// NodeCount is the cluster's node-slot count; membership faults (joins,
// replacements) grow it mid-run, so invariants that must cover newcomers
// iterate this instead of Scenario.Nodes.
func (e *Env) NodeCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.Cluster.Nodes)
}

// Members snapshots the cluster's view of the group (removed nodes
// excluded) — the set every live node's membership view must converge to.
func (e *Env) Members() []consensus.ReplicaID {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.Cluster.Replicas()
}

// AddNode grows the cluster by one joining node and returns its index.
// The cluster call blocks until the group ordered the add and every live
// view converged, so e.mu stays held throughout — concurrent Node reads
// simply pause; they cannot observe the slices mid-growth.
func (e *Env) AddNode() (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	i, err := e.Cluster.AddNode()
	for len(e.epochs) < len(e.Cluster.Nodes) {
		e.epochs = append(e.epochs, 0)
	}
	return i, err
}

// ReplaceNode swaps node i for a fresh identity (add first, then graceful
// remove) and returns the successor's index.
func (e *Env) ReplaceNode(i int) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ni, err := e.Cluster.ReplaceNode(i)
	for len(e.epochs) < len(e.Cluster.Nodes) {
		e.epochs = append(e.epochs, 0)
	}
	return ni, err
}

// appendCanon extends the observer-released canonical chain (release is
// in order; out-of-order copies are ignored here — the deliver continuity
// invariant owns that check on its own stream).
func (e *Env) appendCanon(b *fabric.Block) {
	e.canonMu.Lock()
	if b.Header.Number == uint64(len(e.canon)) {
		e.canon = append(e.canon, b)
	}
	e.canonMu.Unlock()
}

// Canon snapshots the canonical (observer-released, f+1-verified) chain.
func (e *Env) Canon() []*fabric.Block {
	e.canonMu.Lock()
	defer e.canonMu.Unlock()
	return append([]*fabric.Block(nil), e.canon...)
}

// CanonHeight is the canonical chain's height.
func (e *Env) CanonHeight() uint64 {
	e.canonMu.Lock()
	defer e.canonMu.Unlock()
	return uint64(len(e.canon))
}

// after waits d within the injection window; false means the window closed
// first.
func after(e *Env, d time.Duration) bool {
	select {
	case <-time.After(d):
		return true
	case <-e.Done():
		return false
	}
}

// frac converts a fraction of the scenario duration into a delay.
func frac(e *Env, f float64) time.Duration {
	return time.Duration(f * float64(e.Scenario.Duration))
}
