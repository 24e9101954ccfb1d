// Package core implements the paper's contribution: the BFT-SMaRt ordering
// service for Hyperledger Fabric (Section 5, Figures 4-5).
//
// An OrderingNode is a BFT-SMaRt service replica that receives the totally
// ordered stream of envelopes, demultiplexes it into per-channel block
// cutters, seals block headers sequentially on the node thread, signs them
// on a parallel signing pool, and pushes the signed blocks to every
// registered frontend through a custom replier (instead of replying to the
// submitting client): f+1 nodes push a block whole, the others its header
// and their signature.
//
// A Frontend is the HLF consenter + BFT shim pair: it relays envelopes into
// the ordering cluster via an asynchronous BFT-SMaRt client invocation and
// collects blocks from the nodes, releasing each block once 2f+1 nodes
// voted for its header (or f+1 verified signatures did - footnote 8 of the
// paper) and one copy brought the body that hashes to it. A copy the push
// loses is sent again from the ledger when the frontend, its release
// cursor stalled, re-registers from that cursor.
package core

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/consensus"
	"repro/internal/cryptoutil"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/storage/retention"
	"repro/internal/storage/vfs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Transport message types of the ordering-service layer (>= 64 so they
// never collide with the consensus layer on a shared endpoint).
const (
	// MsgBlock carries a signed block from an ordering node to a frontend.
	MsgBlock uint16 = 64 + iota
	// MsgRegister subscribes a frontend to a node's live block
	// dissemination; a node that did not know the frontend first resends
	// its recent blocks of every channel (recentBlocks). A fetch request as
	// payload (channel and From only) also asks for a replay from From as
	// ordinary MsgBlock frames.
	MsgRegister
	// MsgUnregister removes the subscription.
	MsgUnregister
	// MsgFetchRequest asks a node for a range of sealed blocks from its
	// durable ledger (historical Deliver seeks, restart back-fill).
	MsgFetchRequest
	// MsgFetchResponse answers a fetch request with a contiguous run of
	// blocks.
	MsgFetchResponse
)

// ttcClientPrefix marks time-to-cut marker envelopes; their envelope
// ClientID is "ttc:<node id>". TTC markers flow through consensus like
// ordinary envelopes (see OrderingNode.submit), which keeps timeout-based
// block cutting deterministic across nodes.
const ttcClientPrefix = "ttc:"

// NodeConfig parameterizes an ordering node.
type NodeConfig struct {
	// Consensus configures the underlying replica (membership, batch
	// size, weights, ...). SelfID names this node.
	Consensus consensus.Config
	// BlockSize is the number of envelopes per block (10 or 100 in the
	// paper's evaluation).
	BlockSize int
	// BlockTimeout cuts partial blocks via ordered time-to-cut markers;
	// zero disables timeout cutting (the paper's benchmarks drive full
	// blocks).
	BlockTimeout time.Duration
	// SigningWorkers sizes the signing/sending pool (16 in the paper,
	// matching the testbed's hardware threads).
	SigningWorkers int
	// DisableSigning skips Ed25519 block signatures entirely (blocks are
	// disseminated unsigned). Used by the Equation (1) ablation to measure
	// the raw ordering rate TP_bftsmart in isolation.
	DisableSigning bool
	// Key signs block headers. Required unless DisableSigning is set.
	Key *cryptoutil.KeyPair
	// DataDir, when non-empty, makes the node durable: NewNode opens
	// storage rooted at this directory (Stop closes it), decided batches
	// are write-ahead logged before their blocks leave the node, sealed
	// blocks and consensus checkpoints are persisted, and construction
	// recovers ledger + consensus state from disk. Empty keeps the node
	// fully in-memory.
	DataDir string
	// WALSegmentBytes overrides the unified commit log's segment size of
	// storage opened via DataDir; zero keeps the 4 MiB default. Decisions
	// and blocks share one physical log, so this is both the
	// checkpoint-pruning and the retention-compaction granularity: a
	// segment is reclaimed only once it is behind the consensus
	// checkpoint AND below every channel's retention floor.
	WALSegmentBytes int64
	// CommitSyncHook, when set, runs at the start of every commit wave
	// of storage opened via DataDir. Test instrumentation: stalling it
	// keeps every enqueued record non-durable, which is how the
	// write-ahead gating tests hold blocks at the dissemination gate.
	CommitSyncHook func()
	// RetainBlocks bounds the durable blocks retained per channel: once a
	// channel's ledger grows past it, the node snapshots a retention
	// manifest and drops whole block-WAL segments below the floor. Seeks
	// below the floor answer the pruned status. Zero retains everything.
	RetainBlocks uint64
	// RetainBytes bounds the block store's total on-disk size: when
	// exceeded, each channel is trimmed back to its weighted share of
	// the budget (see RetainWeights). Zero disables the bytes trigger.
	RetainBytes int64
	// RetainWeights biases the RetainBytes budget across channels:
	// channel c keeps RetainBytes * w(c)/Σw bytes of history, unlisted
	// channels weigh 1. Nil splits the budget evenly.
	RetainWeights map[string]float64
	// Metrics, when set, instruments the node's hot path: the per-stage
	// latency trace (broadcast→decided→fsynced→disseminated), sealed
	// blocks, persist watermarks, and scrape-time consensus stats. Nil
	// disables all of it at the cost of a nil check per site.
	Metrics *obs.NodeMetrics
	// StorageMetrics instruments storage opened via DataDir.
	StorageMetrics *obs.StorageMetrics
	// FS is the filesystem seam of storage opened via DataDir (nil = the
	// real OS filesystem). Fault-injection tests thread a faultfs through
	// here.
	FS vfs.FS
	// ScrubInterval is the background scrubber's period over the node's
	// durable storage: every pass re-reads the retained block records
	// through the CRC-checking path and repairs corrupt ones from peers.
	// Zero disables timed passes — the scrubber still runs and serves
	// on-demand TriggerScrub calls. Storage-less nodes have nothing to
	// scrub.
	ScrubInterval time.Duration
}

func (c NodeConfig) withDefaults() NodeConfig {
	if c.BlockSize <= 0 {
		c.BlockSize = 10
	}
	if c.SigningWorkers <= 0 {
		c.SigningWorkers = 16
	}
	return c
}

// chainState is the per-channel application state: exactly the "sequence
// number of the next block and the hash of the previous block" the paper
// calls out as the ordering service's tiny replicated state (Section 5.2),
// plus the channel's block cutter.
type chainState struct {
	name       string // the channel id
	nextNumber uint64
	prevHash   cryptoutil.Digest
	cutter     *fabric.BlockCutter
}

// recentBlockLimit is how many of a channel's last disseminated blocks a
// node resends to a frontend it did not know. A frontend registers with
// every node at once, but the registrations land at different instants: a
// node that learns of it a little late has already pushed the first blocks
// to the others. Without the resend those blocks miss its copy, fall short
// of 2f+1 when more nodes were late, and a memory-only node, having no
// ledger, could never replay them.
const recentBlockLimit = 8

// recentBlocks is a ring of one channel's last disseminated block messages
// (recentBlockLimit), as they went out to the registered frontends.
type recentBlocks struct {
	msgs [recentBlockLimit][]byte
	n    int // messages ever added
}

func (r *recentBlocks) add(msg []byte) {
	r.msgs[r.n%recentBlockLimit] = msg
	r.n++
}

// sendTo resends the ring to frontend, oldest first.
func (r *recentBlocks) sendTo(conn transport.Conn, frontend transport.Addr) {
	for i := max(0, r.n-recentBlockLimit); i < r.n; i++ {
		conn.Send(frontend, MsgBlock, r.msgs[i%recentBlockLimit])
	}
}

// Byzantine configures ordering-layer misbehavior, the adversary of the
// chaos scenarios. It is independent of consensus.Behavior (which corrupts
// the agreement protocol); this struct corrupts the block distribution
// surface an ordering node presents to frontends and fetching peers.
type Byzantine struct {
	// EquivocateDissemination makes disseminate send a tampered, re-signed
	// variant of every block to half of the registered frontends: different
	// receivers observe conflicting blocks for the same number, which the
	// frontends' 2f+1-copy / f+1-signature release rule must absorb.
	EquivocateDissemination bool
	// ForgeHistory makes the node answer FetchBlocks requests (head probes
	// and ranges) from a self-consistent forged chain signed only by this
	// node. The forgery passes per-range hash-chain verification, so only
	// an anchor or an f+1 threshold across peers (blockSync.agreed and
	// blockSync.proven) can reject it — exactly the property the
	// forged-history scenario checks.
	ForgeHistory bool
}

// NodeStats exposes ordering-node progress counters.
type NodeStats struct {
	EnvelopesOrdered uint64
	BlocksCut        uint64
	BlocksSigned     uint64
}

// OrderingNode is one member of the ordering cluster. Create with NewNode,
// then Start.
type OrderingNode struct {
	cfg    NodeConfig
	conn   transport.Conn
	signer *cryptoutil.SigningPool

	replica *consensus.Replica

	// chains is confined to the replica's event loop (all Application
	// methods run there).
	chains map[string]*chainState

	// Durable state (nil without storage). ledgers holds the node's
	// persistent copy of each channel's chain; ledgerMu guards the map and
	// sync's parked blocks (ledger values are internally synchronized).
	// recovering suppresses signing and dissemination while construction
	// replays the decision log.
	storage    *storage.NodeStorage
	ledgerMu   sync.Mutex
	ledgers    map[string]*fabric.Ledger
	recovering bool

	// retention drives block-store compaction (nil when disabled): the
	// pipeline's drain and the back-fill nudge it after appends, it snapshots
	// + prunes off the hot path, and applied floors advance the
	// in-memory ledgers.
	retention *retention.Manager

	// scrubber is the background bit-rot scrub over the node's durable
	// storage (nil on storage-less nodes); sync.repair is its repair path.
	scrubber *storage.Scrubber

	// sync is everything the node does with other nodes' blocks: serving
	// FetchBlocks, back-filling the durable chain, repairing scrubbed
	// records.
	sync *blockSync

	// frontends is written from the event loop (registration messages)
	// and read by the pipeline's dissemination on signing-pool workers,
	// which also records each channel's recent blocks for a frontend
	// registering later.
	mu        sync.Mutex
	frontends map[transport.Addr]struct{}
	recent    map[string]*recentBlocks

	// pipe is the block path after a decision: seal → sign → decision
	// gate → disseminate → persist, with the persist watermark and the
	// checkpoint gate it feeds.
	pipe *pipeline

	// byz is the ordering-layer byzantine switch.
	byz atomic.Pointer[Byzantine]

	// submitSeq is the last sequence number submit used.
	submitSeq atomic.Uint64

	statEnvelopes atomic.Uint64
	statBlocks    atomic.Uint64
	statSigned    atomic.Uint64

	// metrics is never nil (normalized to a nop bundle in NewNode); its
	// instruments are nil when metrics are disabled, so every hot-path
	// site costs one nil check.
	metrics *obs.NodeMetrics

	done    chan struct{}
	wg      sync.WaitGroup
	started atomic.Bool
	stopped atomic.Bool
}

// NewNode creates an ordering node attached to the given transport
// endpoint (which must be joined as the node's consensus address).
func NewNode(cfg NodeConfig, conn transport.Conn) (*OrderingNode, error) {
	cfg = cfg.withDefaults()
	var signer *cryptoutil.SigningPool
	if !cfg.DisableSigning {
		if cfg.Key == nil {
			return nil, errors.New("ordering node: nil signing key")
		}
		var err error
		signer, err = cryptoutil.NewSigningPool(cfg.Key, cfg.SigningWorkers)
		if err != nil {
			return nil, fmt.Errorf("ordering node: %w", err)
		}
	}
	var store *storage.NodeStorage
	if cfg.DataDir != "" {
		var err error
		store, err = storage.Open(cfg.DataDir, storage.Options{
			SegmentBytes: cfg.WALSegmentBytes,
			SyncHook:     cfg.CommitSyncHook,
			Metrics:      cfg.StorageMetrics,
			FS:           cfg.FS,
		})
		if err != nil {
			if signer != nil {
				signer.Close()
			}
			return nil, fmt.Errorf("ordering node: opening data dir: %w", err)
		}
	}
	n := &OrderingNode{
		cfg:       cfg,
		conn:      conn,
		signer:    signer,
		storage:   store,
		chains:    make(map[string]*chainState),
		frontends: make(map[transport.Addr]struct{}),
		recent:    make(map[string]*recentBlocks),
		done:      make(chan struct{}),
		metrics:   cfg.Metrics.OrNop(),
	}
	n.pipe = newPipeline(n)
	n.sync = newNodeBlockSync(n)
	n.byz.Store(&Byzantine{})
	// A session base keeps a restarted node's own requests from colliding
	// with its pre-crash sequences in the recovered dedup state, as a
	// consensus.Client's do.
	n.submitSeq.Store(uint64(time.Now().UnixNano()))
	ccfg := cfg.Consensus
	if ccfg.ValidateRequest == nil {
		ccfg.ValidateRequest = validateEnvelopeOp
	}
	opts := []consensus.Option{
		consensus.WithExtraMessageHandler(n.onServiceMessage),
	}
	if n.storage != nil {
		// Restore the persistent ledgers first — from the recovered chain
		// frontiers (the retention manifest plus the replayed log tail),
		// without loading any blocks: replaying the decision log below
		// re-seals the tail blocks, and the ledgers' recovered heights
		// are what makes that replay idempotent.
		rec := n.storage.Recovered()
		// The durable membership record outranks the static configuration:
		// a node that crashed after applying a reconfiguration restarts
		// into the group consensus last agreed on, not the one its config
		// file remembers.
		if m := rec.Membership; m != nil {
			if err := applyRecoveredMembership(&ccfg, m); err != nil {
				n.closeOwned()
				return nil, fmt.Errorf("ordering node: %w", err)
			}
		}
		n.ledgers = make(map[string]*fabric.Ledger, len(rec.Chains))
		for channel, info := range rec.Chains {
			n.ledgers[channel] = fabric.RestoreLedger(channel, n.storage, fabric.ChainState{
				Floor:    info.Floor,
				Anchor:   info.Anchor,
				Height:   info.Height,
				LastHash: info.LastHash,
			})
			// Everything recovered from disk is durable by definition; the
			// persist watermark starts there.
			n.pipe.markDurable(channel, info.Height, nil, true)
		}
		opts = append(opts,
			consensus.WithDurability(n.pipe, &consensus.DurableState{
				CheckpointSeq: rec.CheckpointSeq,
				Checkpoint:    rec.Checkpoint,
				Decisions:     durableEntries(rec.Decisions),
			}),
			consensus.WithCheckpointObserver(n.onCheckpoint),
			consensus.WithMembershipObserver(n.onMembershipChange))
		n.storage.SetCheckpointGate(n.pipe.checkpointCovered)
		n.recovering = true
	}
	replica, err := consensus.NewReplica(ccfg, n, conn, opts...)
	n.recovering = false
	if err == nil && n.storage != nil {
		n.pipe.settleReplay()
		err = n.checkRecoveredFrontier()
	}
	if err != nil {
		n.closeOwned()
		return nil, fmt.Errorf("ordering node: %w", err)
	}
	if n.storage != nil {
		policy := retention.Policy{
			RetainBlocks: cfg.RetainBlocks,
			RetainBytes:  cfg.RetainBytes,
			Weights:      cfg.RetainWeights,
		}
		if policy.Enabled() {
			n.retention = retention.NewManager(n.storage, policy, n.advanceLedgerFloors)
		}
	}
	n.replica = replica
	if n.storage != nil {
		// The scrubber always runs over durable storage (timer-less when
		// ScrubInterval is zero, serving TriggerScrub); repair re-fetches
		// the corrupt block from peers, so a single rotten replica heals
		// itself without operator action.
		n.scrubber = n.storage.StartScrubber(cfg.ScrubInterval, n.sync.repair)
	}
	n.registerGaugeFuncs()
	return n, nil
}

// TriggerScrub requests an immediate scrub pass over the node's durable
// storage (no-op on a storage-less node). Non-blocking.
func (n *OrderingNode) TriggerScrub() {
	if n.scrubber != nil {
		n.scrubber.Trigger()
	}
}

// LastScrub returns the most recent completed scrub pass's result (zero
// on a storage-less node).
func (n *OrderingNode) LastScrub() storage.ScrubResult {
	if n.scrubber == nil {
		return storage.ScrubResult{}
	}
	return n.scrubber.Last()
}

// BlockSpan reports where a durable block record lives at rest (file
// path, byte offset, length). Fault-injection harnesses use it to flip
// bytes underneath the storage layer; it has no production callers.
func (n *OrderingNode) BlockSpan(channel string, num uint64) (path string, off, length int64, err error) {
	if n.storage == nil {
		return "", 0, 0, errors.New("node has no durable storage")
	}
	return n.storage.BlockSpan(channel, num)
}

// StoragePoisoned reports the commit log's permanent fsync-failure state
// (nil while healthy, ErrLogPoisoned after a failed wave fsync).
func (n *OrderingNode) StoragePoisoned() error {
	if n.storage == nil {
		return nil
	}
	return n.storage.Poisoned()
}

// DurableBlock reads one block straight from the node's durable store,
// bypassing the in-memory ledger tail — the read a scrub-healing checker
// uses to prove an at-rest repair actually landed on disk.
func (n *OrderingNode) DurableBlock(channel string, num uint64) (*fabric.Block, error) {
	if n.storage == nil {
		return nil, errors.New("node has no durable storage")
	}
	blocks, err := n.storage.ReadBlocks(channel, num, 1)
	if err != nil {
		return nil, err
	}
	if len(blocks) == 0 || blocks[0].Header.Number != num {
		return nil, fmt.Errorf("durable read of %s/%d returned %d blocks", channel, num, len(blocks))
	}
	return blocks[0], nil
}

// registerGaugeFuncs hangs scrape-time gauges off the node's metric
// labels: consensus progress (read from the replica's atomic Stats) and
// the minimum persist watermark across channels. Registered after the
// replica exists; a restarted node's registration replaces the dead
// incarnation's closures. No-op when metrics are disabled.
func (n *OrderingNode) registerGaugeFuncs() {
	m := n.metrics
	m.GaugeFunc("repro_consensus_regency", "Current consensus regency (leader era).",
		func() float64 { return float64(n.replica.Stats().Regency) })
	m.GaugeFunc("repro_consensus_leader_changes", "Leader changes (synchronization phases) observed.",
		func() float64 { return float64(n.replica.Stats().LeaderChanges) })
	m.GaugeFunc("repro_consensus_decided", "Consensus instances decided.",
		func() float64 { return float64(n.replica.Stats().Decided) })
	m.GaugeFunc("repro_consensus_delivered_ops", "Operations delivered by consensus.",
		func() float64 { return float64(n.replica.Stats().DeliveredOps) })
	m.GaugeFunc("repro_consensus_dropped_requests", "Client requests dropped by backpressure.",
		func() float64 { return float64(n.replica.Stats().DroppedReqs) })
	m.GaugeFunc("repro_consensus_propose_fetches",
		"PROPOSEs this node asked the leader to resend inline because it could not resolve their references from its pool.",
		func() float64 { return float64(n.replica.Stats().ProposeFetches) })
	m.GaugeFunc("repro_consensus_open_instances",
		"Instances this node proposed as leader that are not yet delivered (window occupancy; 0 on a follower).",
		func() float64 { return float64(n.replica.Stats().OpenInstances) })
	m.GaugeFunc("repro_consensus_instance_seconds",
		"Leader's moving average of the time from its PROPOSE to the instance's delivery, which paces its proposals (0 on a follower).",
		func() float64 { return n.replica.Stats().InstanceLatency.Seconds() })
	m.GaugeFunc("repro_node_envelopes_ordered", "Envelopes ordered into blocks.",
		func() float64 { return float64(n.statEnvelopes.Load()) })
	m.GaugeFunc("repro_node_persist_watermark_min",
		"Minimum persist watermark across channels (-1 before any channel exists).",
		n.pipe.minWatermark)
}

// advanceLedgerFloors raises the in-memory ledgers' retention floors
// after a compaction applied (so reads stop paging into pruned ranges).
func (n *OrderingNode) advanceLedgerFloors(floors map[string]uint64) {
	for channel, floor := range floors {
		led := n.Ledger(channel)
		if led == nil {
			continue
		}
		if err := led.AdvanceFloor(floor); err != nil {
			slog.Warn("advancing retention floor failed",
				"node", int(n.ID()), "channel", channel, "floor", floor, "err", err)
		}
	}
}

// Compact forces a policy-driven block-store compaction now (the
// explicit admin trigger; cmd/ordernode wires it to SIGHUP). A no-op
// when retention is disabled or nothing is due.
func (n *OrderingNode) Compact() error {
	if n.retention == nil {
		return nil
	}
	return n.retention.Compact()
}

// closeOwned releases resources the half-constructed node owns.
func (n *OrderingNode) closeOwned() {
	if n.signer != nil {
		n.signer.Close()
	}
	if n.storage != nil {
		n.storage.Close()
	}
}

// checkRecoveredFrontier cross-checks the two durable records after
// recovery. A block is only persisted after its decision was fsynced, so
// the replayed chain state can never trail the block store under the
// crash model; if it does, the decision log lost fsynced records (disk
// corruption) and running on would silently fork the node's history.
// Runs before the replica starts, so the chain state is safe to read.
func (n *OrderingNode) checkRecoveredFrontier() error {
	for channel, led := range n.ledgers {
		height := led.Height()
		chain, ok := n.chains[channel]
		if !ok {
			if height > 0 {
				return fmt.Errorf("recovery: channel %q has %d persisted blocks but no decision history (corrupt data dir?)",
					channel, height)
			}
			continue
		}
		if chain.nextNumber < height {
			return fmt.Errorf("recovery: channel %q block store at height %d but decision replay reached %d (corrupt data dir?)",
				channel, height, chain.nextNumber)
		}
	}
	return nil
}

// applyRecoveredMembership replaces the static consensus membership with
// the durably recorded one. A node the recorded group no longer lists
// must not rejoin as a voter under its stale static config — it fails
// construction with an explicit error instead.
func applyRecoveredMembership(ccfg *consensus.Config, m *storage.MembershipRecord) error {
	replicas := make([]consensus.ReplicaID, 0, len(m.Members))
	weights := make(map[consensus.ReplicaID]int, len(m.Members))
	self := false
	for _, raw := range m.Members {
		id := consensus.ReplicaID(raw)
		replicas = append(replicas, id)
		weights[id] = int(m.Weights[raw])
		if id == ccfg.SelfID {
			self = true
		}
	}
	if !self {
		return fmt.Errorf("recovery: durable membership (epoch %d) no longer includes node %d — it was removed from the group",
			m.Epoch, int(ccfg.SelfID))
	}
	ccfg.Replicas = replicas
	ccfg.Weights = weights
	ccfg.F = 0 // re-derive from the recovered group size
	return nil
}

// onMembershipChange persists every applied reconfiguration as the durable
// membership record (runs on the consensus event loop; reconfigurations
// are rare, so the synchronous fsyncs are acceptable there). Saves are
// epoch-monotonic in storage, so replay-time notifications are no-ops.
func (n *OrderingNode) onMembershipChange(v consensus.MembershipView) {
	if n.storage == nil || v.Epoch == 0 {
		return
	}
	rec := &storage.MembershipRecord{
		Epoch:   v.Epoch,
		Members: make([]int32, 0, len(v.Members)),
		Weights: make(map[int32]uint32, len(v.Weights)),
	}
	for _, id := range v.Members {
		rec.Members = append(rec.Members, int32(id))
		rec.Weights[int32(id)] = uint32(v.Weights[id])
	}
	if err := n.storage.SaveMembership(rec); err != nil {
		slog.Error("persisting membership record failed",
			"node", int(n.ID()), "epoch", v.Epoch, "err", err)
	}
}

// durableEntries adapts storage log entries to the consensus type.
func durableEntries(in []storage.DecidedEntry) []consensus.DurableEntry {
	out := make([]consensus.DurableEntry, len(in))
	for i, e := range in {
		out[i] = consensus.DurableEntry{Seq: e.Seq, Batch: e.Batch}
	}
	return out
}

// validateEnvelopeOp is the request-validation hook: every batch entry must
// be a parseable envelope (the consensus layer refuses to WRITE for a
// proposal containing garbage) or a tagged reconfiguration operation
// (Section 5.2: membership changes flow through the same total order).
func validateEnvelopeOp(op []byte) error {
	if consensus.IsReconfigOp(op) {
		return nil
	}
	_, err := fabric.PeekChannel(op)
	return err
}

// ID returns the node's replica identity.
func (n *OrderingNode) ID() consensus.ReplicaID { return n.cfg.Consensus.SelfID }

// Replica exposes the underlying consensus replica (tests inject faults
// through it).
func (n *OrderingNode) Replica() *consensus.Replica { return n.replica }

// Stats returns progress counters. Safe from any goroutine.
func (n *OrderingNode) Stats() NodeStats {
	return NodeStats{
		EnvelopesOrdered: n.statEnvelopes.Load(),
		BlocksCut:        n.statBlocks.Load(),
		BlocksSigned:     n.statSigned.Load(),
	}
}

// SetByzantine installs (or, with the zero value, clears) ordering-layer
// byzantine behavior. Safe to call while the node runs; the consensus-layer
// counterpart is Replica().SetBehavior.
func (n *OrderingNode) SetByzantine(b Byzantine) { n.byz.Store(&b) }

// Start launches the consensus replica, the time-to-cut ticker, and — when
// the recovered decision state is ahead of the recovered block store (the
// previous incarnation was jumped forward by a peer checkpoint and crashed
// before back-filling) — a FetchBlocks back-fill that restores the durable
// chain's contiguity.
func (n *OrderingNode) Start() {
	if n.started.Swap(true) {
		return
	}
	// Safe to read the chains directly: the event loop does not exist yet.
	gaps := n.sync.gaps(n.chains)
	n.replica.Start()
	n.sync.fill(gaps)
	if n.cfg.BlockTimeout > 0 {
		n.wg.Add(1)
		go n.ttcLoop()
	}
}

// Stop shuts the node down and closes storage the node opened itself.
func (n *OrderingNode) Stop() {
	if n.stopped.Swap(true) {
		return
	}
	if n.started.Load() {
		close(n.done)
		n.sync.stop()
		n.wg.Wait()
		n.replica.Stop()
	}
	if n.signer != nil {
		n.signer.Close()
	}
	if n.retention != nil {
		n.retention.Close() // waits out an in-flight compaction
	}
	if n.scrubber != nil {
		n.scrubber.Close() // waits out an in-flight scrub pass
	}
	if n.storage != nil {
		n.storage.Close()
	}
}

// ---- consensus.Application --------------------------------------------

var _ consensus.Application = (*OrderingNode)(nil)

// Execute receives the decided envelope batch of one consensus instance:
// the node thread of Figure 5. Envelopes are demultiplexed per channel;
// whenever a cutter reports a full block, the header is sealed sequentially
// and handed to the signing pool.
func (n *OrderingNode) Execute(_ int64, ops [][]byte) {
	for _, op := range ops {
		channel, client, err := fabric.PeekEnvelope(op)
		if err != nil {
			continue // cannot happen for validated batches; defensive
		}
		chain := n.chain(channel)
		if bytes.HasPrefix(client, []byte(ttcClientPrefix)) {
			n.handleTTC(chain, op)
			continue
		}
		n.statEnvelopes.Add(1)
		if batch := chain.cutter.Append(op); batch != nil {
			n.pipe.seal(chain, batch)
		}
	}
}

var _ consensus.Cutter = (*OrderingNode)(nil)

// OpsToCut tells the leader how many more envelopes complete a block, so
// that it proposes the request that completes one without waiting for the
// open instance. The inflight entries are counted toward the channel nearest
// its cut, as envelopes: with several channels, or a time-to-cut marker
// among them, the answer may come early for a request that completes no
// block, which costs one instance and never changes the order.
func (n *OrderingNode) OpsToCut(inflight int) int {
	need := n.cfg.BlockSize // a channel with nothing pending
	for _, chain := range n.chains {
		need = min(need, n.cfg.BlockSize-chain.cutter.Pending())
	}
	return max(need-inflight, 0)
}

// chain returns the state of the channel named by a view of its id,
// creating it (the only time the id is copied).
func (n *OrderingNode) chain(channel []byte) *chainState {
	chain, ok := n.chains[string(channel)]
	if !ok {
		chain = &chainState{
			name: string(channel),
			cutter: fabric.NewBlockCutter(fabric.CutterConfig{
				MaxEnvelopes: n.cfg.BlockSize,
			}),
		}
		n.chains[chain.name] = chain
	}
	return chain
}

// handleTTC processes an ordered time-to-cut marker: cut a partial block if
// the marker still refers to the chain's current block number and envelopes
// are pending. Deterministic because every node processes the same marker
// at the same position in the total order.
func (n *OrderingNode) handleTTC(chain *chainState, op []byte) {
	env, err := fabric.UnmarshalEnvelope(op)
	if err != nil || len(env.Payload) != 8 {
		return
	}
	r := wire.NewReader(env.Payload)
	target := r.Uint64()
	if r.Err() != nil || target != chain.nextNumber {
		return // stale marker: the block was already cut by size
	}
	if batch := chain.cutter.Cut(); batch != nil {
		n.pipe.seal(chain, batch)
	}
}

// PersistWatermark returns the channel's durable block height as proven
// by completed put tokens: every block below it has its record fsynced
// in the unified commit log. Dissemination may run ahead of it — the
// decision gate, not block durability, is what blocks wait for — which
// is exactly what the early-dissemination tests assert. Safe from any
// goroutine.
func (n *OrderingNode) PersistWatermark(channel string) uint64 {
	return n.pipe.watermark(channel)
}

// SavedCheckpointSeq reports the consensus checkpoint sequence durably on
// disk right now (-1 when none, or when the node is in-memory). Because
// async checkpoint saves are gated on the persist watermark, this can
// lag Stats().Regency-era checkpoint decisions — that lag is the gate
// doing its job, and what the chaos invariants observe.
func (n *OrderingNode) SavedCheckpointSeq() (int64, error) {
	if n.storage == nil {
		return -1, nil
	}
	return n.storage.SavedCheckpointSeq()
}

// onCheckpoint runs on the consensus event loop each time the replica takes
// a checkpoint: it records the per-channel block heights the checkpointed
// decisions imply (chains are event-loop confined, so nextNumber is exact
// for the prefix through the checkpoint seq).
func (n *OrderingNode) onCheckpoint(seq int64) {
	heights := make(map[string]uint64, len(n.chains))
	for channel, chain := range n.chains {
		heights[channel] = chain.nextNumber
	}
	n.pipe.markCheckpoint(seq, heights)
}

// ledger returns (creating if needed) the durable ledger for a channel.
func (n *OrderingNode) ledger(channel string) *fabric.Ledger {
	n.ledgerMu.Lock()
	defer n.ledgerMu.Unlock()
	led, ok := n.ledgers[channel]
	if !ok {
		led = fabric.NewPersistentLedger(channel, n.storage)
		n.ledgers[channel] = led
	}
	return led
}

// Ledger returns the node's durable copy of a channel's chain, or nil when
// the node runs without storage or has never sealed a block for the
// channel. Safe from any goroutine.
func (n *OrderingNode) Ledger(channel string) *fabric.Ledger {
	if n.storage == nil {
		return nil
	}
	n.ledgerMu.Lock()
	defer n.ledgerMu.Unlock()
	return n.ledgers[channel]
}

// Snapshot serializes the per-channel chain state (Section 5.2: a few
// dozen bytes per channel plus any uncut envelopes).
func (n *OrderingNode) Snapshot() []byte {
	w := wire.NewWriter(64)
	w.PutUvarint(uint64(len(n.chains)))
	channels := make([]string, 0, len(n.chains))
	for ch := range n.chains {
		channels = append(channels, ch)
	}
	sort.Strings(channels)
	for _, ch := range channels {
		chain := n.chains[ch]
		w.PutString(ch)
		w.PutUint64(chain.nextNumber)
		w.PutRaw(chain.prevHash[:])
		w.PutBytesSlice(chain.cutter.PendingSnapshot())
	}
	return w.Bytes()
}

// Restore replaces the chain state from a snapshot (state transfer).
func (n *OrderingNode) Restore(snapshot []byte, _ int64) {
	r := wire.NewReader(snapshot)
	count := r.Count(42) // name, number, hash and an empty cutter
	if count > 1<<16 {
		return
	}
	chains := make(map[string]*chainState, count)
	for i := 0; i < count; i++ {
		channel := r.String()
		chain := &chainState{
			name:       channel,
			nextNumber: r.Uint64(),
			cutter: fabric.NewBlockCutter(fabric.CutterConfig{
				MaxEnvelopes: n.cfg.BlockSize,
			}),
		}
		copy(chain.prevHash[:], r.Raw(cryptoutil.DigestSize))
		for _, env := range r.BytesSlice() {
			chain.cutter.Append(env)
		}
		chains[channel] = chain
	}
	if r.Finish() != nil {
		return
	}
	n.chains = chains
	// The chains were replaced wholesale: in-flight dissemination for any
	// channel is stale.
	n.pipe.resetAll()
	// A state transfer that jumped a chain past the local ledger height
	// leaves a gap the node never sealed: back-fill it from peers so the
	// durable chain stays contiguous. (During construction-time recovery
	// the scan runs in Start instead, once the event loop can route fetch
	// responses.)
	if !n.recovering {
		n.sync.fill(n.sync.gaps(n.chains))
	}
}

// ---- frontend registration and TTC ------------------------------------

// onServiceMessage handles ordering-layer messages arriving on the
// replica's endpoint (runs on the event loop).
func (n *OrderingNode) onServiceMessage(m transport.Message) {
	switch m.Type {
	case MsgRegister:
		n.mu.Lock()
		if _, known := n.frontends[m.From]; !known {
			n.frontends[m.From] = struct{}{}
			// Under the lock dissemination records and snapshots under:
			// every block missing from this resend is pushed after it, so
			// the frontend sees each node's copies in block order.
			for _, r := range n.recent {
				r.sendTo(n.conn, m.From)
			}
		}
		n.mu.Unlock()
		if req, err := unmarshalFetchRequest(m.Payload); err == nil {
			n.sync.replay(m.From, req.Channel, req.From)
		}
	case MsgUnregister:
		n.mu.Lock()
		delete(n.frontends, m.From)
		n.mu.Unlock()
	case MsgFetchRequest:
		go n.sync.serve(m.From, m.Payload)
	case MsgFetchResponse:
		n.sync.handleResponse(m.From, m.Payload)
	}
}

// MembershipView returns the consensus group the node currently believes
// in (epoch, members, weights). Safe from any goroutine.
func (n *OrderingNode) MembershipView() consensus.MembershipView {
	return n.replica.MembershipView()
}

// membershipIDs returns the live consensus membership — the static config
// until the replica exists or a reconfiguration changed the group.
func (n *OrderingNode) membershipIDs() []consensus.ReplicaID {
	if n.replica != nil {
		if v := n.replica.MembershipView(); len(v.Members) > 0 {
			return v.Members
		}
	}
	return n.cfg.Consensus.Replicas
}

// faults returns the cluster's fault threshold f, tracking the live
// membership across reconfigurations.
func (n *OrderingNode) faults() int {
	if n.replica != nil {
		if v := n.replica.MembershipView(); len(v.Members) > 0 && v.F > 0 {
			return v.F
		}
	}
	if f := n.cfg.Consensus.F; f > 0 {
		return f
	}
	return consensus.MaxFaults(len(n.cfg.Consensus.Replicas))
}

// sendsWhole reports whether this node sends block number whole to the
// frontends. Node p of the live membership (n members, f faults) does so
// for the blocks b with p ∈ {b, b+1, …, b+f} mod n; the others send the
// header and their signature. Of a block's f+1 whole senders at least one
// is correct, so its body reaches every frontend with no timer or
// fallback sender. A node outside the membership sends every block whole.
func (n *OrderingNode) sendsWhole(number uint64) bool {
	members := n.membershipIDs()
	size := uint64(len(members))
	for p, id := range members {
		if id == n.ID() {
			return (uint64(p)+size-number%size)%size <= uint64(n.faults())
		}
	}
	return true
}

// peerAddrs returns the other replicas' transport addresses per the live
// membership (reconfigurations change who is worth fetching from).
func (n *OrderingNode) peerAddrs() []transport.Addr {
	members := n.membershipIDs()
	peers := make([]transport.Addr, 0, len(members))
	for _, id := range members {
		if id != n.cfg.Consensus.SelfID {
			peers = append(peers, id.Addr())
		}
	}
	return peers
}

// ttcLoop submits time-to-cut markers for channels whose cutters have aged
// pending envelopes. Markers are ordered through consensus, so cutting
// stays deterministic; every node may submit markers, and stale ones are
// no-ops.
func (n *OrderingNode) ttcLoop() {
	defer n.wg.Done()
	interval := n.cfg.BlockTimeout / 2
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	clientID := ttcClientPrefix + strconv.Itoa(int(n.ID()))

	type chainProbe struct {
		channel string
		number  uint64
	}
	for {
		select {
		case <-n.done:
			return
		case <-ticker.C:
		}
		var due []chainProbe
		now := time.Now()
		n.replica.Inspect(func() {
			for channel, chain := range n.chains {
				oldest, ok := chain.cutter.OldestPending()
				if ok && now.Sub(oldest) >= n.cfg.BlockTimeout {
					due = append(due, chainProbe{channel: channel, number: chain.nextNumber})
				}
			}
		})
		for _, probe := range due {
			w := wire.NewWriter(8)
			w.PutUint64(probe.number)
			env := &fabric.Envelope{
				ChannelID: probe.channel,
				ClientID:  clientID,
				Payload:   w.Bytes(),
			}
			n.submit(env.Marshal(), append(n.peerAddrs(), n.conn.Addr()))
		}
	}
}

// submit sends op to the replicas at to as a request of the node's own
// consensus client, whose identity is the node's transport address: a
// replica pools a request only under the address it came from. Time-to-cut
// markers and join announcements share its one sequence.
func (n *OrderingNode) submit(op []byte, to []transport.Addr) {
	rq := consensus.EncodeRequest(string(n.conn.Addr()), n.submitSeq.Add(1), op)
	for _, addr := range to {
		n.conn.Send(addr, consensus.RequestMessageType, rq)
	}
}

// marshalBlockMsg frames a block for dissemination: channel, send timestamp,
// and the block to the end of the frame, encoded once into a buffer sized
// beforehand. The timestamp is the disseminated-stage stamp of the latency
// trace; it is always written (8 fixed bytes) so the frame layout does not
// depend on whether metrics are enabled on either side.
func marshalBlockMsg(channel string, block *fabric.Block) []byte {
	w := wire.NewWriter(len(channel) + 18 + block.MarshaledSize())
	w.PutString(channel)
	w.PutInt64(time.Now().UnixNano())
	block.MarshalInto(w)
	return w.Bytes()
}

// unmarshalBlockMsg decodes a disseminated block, as a view of payload, and
// the sender's send timestamp (unix nanos).
func unmarshalBlockMsg(payload []byte) (string, *fabric.Block, int64, error) {
	r := wire.NewReader(payload)
	channel := r.String()
	sentNano := r.Int64()
	if err := r.Err(); err != nil {
		return "", nil, 0, fmt.Errorf("block message: %w", err)
	}
	block, err := fabric.UnmarshalBlock(r.Raw(r.Remaining()))
	if err != nil {
		return "", nil, 0, err
	}
	return channel, block, sentNano, nil
}
