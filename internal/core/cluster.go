package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/consensus"
	"repro/internal/cryptoutil"
	"repro/internal/obs"
	"repro/internal/storage/vfs"
	"repro/internal/transport"
)

// ClusterConfig assembles a complete in-process ordering service: n nodes
// over a shared network, with identities registered for verification.
type ClusterConfig struct {
	// Nodes is the cluster size (4, 7, or 10 in the paper's LAN
	// evaluation; 4 or 5 in the geo evaluation).
	Nodes int
	// F is the fault threshold (zero derives the maximum).
	F int
	// BlockSize is the envelopes-per-block bound (10 or 100 in the paper).
	BlockSize int
	// BlockTimeout enables deterministic timeout-based cutting.
	BlockTimeout time.Duration
	// SigningWorkers sizes each node's signing pool (default 16).
	SigningWorkers int
	// DisableSigning skips block signatures (Equation 1 ablation).
	DisableSigning bool
	// BatchSize is the consensus batch limit (default 400, as in the
	// paper).
	BatchSize int
	// BatchTimeout is consensus.Config.BatchTimeout: not a wait imposed on
	// any batch (an idle leader proposes at once) but the unit the window
	// of open instances is measured in.
	BatchTimeout time.Duration
	// RequestTimeout is the leader-change trigger.
	RequestTimeout time.Duration
	// CheckpointInterval bounds the decision log (decisions between
	// application checkpoints; zero keeps the consensus default).
	CheckpointInterval int64
	// Weights assigns WHEAT votes (nil = classic BFT-SMaRt).
	Weights map[consensus.ReplicaID]int
	// Network hosts the cluster; nil creates a zero-latency in-proc
	// network (an idealized LAN).
	Network *transport.InProcNetwork
	// DataDir, when non-empty, makes every node durable: node i keeps its
	// WAL, block store, and checkpoints under DataDir/node-<i>, and
	// RestartNode can crash-recover it from there.
	DataDir string
	// WALSegmentBytes overrides the nodes' unified commit-log segment
	// size (zero keeps the 4 MiB default); decisions and blocks share the
	// log, so this is both the checkpoint-pruning and the retention
	// compaction granularity.
	WALSegmentBytes int64
	// RetainBlocks bounds every node's durable blocks per channel:
	// exceeding it triggers block-store compaction (snapshot manifest +
	// segment deletion), and seeks below the floor answer the pruned
	// status. Zero retains everything.
	RetainBlocks uint64
	// RetainBytes bounds every node's block store size on disk. Zero
	// disables the bytes trigger.
	RetainBytes int64
	// RetainWeights biases the RetainBytes budget across channels
	// (channel c keeps RetainBytes * w(c)/Σw bytes; unlisted channels
	// weigh 1). Nil splits the budget evenly.
	RetainWeights map[string]float64
	// CommitSyncHook, when set, runs at the start of every commit wave
	// on every node (test instrumentation; see storage.Options.SyncHook).
	CommitSyncHook func()
	// CommitSyncHookFor, when set, supplies a per-node sync hook (nil
	// results fall back to CommitSyncHook). Test instrumentation for
	// scenarios that stall a single node's fsync waves while the rest of
	// the cluster runs free.
	CommitSyncHookFor func(node int) func()
	// NodeFS, when set, supplies a per-node filesystem seam for durable
	// storage (nil results keep the real OS filesystem). The disk-fault
	// chaos scenarios thread per-node faultfs instances through here.
	NodeFS func(node int) vfs.FS
	// ScrubInterval is every node's background scrub period (zero keeps
	// the scrubber trigger-only).
	ScrubInterval time.Duration
	// Metrics, when set, instruments every node (consensus, storage, and
	// hot-path stage histograms) into one shared registry, with node
	// labels. Restarted nodes re-attach to their existing series. Nil
	// disables instrumentation entirely (the near-free path).
	Metrics *obs.Registry
}

// Cluster is a running in-process ordering service.
type Cluster struct {
	// Network is the hub nodes and frontends share.
	Network *transport.InProcNetwork
	// Nodes are the ordering nodes, indexed by replica id.
	Nodes []*OrderingNode
	// Registry holds every node's verification key.
	Registry *cryptoutil.Registry

	cfg      ClusterConfig
	replicas []consensus.ReplicaID
	keys     []*cryptoutil.KeyPair
	removed  map[consensus.ReplicaID]bool
	ownsNet  bool
}

// NewCluster builds and starts an ordering cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("cluster: need at least one node, got %d", cfg.Nodes)
	}
	network := cfg.Network
	ownsNet := false
	if network == nil {
		network = transport.NewInProcNetwork(transport.InProcConfig{})
		ownsNet = true
	}
	replicas := make([]consensus.ReplicaID, cfg.Nodes)
	for i := range replicas {
		replicas[i] = consensus.ReplicaID(i)
	}
	registry := cryptoutil.NewRegistry()

	c := &Cluster{
		Network:  network,
		Registry: registry,
		cfg:      cfg,
		replicas: replicas,
		removed:  make(map[consensus.ReplicaID]bool),
		ownsNet:  ownsNet,
	}
	c.keys = make([]*cryptoutil.KeyPair, cfg.Nodes)
	for i, id := range replicas {
		key, err := cryptoutil.GenerateKeyPair()
		if err != nil {
			c.Stop()
			return nil, fmt.Errorf("cluster: %w", err)
		}
		c.keys[i] = key
		registry.Register(string(id.Addr()), key.Public())
		node, err := c.startNode(i, c.replicas)
		if err != nil {
			c.Stop()
			return nil, err
		}
		c.Nodes = append(c.Nodes, node)
	}
	for _, node := range c.Nodes {
		node.Start()
	}
	return c, nil
}

// startNode joins node i to the network and constructs it with the given
// static membership; with a data directory the node opens (and owns) its
// durable storage under DataDir/node-<i>, and a durable membership record
// found there overrides the static membership. The caller starts it.
func (c *Cluster) startNode(i int, members []consensus.ReplicaID) (*OrderingNode, error) {
	id := c.replicas[i]
	dataDir := ""
	if c.cfg.DataDir != "" {
		dataDir = c.NodeDataDir(i)
	}
	conn, err := c.Network.Join(id.Addr())
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	node, err := NewNode(NodeConfig{
		Consensus: consensus.Config{
			SelfID:             id,
			Replicas:           members,
			F:                  c.cfg.F,
			Weights:            c.cfg.Weights,
			BatchSize:          c.cfg.BatchSize,
			BatchTimeout:       c.cfg.BatchTimeout,
			RequestTimeout:     c.cfg.RequestTimeout,
			CheckpointInterval: c.cfg.CheckpointInterval,
			Key:                c.keys[i],
			Registry:           c.Registry,
		},
		BlockSize:       c.cfg.BlockSize,
		BlockTimeout:    c.cfg.BlockTimeout,
		SigningWorkers:  c.cfg.SigningWorkers,
		DisableSigning:  c.cfg.DisableSigning,
		Key:             c.keys[i],
		DataDir:         dataDir,
		WALSegmentBytes: c.cfg.WALSegmentBytes,
		RetainBlocks:    c.cfg.RetainBlocks,
		RetainBytes:     c.cfg.RetainBytes,
		RetainWeights:   c.cfg.RetainWeights,
		CommitSyncHook:  c.nodeSyncHook(i),
		Metrics:         c.nodeMetrics(i),
		StorageMetrics:  c.storageMetrics(i),
		FS:              c.nodeFS(i),
		ScrubInterval:   c.cfg.ScrubInterval,
	}, conn)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %d: %w", id, err)
	}
	return node, nil
}

// nodeMetrics builds node i's instrument bundle out of the shared
// registry, labeled by node. Re-registration is idempotent, so
// a restarted node re-attaches to the incarnation-spanning series.
func (c *Cluster) nodeMetrics(i int) *obs.NodeMetrics {
	return obs.NewNodeMetrics(c.cfg.Metrics, "node", strconv.Itoa(i))
}

func (c *Cluster) storageMetrics(i int) *obs.StorageMetrics {
	return obs.NewStorageMetrics(c.cfg.Metrics, "node", strconv.Itoa(i))
}

// nodeFS resolves node i's filesystem seam (nil = the OS filesystem).
func (c *Cluster) nodeFS(i int) vfs.FS {
	if c.cfg.NodeFS == nil {
		return nil
	}
	return c.cfg.NodeFS(i)
}

// nodeSyncHook resolves node i's commit sync hook: the per-node factory
// wins, falling back to the cluster-wide hook.
func (c *Cluster) nodeSyncHook(i int) func() {
	if c.cfg.CommitSyncHookFor != nil {
		if hook := c.cfg.CommitSyncHookFor(i); hook != nil {
			return hook
		}
	}
	return c.cfg.CommitSyncHook
}

// NodeDataDir returns node i's storage root (meaningful only with a
// DataDir-configured cluster).
func (c *Cluster) NodeDataDir(i int) string {
	return filepath.Join(c.cfg.DataDir, "node-"+strconv.Itoa(i))
}

// KillNode crashes node i: it is stopped (which closes its storage,
// leaving only the on-disk state) and detached from the network. A no-op
// for an already-killed node.
func (c *Cluster) KillNode(i int) {
	if c.Nodes[i] == nil {
		return
	}
	c.Nodes[i].Stop()
	c.Network.Disconnect(c.replicas[i].Addr())
	c.Nodes[i] = nil
}

// RestartNode recovers a killed node from its data directory and rejoins
// it to the cluster. Requires a DataDir-configured cluster. The node's
// static membership is the cluster's current view (its own durable
// membership record, when present, overrides it anyway); restarting a
// node the group removed fails with the recovery error.
func (c *Cluster) RestartNode(i int) error {
	if c.cfg.DataDir == "" {
		return fmt.Errorf("cluster: restart needs a data directory")
	}
	if c.Nodes[i] != nil {
		return fmt.Errorf("cluster: node %d is still running", c.replicas[i])
	}
	if c.removed[c.replicas[i]] {
		return fmt.Errorf("cluster: node %d was removed from the group", c.replicas[i])
	}
	members := c.currentMembers()
	if !containsReplica(members, c.replicas[i]) {
		members = append(members, c.replicas[i])
	}
	node, err := c.startNode(i, members)
	if err != nil {
		return err
	}
	c.Nodes[i] = node
	node.Start()
	return nil
}

// Replicas returns the cluster membership (removed nodes excluded).
func (c *Cluster) Replicas() []consensus.ReplicaID {
	out := make([]consensus.ReplicaID, 0, len(c.replicas))
	for _, id := range c.replicas {
		if !c.removed[id] {
			out = append(out, id)
		}
	}
	return out
}

// currentMembers returns the group as some live node currently sees it,
// falling back to the slot list when every node is down.
func (c *Cluster) currentMembers() []consensus.ReplicaID {
	for _, node := range c.Nodes {
		if node == nil {
			continue
		}
		if v := node.MembershipView(); len(v.Members) > 0 {
			return append([]consensus.ReplicaID(nil), v.Members...)
		}
	}
	return c.Replicas()
}

func containsReplica(ids []consensus.ReplicaID, id consensus.ReplicaID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// reconfigDeadline bounds how long a membership change may take to reach
// every live node's view before the cluster call gives up.
const reconfigDeadline = 15 * time.Second

// AddNode grows the cluster by one ordering node: a fresh identity is
// generated and registered, the node boots with the current group plus
// itself as its static membership (the paper's join procedure), and a
// ReconfigAdd is ordered through consensus until every live node's view
// includes the newcomer and the newcomer caught up to the group's
// membership epoch. Returns the new node's index.
func (c *Cluster) AddNode() (int, error) {
	i := len(c.replicas)
	id := consensus.ReplicaID(i)
	key, err := cryptoutil.GenerateKeyPair()
	if err != nil {
		return -1, fmt.Errorf("cluster: %w", err)
	}
	members := append(c.currentMembers(), id)
	c.replicas = append(c.replicas, id)
	c.keys = append(c.keys, key)
	c.Registry.Register(string(id.Addr()), key.Public())
	node, err := c.startNode(i, members)
	if err != nil {
		c.replicas = c.replicas[:i]
		c.keys = c.keys[:i]
		return -1, err
	}
	c.Nodes = append(c.Nodes, node)
	node.Start()
	if err := c.Reconfigure(consensus.ReconfigOp{Kind: consensus.ReconfigAdd, Replica: id}, reconfigDeadline); err != nil {
		return i, err
	}
	return i, nil
}

// RemoveNode retires node i gracefully: the removal is ordered through
// consensus first (so the group stops counting the node's votes and stops
// sending it work), then the node stops and releases its transport
// identity. Its undelivered copies are not waited for: every block it
// sealed the surviving group sealed too, and a frontend short of a copy
// re-registers with them. Restarting a removed node fails.
func (c *Cluster) RemoveNode(i int) error {
	if i < 0 || i >= len(c.replicas) {
		return fmt.Errorf("cluster: no node %d", i)
	}
	id := c.replicas[i]
	if c.removed[id] {
		return nil
	}
	if err := c.Reconfigure(consensus.ReconfigOp{Kind: consensus.ReconfigRemove, Replica: id}, reconfigDeadline); err != nil {
		return err
	}
	c.removed[id] = true
	if node := c.Nodes[i]; node != nil {
		node.Stop()
		c.Network.Disconnect(id.Addr())
		c.Nodes[i] = nil
	}
	return nil
}

// ReplaceNode swaps node i for a fresh identity: the replacement is added
// first (the group briefly runs one node larger, keeping quorum intact
// throughout), then node i is removed gracefully. Returns the new node's
// index.
func (c *Cluster) ReplaceNode(i int) (int, error) {
	ni, err := c.AddNode()
	if err != nil {
		return -1, err
	}
	if err := c.RemoveNode(i); err != nil {
		return ni, err
	}
	return ni, nil
}

// Reconfigure orders one membership change and waits until every live
// node applied it. The op is re-broadcast with jittered backoff (each
// resubmission is a fresh ordered no-op once the change took, so retries
// are safe) until the views converge or the deadline passes.
func (c *Cluster) Reconfigure(op consensus.ReconfigOp, timeout time.Duration) error {
	if timeout <= 0 {
		timeout = reconfigDeadline
	}
	admin := transport.Addr(fmt.Sprintf("admin:%d", time.Now().UnixNano()))
	conn, err := c.Network.Join(admin)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	defer c.Network.Disconnect(admin)
	client, err := consensus.NewClient(conn, consensus.ClientConfig{Replicas: c.currentMembers()})
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	defer client.Close()
	payload := consensus.EncodeReconfigOp(op)
	deadline := time.Now().Add(timeout)
	policy := transport.RetryPolicy{Initial: 250 * time.Millisecond, Max: 2 * time.Second}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for attempt := 0; ; attempt++ {
		if err := client.Invoke(payload); err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
		// Poll for convergence until the next resubmission is due.
		next := time.Now().Add(policy.Delay(attempt, rng))
		for time.Now().Before(next) {
			if c.reconfigApplied(op) {
				return nil
			}
			time.Sleep(20 * time.Millisecond)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: reconfiguration of node %d (kind %d) did not converge within %v",
				int(op.Replica), op.Kind, timeout)
		}
	}
}

// reconfigApplied reports whether every live node's membership view
// reflects the change. For an add, the newcomer itself must additionally
// have caught up to the peers' membership epoch — a node that is listed
// but still at an older epoch has not yet learned it was admitted.
func (c *Cluster) reconfigApplied(op consensus.ReconfigOp) bool {
	peerEpoch := uint64(0)
	peersSeen := false
	for i, node := range c.Nodes {
		if node == nil || c.replicas[i] == op.Replica {
			continue
		}
		v := node.MembershipView()
		if len(v.Members) == 0 {
			return false
		}
		if (op.Kind == consensus.ReconfigAdd) != containsReplica(v.Members, op.Replica) {
			return false
		}
		if !peersSeen || v.Epoch < peerEpoch {
			peerEpoch = v.Epoch
		}
		peersSeen = true
	}
	if !peersSeen {
		return false
	}
	if op.Kind == consensus.ReconfigAdd {
		for i, node := range c.Nodes {
			if node != nil && c.replicas[i] == op.Replica &&
				node.MembershipView().Epoch < peerEpoch {
				return false
			}
		}
	}
	return true
}

// NewFrontend attaches a frontend to the cluster. verify selects f+1
// signature verification instead of 2f+1 matching copies.
func (c *Cluster) NewFrontend(id string, verify bool) (*Frontend, error) {
	return NewFrontend(FrontendConfig{
		ID:               id,
		Replicas:         c.Replicas(),
		F:                c.cfg.F,
		VerifySignatures: verify,
		Registry:         c.Registry,
		Metrics:          obs.NewFrontendMetrics(c.cfg.Metrics, "frontend", id),
	}, c.Network)
}

// Leader returns the node currently expected to lead (regency of node 0's
// view). Benchmarks measure throughput at the leader, as the paper does.
func (c *Cluster) Leader() *OrderingNode {
	if len(c.Nodes) == 0 {
		return nil
	}
	reg := c.Nodes[0].Replica().Stats().Regency
	return c.Nodes[int(reg)%len(c.Nodes)]
}

// Stop shuts down all nodes (each closes its own storage) and closes the
// network if the cluster created it.
func (c *Cluster) Stop() {
	for _, node := range c.Nodes {
		if node != nil {
			node.Stop()
		}
	}
	if c.ownsNet && c.Network != nil {
		c.Network.Close()
	}
}
