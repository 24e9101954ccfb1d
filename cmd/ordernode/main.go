// Command ordernode runs one BFT-SMaRt ordering node over TCP, for
// multi-process (or multi-host) deployments.
//
// Every node needs the full address book of the cluster plus any frontends
// it should be able to push blocks to. Example 4-node cluster on one host:
//
//	ordernode -id 0 -listen :7000 \
//	  -peers 0=localhost:7000,1=localhost:7001,2=localhost:7002,3=localhost:7003 \
//	  -frontends fe0=localhost:7100 \
//	  -block 10
//
// Keys: each node generates its Ed25519 signing key at start and holds it
// only in memory; no flag loads a key, and distributing the public keys to
// the cluster and its frontends is ROADMAP item 14(c).
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/storage/retention"
	"repro/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ordernode:", err)
		os.Exit(1)
	}
}

func run() error {
	id := flag.Int("id", 0, "replica id")
	listen := flag.String("listen", ":7000", "TCP listen address")
	peersFlag := flag.String("peers", "", "replica address book: id=host:port,...")
	frontsFlag := flag.String("frontends", "", "frontend address book: name=host:port,...")
	block := flag.Int("block", 10, "envelopes per block")
	blockTimeout := flag.Duration("block-timeout", 500*time.Millisecond, "partial-block cut timeout (0 disables)")
	batch := flag.Int("batch", 400, "consensus batch limit")
	workers := flag.Int("workers", 16, "signing workers")
	dataDir := flag.String("data-dir", "", "durable storage directory (unified commit log + checkpoints); empty runs in-memory")
	walSegment := flag.Int64("wal-segment-bytes", 4<<20, "unified commit-log segment size; segments are reclaimed only once behind the consensus checkpoint AND below every channel's retention floor")
	checkpointIvl := flag.Int64("checkpoint-interval", 0, "decisions between consensus checkpoints (0 = default); checkpoints make decision records reclaimable")
	retainBlocks := flag.Uint64("retain-blocks", 0, "durable blocks retained per channel before block-store compaction prunes below the floor (0 = retain everything)")
	retainBytes := flag.Int64("retain-bytes", 0, "block-store on-disk size that triggers compaction (0 = no bytes trigger); SIGHUP forces a compaction")
	retainWeights := flag.String("retain-weights", "", "per-channel weights for the -retain-bytes budget: channel=weight,... (unlisted channels weigh 1)")
	metricsAddr := flag.String("metrics-addr", "", "HTTP listen address for /metrics (Prometheus text or ?format=json) and /debug/pprof/; empty disables instrumentation entirely")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")
	join := flag.Bool("join", false, "join an existing cluster: announce this node through an ordered membership add, then catch up via state transfer and verified block fetch from the peers' retention floor; -peers must list the current group plus this node")
	joinTimeout := flag.Duration("join-timeout", 60*time.Second, "hard deadline for -join; exceeding it exits with the typed join error")
	scrubInterval := flag.Duration("scrub-interval", 5*time.Minute, "background bit-rot scrub period over the durable block records; corrupt records are repaired from peers via f+1-verified fetch (0 disables timed passes)")
	recoverFromPeers := flag.Bool("recover-from-peers", false, "destructive last resort when -data-dir fails recovery with corruption: WIPE the data directory and rebuild this node's state from the peers (join-style state transfer + verified block fetch); refuses to act on non-corruption errors")
	flag.Parse()

	if err := setupLogging(*logLevel); err != nil {
		return err
	}
	weights, err := parseWeights(*retainWeights)
	if err != nil {
		return fmt.Errorf("bad -retain-weights: %w", err)
	}
	peers, err := parseBook(*peersFlag)
	if err != nil {
		return fmt.Errorf("bad -peers: %w", err)
	}
	if len(peers) == 0 {
		return fmt.Errorf("-peers is required")
	}
	fronts, err := parseBook(*frontsFlag)
	if err != nil {
		return fmt.Errorf("bad -frontends: %w", err)
	}

	// Build the address book: replicas by canonical address, frontends
	// under their own names plus their client endpoints.
	selfID := consensus.ReplicaID(*id)
	replicas := make([]consensus.ReplicaID, 0, len(peers))
	book := make(map[transport.Addr]string, len(peers)+len(fronts))
	for name, hostport := range peers {
		n, err := strconv.Atoi(name)
		if err != nil {
			return fmt.Errorf("replica id %q is not a number", name)
		}
		rid := consensus.ReplicaID(n)
		replicas = append(replicas, rid)
		book[rid.Addr()] = hostport
	}
	for name, hostport := range fronts {
		book[transport.Addr(name)] = hostport
	}

	// Observability: one registry for the process, served over HTTP next
	// to net/http/pprof. A nil registry (flag unset) leaves every
	// instrument nil, which is the near-free disabled path.
	var registry *obs.Registry
	if *metricsAddr != "" {
		registry = obs.NewRegistry()
		ln, err := obs.Serve(*metricsAddr, registry)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer ln.Close()
		fmt.Printf("metrics and pprof on http://%s/metrics\n", ln.Addr())
	}
	labels := []string{"node", strconv.Itoa(*id)}

	key, err := cryptoutil.GenerateKeyPair()
	if err != nil {
		return err
	}
	conn, err := transport.NewTCPTransport(transport.TCPConfig{
		Addr:   selfID.Addr(),
		Listen: *listen,
		Peers:  book,
	})
	if err != nil {
		return err
	}
	defer conn.Close()

	makeNode := func() (*core.OrderingNode, error) {
		return core.NewNode(core.NodeConfig{
			Consensus: consensus.Config{
				SelfID:             selfID,
				Replicas:           replicas,
				BatchSize:          *batch,
				CheckpointInterval: *checkpointIvl,
				Key:                key,
			},
			BlockSize:       *block,
			BlockTimeout:    *blockTimeout,
			SigningWorkers:  *workers,
			Key:             key,
			DataDir:         *dataDir,
			WALSegmentBytes: *walSegment,
			RetainBlocks:    *retainBlocks,
			RetainBytes:     *retainBytes,
			RetainWeights:   weights,
			ScrubInterval:   *scrubInterval,
			Metrics:         obs.NewNodeMetrics(registry, labels...),
			StorageMetrics:  obs.NewStorageMetrics(registry, labels...),
		}, conn)
	}
	node, err := makeNode()
	wiped := false
	if err != nil && *recoverFromPeers && *dataDir != "" && isCorruption(err) {
		// The disk lost data the scrubber cannot repair in place (mid-log
		// damage, rotten checkpoint + .prev, corrupt membership record).
		// The operator asked for the last resort: discard the local state
		// and rebuild from the peers, whose f+1-verified history is the
		// authoritative copy anyway.
		slog.Error("local recovery failed with corruption; wiping data dir and rebuilding from peers",
			"data-dir", *dataDir, "err", err)
		if err := os.RemoveAll(*dataDir); err != nil {
			return fmt.Errorf("-recover-from-peers: wiping %s: %w", *dataDir, err)
		}
		wiped = true
		node, err = makeNode()
	}
	if err != nil {
		return err
	}
	node.Start()
	defer node.Stop()
	if *join || wiped {
		// A wiped node re-announces itself through the ordered membership
		// add (a no-op for an existing member) and catches up via state
		// transfer + verified block fetch — the same path a fresh join
		// takes.
		if err := node.Join(core.JoinOptions{Deadline: *joinTimeout}); err != nil {
			return err
		}
		fmt.Printf("joined the group at membership epoch %d\n", node.MembershipView().Epoch)
	}
	durability := "in-memory"
	if *dataDir != "" {
		durability = "durable at " + *dataDir
	}
	fmt.Printf("ordering node %d listening on %s (%d replicas, block size %d, %s)\n",
		*id, conn.ListenAddr(), len(replicas), *block, durability)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	for s := range sig {
		if s == syscall.SIGHUP {
			// Explicit admin trigger: compact the block store now.
			if err := node.Compact(); err != nil {
				fmt.Fprintln(os.Stderr, "ordernode: compaction:", err)
			} else {
				fmt.Println("block-store compaction triggered")
			}
			continue
		}
		break
	}
	fmt.Println("shutting down")
	return nil
}

// isCorruption reports whether a node-construction error is durable-state
// corruption — the only failure class -recover-from-peers may destroy a
// data directory over. Anything else (permissions, address in use, bad
// flags) must surface unchanged.
func isCorruption(err error) bool {
	return errors.Is(err, storage.ErrCorrupt) ||
		errors.Is(err, storage.ErrCheckpointCorrupt) ||
		errors.Is(err, storage.ErrMembershipCorrupt) ||
		errors.Is(err, retention.ErrManifestCorrupt)
}

// setupLogging installs a leveled text handler on stderr as the process
// default; the ordering stack logs through log/slog with node/channel
// attributes.
func setupLogging(level string) error {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})))
	return nil
}

// parseWeights parses "channel=weight,channel=weight" retention weights.
func parseWeights(s string) (map[string]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	out := make(map[string]float64)
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 || kv[0] == "" {
			return nil, fmt.Errorf("entry %q is not channel=weight", part)
		}
		w, err := strconv.ParseFloat(kv[1], 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("weight %q must be a positive number", kv[1])
		}
		out[kv[0]] = w
	}
	return out, nil
}

// parseBook parses "name=host:port,name=host:port" address books.
func parseBook(s string) (map[string]string, error) {
	out := make(map[string]string)
	if strings.TrimSpace(s) == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 || kv[0] == "" || kv[1] == "" {
			return nil, fmt.Errorf("entry %q is not name=host:port", part)
		}
		out[kv[0]] = kv[1]
	}
	return out, nil
}
