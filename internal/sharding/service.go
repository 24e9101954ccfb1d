package sharding

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/transport"
)

// ServiceConfig shapes an in-process sharded ordering service: one
// core.Cluster per shard of the map, all on one shared network, each an
// independent consensus group with its own unified WAL, checkpointer,
// and retention domain (DataDir/shard-<k>/node-<i>).
type ServiceConfig struct {
	// Map is the shard registry; one cluster is built per listed shard.
	Map Map
	// NodesPerShard is each group's replica count (default 4).
	NodesPerShard int
	// F is each group's fault threshold (zero derives the maximum).
	F int

	// Per-node knobs, applied to every shard (see core.ClusterConfig).
	BlockSize          int
	BlockTimeout       time.Duration
	BatchSize          int
	CheckpointInterval int64
	RequestTimeout     time.Duration
	SigningWorkers     int
	DisableSigning     bool
	DataDir            string
	WALSegmentBytes    int64
	RetainBlocks       uint64
	RetainBytes        int64
	RetainWeights      map[string]float64

	// Network hosts every group; nil creates one (owned by the service).
	Network *transport.InProcNetwork

	// Metrics, when set, instruments every shard's cluster (and the
	// routers built with NewRouter) into one shared registry with
	// shard/node labels. Nil disables.
	Metrics *obs.Registry
}

// Service is a running in-process sharded ordering service: the per-shard
// clusters plus the shared network. Frontends and routers are built on
// top with NewRouter.
type Service struct {
	// Network is the transport all groups share.
	Network *transport.InProcNetwork
	// Clusters are the consensus groups, keyed by shard.
	Clusters map[ShardID]*core.Cluster

	cfg     ServiceConfig
	ownsNet bool
}

// NewService builds and starts one consensus group per shard of the map.
func NewService(cfg ServiceConfig) (*Service, error) {
	if err := cfg.Map.Validate(); err != nil {
		return nil, err
	}
	if cfg.NodesPerShard == 0 {
		cfg.NodesPerShard = 4
	}
	network := cfg.Network
	ownsNet := false
	if network == nil {
		network = transport.NewInProcNetwork(transport.InProcConfig{})
		ownsNet = true
	}
	s := &Service{
		Network:  network,
		Clusters: make(map[ShardID]*core.Cluster, len(cfg.Map.Shards)),
		cfg:      cfg,
		ownsNet:  ownsNet,
	}
	for _, shard := range cfg.Map.Shards {
		cluster, err := core.NewCluster(core.ClusterConfig{
			Nodes:              cfg.NodesPerShard,
			ShardID:            int(shard),
			F:                  cfg.F,
			BlockSize:          cfg.BlockSize,
			BlockTimeout:       cfg.BlockTimeout,
			BatchSize:          cfg.BatchSize,
			CheckpointInterval: cfg.CheckpointInterval,
			RequestTimeout:     cfg.RequestTimeout,
			SigningWorkers:     cfg.SigningWorkers,
			DisableSigning:     cfg.DisableSigning,
			Network:            network,
			DataDir:            cfg.DataDir,
			WALSegmentBytes:    cfg.WALSegmentBytes,
			RetainBlocks:       cfg.RetainBlocks,
			RetainBytes:        cfg.RetainBytes,
			RetainWeights:      cfg.RetainWeights,
			Metrics:            cfg.Metrics,
		})
		if err != nil {
			s.Stop()
			return nil, fmt.Errorf("sharding: shard %d: %w", shard, err)
		}
		s.Clusters[shard] = cluster
	}
	return s, nil
}

// Shards returns the shard set, sorted.
func (s *Service) Shards() []ShardID {
	out := make([]ShardID, 0, len(s.Clusters))
	for shard := range s.Clusters {
		out = append(out, shard)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Cluster returns one shard's consensus group (nil for unknown shards).
func (s *Service) Cluster(shard ShardID) *core.Cluster { return s.Clusters[shard] }

// NewRouter attaches one frontend per shard (ids idPrefix-shard-<k>) and
// builds a Router over them. verify selects the f+1 verified-signature
// release rule on every frontend. close releases the frontends (call it
// before Service.Stop).
func (s *Service) NewRouter(idPrefix string, verify bool) (router *Router, close func(), err error) {
	frontends := make(map[ShardID]*core.Frontend, len(s.Clusters))
	backends := make(map[ShardID]Backend, len(s.Clusters))
	closeAll := func() {
		for _, fe := range frontends {
			fe.Close()
		}
	}
	for _, shard := range s.Shards() {
		fe, err := s.Clusters[shard].NewFrontend(fmt.Sprintf("%s-shard-%d", idPrefix, shard), verify)
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("sharding: shard %d frontend: %w", shard, err)
		}
		frontends[shard] = fe
		backends[shard] = fe
	}
	router, err = NewRouter(s.cfg.Map, backends)
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	if s.cfg.Metrics != nil {
		router.InstrumentCross(obs.NewCrossShardMetrics(s.cfg.Metrics, "router", idPrefix))
		rt := router
		for _, shard := range s.Shards() {
			shard := shard
			s.cfg.Metrics.GaugeFunc(
				obs.Name("repro_router_broadcasts_routed", "router", idPrefix, "shard", fmt.Sprint(shard)),
				"Broadcasts this router sent to the shard.",
				func() float64 { return float64(rt.RoutedByShard()[shard]) })
		}
	}
	return router, closeAll, nil
}

// Stop shuts every group down and closes the network when the service
// created it.
func (s *Service) Stop() {
	for _, cluster := range s.Clusters {
		if cluster != nil {
			cluster.Stop()
		}
	}
	if s.ownsNet && s.Network != nil {
		s.Network.Close()
	}
}
