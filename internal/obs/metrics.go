package obs

import "sync"

// Domain bundles: one struct of instruments per subsystem, created against
// a registry with identifying labels (node, frontend, ...). A nil registry
// yields a nil bundle; callers normalize once with OrNop() and then use the
// fields unconditionally — nil instruments discard updates, so the disabled
// path is a nil check per call and nothing else.

// StorageMetrics instruments the unified commit log: group-commit waves,
// fsyncs, WAL segments and bytes, checkpointing, and retention.
type StorageMetrics struct {
	WaveTotal          *Counter
	WaveSize           *Histogram
	WaveFailures       *Counter
	FsyncTotal         *Counter
	FsyncSeconds       *Histogram
	BytesWritten       *Counter
	SegmentRotations   *Counter
	Segments           *Gauge
	CheckpointSaved    *Counter
	CheckpointDeferred *Counter
	PruneTotal         *Counter
	LogPoisoned        *Counter
	ScrubPasses        *Counter
	ScrubCorrupt       *Counter
	RepairedBlocks     *Counter
}

// NewStorageMetrics registers the storage instrument set under the given
// label pairs. Returns nil when r is nil.
func NewStorageMetrics(r *Registry, kv ...string) *StorageMetrics {
	if r == nil {
		return nil
	}
	return &StorageMetrics{
		WaveTotal:          r.Counter(Name("repro_storage_wave_total", kv...), "Group-commit waves flushed."),
		WaveSize:           r.Histogram(Name("repro_storage_wave_size", kv...), "Records committed per group-commit wave.", SizeBuckets()),
		WaveFailures:       r.Counter(Name("repro_storage_wave_failures_total", kv...), "Group-commit waves that failed to write or sync."),
		FsyncTotal:         r.Counter(Name("repro_wal_fsync_total", kv...), "WAL fsync (fdatasync) calls."),
		FsyncSeconds:       r.Histogram(Name("repro_wal_fsync_seconds", kv...), "WAL fsync latency in seconds.", nil),
		BytesWritten:       r.Counter(Name("repro_wal_bytes_written_total", kv...), "Bytes appended to the WAL."),
		SegmentRotations:   r.Counter(Name("repro_wal_segment_rotations_total", kv...), "WAL segment rotations."),
		Segments:           r.Gauge(Name("repro_wal_segments", kv...), "Live WAL segment files."),
		CheckpointSaved:    r.Counter(Name("repro_storage_checkpoint_saved_total", kv...), "Consensus checkpoints saved to disk."),
		CheckpointDeferred: r.Counter(Name("repro_storage_checkpoint_deferred_total", kv...), "Checkpoint saves deferred by the persist-watermark gate."),
		PruneTotal:         r.Counter(Name("repro_storage_prune_total", kv...), "Retention prune passes that reclaimed segments."),
		LogPoisoned:        r.Counter(Name("repro_storage_log_poisoned_total", kv...), "Commit-log poisonings after a failed wave fsync (fail-fast; at most 1)."),
		ScrubPasses:        r.Counter(Name("repro_storage_scrub_passes_total", kv...), "Completed background scrub passes over the retained log."),
		ScrubCorrupt:       r.Counter(Name("repro_storage_scrub_corrupt_total", kv...), "Corrupt records found by the scrubber."),
		RepairedBlocks:     r.Counter(Name("repro_storage_repaired_blocks_total", kv...), "Corrupt block records repaired from verified peer copies."),
	}
}

// OrNop returns an all-nil bundle when m is nil so field access is safe.
func (m *StorageMetrics) OrNop() *StorageMetrics {
	if m == nil {
		return &StorageMetrics{}
	}
	return m
}

// NodeMetrics instruments the ordering node's hot path: the per-stage
// latency trace from client broadcast to block dissemination, sealed
// blocks, and the per-channel persist watermark. It keeps the registry so
// the node can hang per-channel gauges and scrape-time gauge functions
// (consensus stats, watermark minimum) off the same label set.
type NodeMetrics struct {
	StageDecide      *Histogram // client broadcast -> consensus decided (block sealed)
	StageDecideLast  *Histogram // the same from the block's last envelope
	StageFsync       *Histogram // decided -> decision durable on the send drain
	StageDisseminate *Histogram // durable -> block handed to dissemination
	BlocksSealed     *Counter
	DisseminatedLag  *Gauge // unix nanos of the last dissemination, for lag probes

	reg *Registry
	kv  []string

	mu         sync.Mutex
	watermarks map[string]*Gauge
}

// NewNodeMetrics registers the node instrument set. Returns nil when r is nil.
func NewNodeMetrics(r *Registry, kv ...string) *NodeMetrics {
	if r == nil {
		return nil
	}
	return &NodeMetrics{
		StageDecide:      r.Histogram(Name("repro_stage_decide_seconds", kv...), "Client broadcast to consensus decision (block sealed).", nil),
		StageDecideLast:  r.Histogram(Name("repro_stage_decide_last_seconds", kv...), "Client broadcast of a block's last envelope to consensus decision (block sealed).", nil),
		StageFsync:       r.Histogram(Name("repro_stage_fsync_seconds", kv...), "Consensus decision to decision-record durability on the send drain.", nil),
		StageDisseminate: r.Histogram(Name("repro_stage_disseminate_seconds", kv...), "Decision durability to block dissemination.", nil),
		BlocksSealed:     r.Counter(Name("repro_node_blocks_sealed_total", kv...), "Blocks cut and sealed by this node."),
		DisseminatedLag:  r.Gauge(Name("repro_node_last_disseminate_unixnano", kv...), "Unix nanos of the most recent block dissemination."),
		reg:              r,
		kv:               kv,
	}
}

// OrNop returns an all-nil bundle when m is nil so field access is safe.
func (m *NodeMetrics) OrNop() *NodeMetrics {
	if m == nil {
		return &NodeMetrics{}
	}
	return m
}

// Watermark returns (registering on first use) the persist-watermark gauge
// for a channel, labeled with the bundle's labels plus the channel. Nil for
// a nop bundle.
func (m *NodeMetrics) Watermark(channel string) *Gauge {
	if m == nil || m.reg == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if g, ok := m.watermarks[channel]; ok {
		return g
	}
	kv := append(append([]string{}, m.kv...), "channel", channel)
	g := m.reg.Gauge(Name("repro_node_persist_watermark", kv...),
		"Per-channel persist watermark: every block below it is durable on this node.")
	if m.watermarks == nil {
		m.watermarks = make(map[string]*Gauge)
	}
	m.watermarks[channel] = g
	return g
}

// GaugeFunc registers a scrape-time gauge under the bundle's labels.
func (m *NodeMetrics) GaugeFunc(family, help string, fn func() float64) {
	if m == nil || m.reg == nil {
		return
	}
	m.reg.GaugeFunc(Name(family, m.kv...), help, fn)
}

// FrontendMetrics instruments the frontend's release path: the tail of the
// stage trace (dissemination to 2f+1/f+1 release, and the full broadcast to
// deliver span), released blocks/envelopes, and the backpressure window.
type FrontendMetrics struct {
	StageDeliver *Histogram // dissemination -> released at this frontend
	StageTotal   *Histogram // client broadcast -> released at this frontend
	Blocks       *Counter
	Envelopes    *Counter

	reg *Registry
	kv  []string
}

// NewFrontendMetrics registers the frontend instrument set. Returns nil
// when r is nil.
func NewFrontendMetrics(r *Registry, kv ...string) *FrontendMetrics {
	if r == nil {
		return nil
	}
	return &FrontendMetrics{
		StageDeliver: r.Histogram(Name("repro_stage_deliver_seconds", kv...), "Block dissemination to quorum release at the frontend.", nil),
		StageTotal:   r.Histogram(Name("repro_stage_total_seconds", kv...), "Client broadcast to quorum release at the frontend (end to end).", nil),
		Blocks:       r.Counter(Name("repro_frontend_blocks_total", kv...), "Blocks released after meeting the signature quorum."),
		Envelopes:    r.Counter(Name("repro_frontend_envelopes_total", kv...), "Envelopes in released blocks."),
		reg:          r,
		kv:           kv,
	}
}

// OrNop returns an all-nil bundle when m is nil so field access is safe.
func (m *FrontendMetrics) OrNop() *FrontendMetrics {
	if m == nil {
		return &FrontendMetrics{}
	}
	return m
}

// GaugeFunc registers a scrape-time gauge under the bundle's labels.
func (m *FrontendMetrics) GaugeFunc(family, help string, fn func() float64) {
	if m == nil || m.reg == nil {
		return
	}
	m.reg.GaugeFunc(Name(family, m.kv...), help, fn)
}

// ClientAPIMetrics instruments the TCP client surface: connection churn and
// live deliver streams.
type ClientAPIMetrics struct {
	Connections      *Gauge
	ConnectionsTotal *Counter
	DeliverStreams   *Gauge
	Broadcasts       *Counter
}

// NewClientAPIMetrics registers the clientapi instrument set. Returns nil
// when r is nil.
func NewClientAPIMetrics(r *Registry, kv ...string) *ClientAPIMetrics {
	if r == nil {
		return nil
	}
	return &ClientAPIMetrics{
		Connections:      r.Gauge(Name("repro_clientapi_connections", kv...), "Open client connections."),
		ConnectionsTotal: r.Counter(Name("repro_clientapi_connections_total", kv...), "Client connections accepted since start."),
		DeliverStreams:   r.Gauge(Name("repro_clientapi_deliver_streams", kv...), "Live Deliver streams."),
		Broadcasts:       r.Counter(Name("repro_clientapi_broadcasts_total", kv...), "Broadcast envelopes received over the client API."),
	}
}

// OrNop returns an all-nil bundle when m is nil so field access is safe.
func (m *ClientAPIMetrics) OrNop() *ClientAPIMetrics {
	if m == nil {
		return &ClientAPIMetrics{}
	}
	return m
}
