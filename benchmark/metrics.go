package main

import "fmt"

// metricDef names one reported metric. Bound is the share of the previous
// median by which an end-to-end metric may get worse before a change counts
// as a regression; per-layer metrics are diagnostics and carry none.
// BENCHMARK.json lists the same tables (TestBenchmarkJSONMatches).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd is what a user of the ordering service sees. Every workload
// reports every one of them from its untraced run.
//
// latency_* is timed from the instant a request was due to its appearance
// in a block on the client's Deliver stream; on lan_replay_1k a request is
// one Deliver range read and its latency runs to the range's last block.
// Both are the median over one-second slices of the window of the slice's
// percentile (slicedPercentile): the pooled p90 over TCP spread 7.9 %
// between runs, the sliced one 1.8 %. The bounds are sized by the TCP
// workload, whose tail has quiet and loud spells of minutes on the shared
// reference machine (one sweep of ten runs spread 3.9 % at p50 and 13.4 %
// at p90 while the in-process workloads next to it stayed within 1.5 %).
// p99 is reported as a layer metric only: its run-to-run range reached
// 16-40 %, wider than any bound worth gating on. peak_rss_mb is an
// extreme value that depends on where the collector's cycle stood when the
// heap was largest; its spread reached 7 %, hence the wide bound.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms", "lower", 0.12},
	{"latency_p90_ms", "ms", "lower", 0.24},
	{"throughput_tx_s", "1/s", "higher", 0.12},
	{"alloc_kb_per_tx", "kB", "lower", 0.06},
	{"peak_rss_mb", "MB", "lower", 0.24},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is reported by the traced run: in-situ figures of the traced
// workload (obs families, replica stats, the network tap, the benchmark's
// own spans) and probes that time one layer's public functions alone.
// Names are <package>.<metric>. An in-situ metric whose layer is not on a
// workload's path (storage.* on the _mem workloads) reads 0 there.
var perLayer = []metricDef{
	{"consensus.stage_decide_p50_ms", "ms", "lower", 0},
	{"consensus.ops_per_batch", "count", "higher", 0},
	{"consensus.decisions_per_s", "1/s", "higher", 0},
	{"consensus.leader_changes", "count", "lower", 0},
	{"consensus.dropped_requests", "count", "lower", 0},
	{"consensus.probe_ops_per_s", "1/s", "higher", 0},
	{"consensus.probe_decide_p50_ms", "ms", "lower", 0},

	{"storage.stage_fsync_p50_ms", "ms", "lower", 0},
	{"storage.fsyncs_per_tx", "count", "lower", 0},
	{"storage.commit_waves_per_tx", "count", "lower", 0},
	{"storage.wave_size_mean", "count", "higher", 0},
	{"storage.bytes_written_per_tx", "B", "lower", 0},
	{"storage.disk_peak_mb", "MB", "lower", 0},
	{"storage.probe_append_sync_p50_us", "us", "lower", 0},
	{"storage.probe_group_appends_per_s", "1/s", "higher", 0},
	{"storage.probe_put_block_async_per_s", "1/s", "higher", 0},
	{"storage.probe_read_blocks_per_s", "1/s", "higher", 0},
	{"storage.probe_open_recover_ms", "ms", "lower", 0},

	{"cryptoutil.sign_us", "us", "lower", 0},
	{"cryptoutil.verify_us", "us", "lower", 0},
	{"cryptoutil.hash_1k_ns", "ns", "lower", 0},
	{"cryptoutil.pool_signs_per_s", "1/s", "higher", 0},

	{"transport.msgs_per_tx", "count", "lower", 0},
	{"transport.bytes_per_tx", "B", "lower", 0},
	{"transport.consensus_bytes_per_tx", "B", "lower", 0},
	{"transport.block_bytes_per_tx", "B", "lower", 0},
	{"transport.probe_tcp_rtt_p50_us", "us", "lower", 0},
	{"transport.probe_tcp_msgs_per_s_256b", "1/s", "higher", 0},
	{"transport.probe_tcp_mb_per_s_64k", "MB/s", "higher", 0},
	{"transport.probe_inproc_msgs_per_s", "1/s", "higher", 0},

	{"clientapi.broadcast_rpc_p50_us", "us", "lower", 0},
	{"clientapi.deliver_first_block_p50_ms", "ms", "lower", 0},
	{"clientapi.probe_broadcast_rpcs_per_s", "1/s", "higher", 0},
	{"clientapi.probe_deliver_blocks_per_s", "1/s", "higher", 0},

	{"core.frontend_broadcast_p50_us", "us", "lower", 0},
	{"core.stage_disseminate_p50_ms", "ms", "lower", 0},
	{"core.stage_deliver_p50_ms", "ms", "lower", 0},
	{"core.stage_total_p50_ms", "ms", "lower", 0},
	{"core.blocks_per_s", "1/s", "higher", 0},
	{"core.envelopes_per_block", "count", "higher", 0},
	{"core.cluster_start_ms", "ms", "lower", 0},
	{"core.first_commit_ms", "ms", "lower", 0},
	{"core.probe_solo_tx_s", "1/s", "higher", 0},

	{"fabric.envelope_marshal_ns", "ns", "lower", 0},
	{"fabric.envelope_unmarshal_ns", "ns", "lower", 0},
	{"fabric.envelope_unmarshal_allocs", "count", "lower", 0},
	{"fabric.block_marshal_ns", "ns", "lower", 0},
	{"fabric.block_unmarshal_ns", "ns", "lower", 0},
	{"fabric.blockcutter_append_ns", "ns", "lower", 0},
	{"fabric.ledger_append_ns", "ns", "lower", 0},
	{"wire.writer_put_ns", "ns", "lower", 0},

	{"loadgen.late_p99_ms", "ms", "lower", 0},
	{"loadgen.latency_p99_ms", "ms", "lower", 0},
	{"loadgen.backlog_end", "count", "lower", 0},
	{"loadgen.failed_ratio", "ratio", "lower", 0},
	{"loadgen.stalled", "count", "lower", 0},
	{"loadgen.traced_latency_p50_ms", "ms", "lower", 0},
	{"loadgen.traced_throughput_tx_s", "1/s", "higher", 0},
	{"process.cpu_us_per_tx", "us", "lower", 0},
	{"process.gc_cycles_per_s", "1/s", "lower", 0},
	{"process.mallocs_per_tx", "count", "lower", 0},
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: exactly these keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report pairs every definition with its measured value. A missing
// end-to-end value is a bug in the run; a missing layer value means the
// layer was not on this workload's path and reads 0.
func report(defs []metricDef, values map[string]float64, requireAll bool) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && requireAll {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out, nil
}
