package main

import "time"

// loadKind is how a workload offers load.
type loadKind int

const (
	// openLoad sends on a fixed schedule whatever the system does
	// (independent users); latency is timed from each request's due time.
	openLoad loadKind = iota
	// closedLoad keeps a fixed number of requests outstanding (callers
	// that wait for their reply): the capacity measurement.
	closedLoad
	// replayLoad reads committed history back through Deliver.
	replayLoad
)

// network names the modelled (or real) links between the processes' parts.
type network int

const (
	// lanNet is the in-process network with a Gigabit egress model and a
	// fixed 100 µs one-way delay.
	lanNet network = iota
	// wanNet is the in-process network with the paper's four-continent
	// placement (Section 6.3) and 5 % seeded jitter.
	wanNet
	// tcpNet is real loopback sockets: transport/tcp.go and the kernel.
	tcpNet
)

// workload is one set of inputs the benchmark runs. Everything not named
// here is the program's default (batch size 400, batch timeout 5 ms, 16
// signing workers, 2f+1 matching-copy release), so a change of a default
// shows in the numbers.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string

	Net     network
	Durable bool // nodes persist to the modelled disk
	// Storage settings of the capacity workload; zero keeps the default.
	RetainBlocks       uint64
	WALSegmentBytes    int64
	CheckpointInterval int64

	BlockSize int
	Payload   int // envelope payload bytes

	Load        loadKind
	Rate        int  // openLoad: requests per second
	Senders     int  // openLoad: sender goroutines sharing the schedule
	Outstanding int  // closedLoad: requests in flight
	ViaClient   bool // submit and receive through clientapi over TCP

	// Warmup is how long the load runs before the window opens; it is
	// part of set-up. On the capacity workload it also fills the retention
	// window (1024 blocks of 100), so compaction runs from the window's
	// first second.
	Warmup time.Duration

	// replayLoad: the chain built during set-up and how it is read back.
	PopulateBlocks int
	PopulateRate   int
	RangeBlocks    int

	// TraceEvery samples the request spans of a traced run: one request
	// in TraceEvery is kept, about a thousand a second.
	TraceEvery uint64
}

var workloads = []workload{
	{
		Name: "lan_open_200b",
		Why:  "Latency at 15% of capacity on a LAN with durable nodes: batch wait, three consensus phases, the decision-flush gate and one signature per 10 tx do the work; queueing does not hide them.",
		Net:  lanNet, Durable: true, BlockSize: 10, Payload: 200,
		Load: openLoad, Rate: 6000, Senders: 1, Warmup: 3 * time.Second,
		TraceEvery: 6,
	},
	{
		Name: "lan_sat_200b",
		Why:  "Capacity on a LAN with durable nodes and retention: pipeline depth, group-commit wave size, wire codecs and dedup bound it; signing is 10x rarer than in lan_open_200b, compaction runs in the window.",
		Net:  lanNet, Durable: true, BlockSize: 100, Payload: 200,
		RetainBlocks: 1024, WALSegmentBytes: 4 << 20, CheckpointInterval: 64,
		Load: closedLoad, Outstanding: 1024, Warmup: 3 * time.Second,
		TraceEvery: 40,
	},
	{
		Name: "tcp_open_200b_mem",
		Why:  "Only here are transport/tcp.go, the kernel and the clientapi codec on the path and storage absent: a transport or codec change must move this and nothing else; a storage change must not move it.",
		Net:  tcpNet, BlockSize: 10, Payload: 200,
		Load: openLoad, Rate: 6000, Senders: 2, ViaClient: true, Warmup: 3 * time.Second,
		TraceEvery: 6,
	},
	{
		Name: "wan_open_1k_mem",
		Why:  "The paper's headline: replicas on four continents, client in Virginia. Latency is injected delay times one-way steps on the critical path: CPU and storage changes predict no change, protocol ones do.",
		Net:  wanNet, BlockSize: 10, Payload: 1024,
		Load: openLoad, Rate: 1000, Senders: 1, Warmup: 4 * time.Second,
		TraceEvery: 1,
	},
	{
		Name: "lan_replay_1k",
		Why:  "Storage, core and clientapi used for reads: positioned log reads, fetch with f+1 verification, Deliver streaming of a committed 4000-block chain. A write-path win that costs reads shows only here.",
		Net:  lanNet, Durable: true, BlockSize: 10, Payload: 1024,
		Load: replayLoad, ViaClient: true, Senders: 2,
		PopulateBlocks: 4000, PopulateRate: 5000, RangeBlocks: 200,
		TraceEvery: 1,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
