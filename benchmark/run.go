package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/fabric"
)

const (
	// coldStarts is how many times a run brings the service up from
	// nothing; set-up time uses the median, and the last one is kept.
	coldStarts = 3
	// drainTimeout is how long acknowledged requests may take to appear
	// on the Deliver stream after the senders stop before they count as
	// failed.
	drainTimeout = 5 * time.Second
	// progressTimeout bounds every wait for the service to make progress
	// during set-up; passing it is an error, not a measurement.
	progressTimeout = 60 * time.Second
	// stalledLateMs marks a run whose generator fell behind its schedule:
	// its latencies describe the generator, not the service.
	stalledLateMs = 10.0
)

// runOpts is one invocation of one workload.
type runOpts struct {
	w       workload
	seed    int64
	seconds int
	trace   bool
}

// detail is what a run knows beyond the result line: printed for humans
// and collected by the orchestrator.
type detail struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Seconds    int      `json:"seconds"`
	Traced     bool     `json:"traced"`
	Samples    int      `json:"samples"` // latency samples in the window
	Stalled    bool     `json:"stalled"`
	Violations []string `json:"violations,omitempty"`
	TraceFile  string   `json:"trace_file,omitempty"`
	Env        envInfo  `json:"env"`
	Network    string   `json:"network_model"`
	Disk       string   `json:"disk_model"`
}

// snapshot is the set of cumulative counters read when the measured
// window opens and again when it closes. Throughput is the requests
// delivered between the two instants over the time between them, both as
// measured.
type snapshot struct {
	at        time.Duration
	attempted uint64
	delivered uint64
	mem       runtime.MemStats
	cpu       time.Duration
	fe        core.FrontendStats
	replica   consensus.Stats
}

func takeSnapshot(rec *recorder, sys *system) snapshot {
	var s snapshot
	rec.mu.Lock()
	s.at, s.attempted, s.delivered = rec.now(), rec.attempted, rec.delivered
	rec.mu.Unlock()
	s.cpu, s.fe, s.replica = cpuTime(), sys.fe.Stats(), sys.nodes[0].Replica().Stats()
	runtime.ReadMemStats(&s.mem)
	return s
}

// run is the state of one workload run.
type run struct {
	opts runOpts
	root string // temp dir holding every data directory of the run

	in  instruments
	rec *recorder
	sys *system

	coldS, clusterStartMs, firstCommitMs []float64
	warm                                 time.Duration // warm-up (or populate) time
	open, shut                           snapshot
	txRead                               uint64    // replay: requests read back in the window
	reads, failedReads                   uint64    // replay range reads
	firstBlockMs                         []float64 // replay: request -> first block
	diskPeak                             int64

	values map[string]float64
}

// runWorkload executes one workload once and returns its result line.
func runWorkload(o runOpts) (result, detail, error) {
	r := &run{opts: o, values: make(map[string]float64)}
	d := detail{
		Workload: o.w.Name, Seed: o.seed, Seconds: o.seconds, Traced: o.trace,
		Network: networkModel(o.w), Disk: "none (in-memory nodes)",
	}
	backing := os.TempDir()
	d.Env = captureEnv(backing)
	if o.w.Durable {
		d.Disk = fmt.Sprintf("files under %s, every fsync/fdatasync/dir-sync replaced by a %v sleep", backing, modelledSyncDelay)
		free, err := freeBytes(backing)
		if err != nil {
			return result{}, d, err
		}
		if free < minFreeBytes {
			return result{}, d, fmt.Errorf("%s has %d MB free, durable workload %s needs %d MB",
				backing, free>>20, o.w.Name, minFreeBytes>>20)
		}
	}
	root, err := os.MkdirTemp(backing, "orderbench-")
	if err != nil {
		return result{}, d, err
	}
	r.root = root
	removeOnExit(root)
	defer os.RemoveAll(root)

	if err := r.setUp(); err != nil {
		return result{}, d, err
	}
	defer func() {
		if r.sys != nil {
			r.sys.close()
		}
	}()

	stopSampling := r.sampleDisk()
	switch o.w.Load {
	case openLoad:
		err = r.measureOpen()
	case closedLoad:
		err = r.measureClosed()
	case replayLoad:
		err = r.measureReplay()
	}
	stopSampling()
	if err != nil {
		return result{}, d, err
	}

	res, err := r.finish(&d)
	r.sys.close()
	r.sys = nil
	if err != nil {
		return result{}, d, err
	}
	// Read last: the high-water mark covers tear-down too.
	if !o.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return result{}, d, err
		}
		res.Metrics["peak_rss_mb"] = metric{Value: rss, Unit: "MB"}
	}
	return res, d, nil
}

func networkModel(w workload) string {
	switch w.Net {
	case wanNet:
		return fmt.Sprintf("in-process, 1 Gbit/s egress, EC2 inter-region one-way delays +/-%d%% seeded jitter; replicas Oregon/Ireland/Sydney/Sao Paulo, frontend Virginia", wanJitterPct)
	case tcpNet:
		return "real loopback TCP sockets (no injected delay)"
	}
	return fmt.Sprintf("in-process, 1 Gbit/s egress, fixed %v one-way delay", lanOneWay)
}

// setUp cold-starts the service coldStarts times — data directory, keys,
// cluster and storage open, dial, subscribe, first committed block — and
// keeps the last. The probe block is requests 0..BlockSize-1 of the run.
func (r *run) setUp() error {
	w := r.opts.w
	gen := newEnvGen(r.opts.seed, w.Payload)
	for i := 0; i < coldStarts; i++ {
		begin := time.Now()
		if r.opts.trace {
			r.in = newInstruments()
		}
		rec := newRecorder(gen, w.Outstanding)
		if w.Load == replayLoad {
			rec.chain.record = make(map[uint64]cryptoutil.Digest, w.PopulateBlocks)
		}
		dir := filepath.Join(r.root, fmt.Sprintf("start-%d", i))
		sys, err := startSystem(w, dir, r.opts.seed, r.in, rec.onBlock)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		started := time.Now()
		first := sys.submit
		if sys.confirm != nil {
			first = sys.confirm
		}
		for seq := uint64(0); seq < uint64(w.BlockSize); seq++ {
			submit := sys.submit
			if seq == 0 {
				submit = first
			}
			rec.send(seq, rec.now(), submit)
		}
		select {
		case <-rec.firstBlock:
		case <-time.After(progressTimeout):
			sys.close()
			return errors.New("set-up: the probe block was not delivered")
		}
		done := time.Now()
		r.coldS = append(r.coldS, done.Sub(begin).Seconds())
		r.clusterStartMs = append(r.clusterStartMs, float64(started.Sub(begin))/1e6)
		r.firstCommitMs = append(r.firstCommitMs, float64(done.Sub(started))/1e6)
		if i < coldStarts-1 {
			sys.close()
			if err := os.RemoveAll(dir); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			continue
		}
		r.rec, r.sys = rec, sys
	}
	if r.opts.trace {
		r.rec.spans = newSpanLog(w.TraceEvery, r.sys.submitSpan)
	}
	return nil
}

// sampleDisk tracks the data directories' peak size during a traced run
// of a durable workload. The returned function stops the sampler.
func (r *run) sampleDisk() (stop func()) {
	if !r.opts.trace || !r.opts.w.Durable {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for {
			if n := dirBytes(r.root); n > r.diskPeak {
				r.diskPeak = n
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

func (r *run) send(seq uint64, due time.Duration) { r.rec.send(seq, due, r.sys.submit) }

// sleepUntil blocks until the recorder's clock reads t.
func (r *run) sleepUntil(t time.Duration) {
	if wait := t - r.rec.now(); wait > 0 {
		time.Sleep(wait)
	}
}

// measureOpen runs the fixed-rate schedule: warm-up, then the window.
func (r *run) measureOpen() error {
	w := r.opts.w
	loop := openLoop{
		rate: w.Rate, senders: w.Senders, first: uint64(w.BlockSize),
		origin: r.rec.now() + time.Millisecond, now: r.rec.now, sleep: time.Sleep,
	}
	winOpen := loop.origin + w.Warmup
	winClose := winOpen + time.Duration(r.opts.seconds)*time.Second
	r.rec.winOpen.Store(int64(winOpen))
	r.rec.winClose.Store(int64(winClose))

	next := make(chan uint64, 1)
	go func() { next <- loop.run(winClose, r.send) }()
	r.sleepUntil(winOpen)
	r.open = takeSnapshot(r.rec, r.sys)
	r.warm = r.open.at - (loop.origin - time.Millisecond)
	r.sleepUntil(winClose)
	r.shut = takeSnapshot(r.rec, r.sys)
	r.flush(<-next)
	return nil
}

// measureClosed saturates the service: warm-up, then the window.
func (r *run) measureClosed() error {
	begin := r.rec.now()
	winOpen := begin + r.opts.w.Warmup
	winClose := winOpen + time.Duration(r.opts.seconds)*time.Second
	r.rec.winOpen.Store(int64(winOpen))
	r.rec.winClose.Store(int64(winClose))

	stop := make(chan struct{})
	next := make(chan uint64, 1)
	go func() { next <- closedLoop(r.rec, uint64(r.opts.w.BlockSize), stop, r.sys.submit) }()
	r.sleepUntil(winOpen)
	r.open = takeSnapshot(r.rec, r.sys)
	r.warm = r.open.at - begin
	r.sleepUntil(winClose)
	r.shut = takeSnapshot(r.rec, r.sys)
	close(stop)
	r.flush(<-next)
	return nil
}

// flush completes the last block — nodes cut a block only when BlockSize
// envelopes are pending, so the tail of the run is padded to a multiple —
// then waits for everything acknowledged to be delivered.
func (r *run) flush(next uint64) {
	size := uint64(r.opts.w.BlockSize)
	for ; next%size != 0; next++ {
		r.send(next, r.rec.now())
	}
	r.rec.drain(drainTimeout)
}

// measureReplay builds the chain (set-up), then reads it back range by
// range through one client connection, pass after pass, until the window
// has passed.
func (r *run) measureReplay() error {
	w := r.opts.w
	begin := r.rec.now()
	total := uint64(w.PopulateBlocks * w.BlockSize)
	loop := openLoop{
		rate: w.PopulateRate, senders: w.Senders, first: uint64(w.BlockSize),
		origin: begin + time.Millisecond, now: r.rec.now, sleep: time.Sleep,
	}
	loop.run(loop.due(total), r.send)
	r.rec.drain(drainTimeout)
	deadline := time.Now().Add(progressTimeout)
	for _, node := range r.sys.nodes {
		for node.PersistWatermark(benchChannel) < uint64(w.PopulateBlocks) {
			if time.Now().After(deadline) {
				return fmt.Errorf("populate: node %d persisted %d of %d blocks",
					node.ID(), node.PersistWatermark(benchChannel), w.PopulateBlocks)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	head := r.sys.nodes[0].PersistWatermark(benchChannel) - 1

	r.rec.mu.Lock()
	populated := r.rec.chain.record
	r.rec.mu.Unlock()
	reader := chainChecker{want: populated, v: &r.rec.viol}

	ranges := (head + 1) / uint64(w.RangeBlocks)
	if ranges == 0 {
		return fmt.Errorf("populate: head %d is below one range of %d blocks", head, w.RangeBlocks)
	}
	r.open = takeSnapshot(r.rec, r.sys)
	r.warm = r.open.at - begin
	winClose := r.open.at + time.Duration(r.opts.seconds)*time.Second
	// Whole passes only: the newest quarter of the chain is served from the
	// frontend's history and reads faster than the rest, so a run that
	// stopped mid-pass would measure whichever mix its seed started on. The
	// window therefore closes up to one pass (about 1.5 s) late.
	start := uint64(r.opts.seed) % ranges
	for r.rec.now() < winClose {
		for i := uint64(0); i < ranges; i++ {
			from := (start + i) % ranges * uint64(w.RangeBlocks)
			r.readRange(&reader, from, from+uint64(w.RangeBlocks)-1)
		}
	}
	r.shut = takeSnapshot(r.rec, r.sys)
	return nil
}

// readRange is one request of the replay workload: Deliver blocks
// from..to and check each against what was delivered while populating.
func (r *run) readRange(reader *chainChecker, from, to uint64) {
	r.reads++
	called := r.rec.now()
	stream, err := r.sys.api.Deliver(benchChannel, fabric.DeliverFrom(from).Through(to))
	if err != nil {
		r.failedReads++
		r.rec.viol.addf("range %d..%d: %v", from, to, err)
		return
	}
	reader.restart()
	var firstAt time.Duration
	want := from
	var txs uint64
	for b := range stream.Blocks() {
		if want == from {
			firstAt = r.rec.now()
		}
		if b.Header.Number != want {
			r.rec.viol.addf("range %d..%d: block %d where %d was due", from, to, b.Header.Number, want)
		}
		reader.add(b)
		want = b.Header.Number + 1
		txs += uint64(len(b.Envelopes))
	}
	end := r.rec.now()
	if err := stream.Err(); err != nil || want != to+1 {
		r.failedReads++
		r.rec.viol.addf("range %d..%d ended at block %d: %v", from, to, want, err)
		return
	}
	r.txRead += txs
	r.rec.mu.Lock()
	r.rec.latMs = append(r.rec.latMs, float64(end-called)/1e6)
	r.rec.mu.Unlock()
	r.firstBlockMs = append(r.firstBlockMs, float64(firstAt-called)/1e6)
	if r.rec.spans != nil {
		id := r.reads
		r.rec.spans.add(span{Name: "loadgen.range_read", ID: id, StartNs: int64(called), EndNs: int64(end)})
		r.rec.spans.add(span{Name: "clientapi.deliver_first_block", ID: id, Parent: "loadgen.range_read", StartNs: int64(called), EndNs: int64(firstAt)})
		r.rec.spans.add(span{Name: "clientapi.deliver_stream", ID: id, Parent: "loadgen.range_read", StartNs: int64(firstAt), EndNs: int64(end)})
	}
}

// finish checks correctness and turns what the run recorded into the
// metrics of the requested kind.
func (r *run) finish(d *detail) (result, error) {
	w := r.opts.w
	rec := r.rec

	lost, duplicated := rec.exactlyOnce()
	if lost > 0 {
		rec.viol.addf("%d acknowledged requests were not delivered within %v", lost, drainTimeout)
	}
	if duplicated > 0 {
		rec.viol.addf("%d requests were delivered more than once", duplicated)
	}
	checkLedgersAgree(r.sys.nodes, benchChannel, &rec.viol)
	var leaderChanges, dropped float64
	for _, node := range r.sys.nodes {
		st := node.Replica().Stats()
		leaderChanges += float64(st.LeaderChanges)
		dropped += float64(st.DroppedReqs)
	}
	if leaderChanges > 0 {
		rec.viol.addf("%v leader changes during the run", leaderChanges)
	}

	violated, msgs := rec.viol.snapshot()
	d.Violations = msgs
	rec.mu.Lock()
	attempted := rec.attempted + r.reads
	failed := rec.refused + lost + duplicated + rec.foreign + r.failedReads
	if v := uint64(violated); v > failed {
		failed = v // every violation is at least one failed operation
	}
	rec.mu.Unlock()
	txWindow := r.shut.delivered - r.open.delivered
	backlog := float64(r.shut.attempted) - float64(r.shut.delivered)
	if w.Load == replayLoad {
		txWindow, backlog = r.txRead, 0
	}

	lat := rec.samples(&rec.latMs)
	d.Samples = len(lat)
	if len(lat) == 0 || txWindow == 0 {
		return result{}, errors.New("nothing was delivered inside the measured window")
	}
	lateP99 := percentile(sortedCopy(rec.samples(&rec.lateMs)), 99)
	d.Stalled = lateP99 > stalledLateMs

	secs := (r.shut.at - r.open.at).Seconds()
	tx := float64(txWindow)
	p50 := slicedPercentile(lat, r.opts.seconds, 50)
	p90 := slicedPercentile(lat, r.opts.seconds, 90)
	throughput := tx / secs
	if w.Load == openLoad {
		// An open loop delivers in bursts of a consensus batch, so a count
		// between two instants jumps by a batch (3 % of the WAN window).
		// Measure completion instead: the requests due inside the window
		// that were delivered, over the time from the window's opening to
		// the last of those deliveries. It equals the offered rate less the
		// final request's latency, and falls when the service falls behind.
		rec.mu.Lock()
		throughput = float64(len(lat)) / (rec.lastWindowed - time.Duration(rec.winOpen.Load())).Seconds()
		rec.mu.Unlock()
	}
	v := r.values
	if !r.opts.trace {
		v["latency_p50_ms"] = p50
		v["latency_p90_ms"] = p90
		v["throughput_tx_s"] = throughput
		v["alloc_kb_per_tx"] = float64(r.shut.mem.TotalAlloc-r.open.mem.TotalAlloc) / 1024 / tx
		v["setup_s"] = median(r.coldS) + r.warm.Seconds()
		v["peak_rss_mb"] = 0 // filled in after tear-down
	} else {
		v["loadgen.traced_latency_p50_ms"] = p50
		v["loadgen.traced_throughput_tx_s"] = throughput
		v["loadgen.latency_p99_ms"] = percentile(sortedCopy(lat), 99)
		v["loadgen.late_p99_ms"] = lateP99
		v["loadgen.backlog_end"] = backlog
		v["loadgen.failed_ratio"] = float64(failed) / float64(attempted)
		if d.Stalled {
			v["loadgen.stalled"] = 1
		}
		v["process.cpu_us_per_tx"] = float64(r.shut.cpu-r.open.cpu) / 1e3 / tx
		v["process.gc_cycles_per_s"] = float64(r.shut.mem.NumGC-r.open.mem.NumGC) / secs
		v["process.mallocs_per_tx"] = float64(r.shut.mem.Mallocs-r.open.mem.Mallocs) / tx
		v["consensus.leader_changes"] = leaderChanges
		v["consensus.dropped_requests"] = dropped
		v["core.cluster_start_ms"] = median(r.clusterStartMs)
		v["core.first_commit_ms"] = median(r.firstCommitMs)
		if len(r.firstBlockMs) > 0 {
			v["clientapi.deliver_first_block_p50_ms"] = median(r.firstBlockMs)
		}
		if rpc := rec.samples(&rec.rpcUs); len(rpc) > 0 {
			v[r.sys.submitSpan+"_p50_us"] = percentile(sortedCopy(rpc), 50)
		}
		r.layerMetrics()
		if err := runProbes(v); err != nil {
			return result{}, err
		}
		path, err := rec.spans.write(w.Name)
		if err != nil {
			return result{}, err
		}
		d.TraceFile = path
	}

	defs := endToEnd
	if r.opts.trace {
		defs = perLayer
	}
	metrics, err := report(defs, v, !r.opts.trace)
	if err != nil {
		return result{}, err
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// layerMetrics reads the in-situ layer figures of a traced run: the obs
// families the program already keeps, replica and frontend counters over
// the window, the network tap and the commit-wave hook. Ratios per request
// use whole-run totals (warm-up is the same traffic as the window).
func (r *run) layerMetrics() {
	v := r.values
	reg := r.in.registry
	secs := (r.shut.at - r.open.at).Seconds()

	p50ms := func(family string) float64 { return reg.Family(family).Quantile(0.5) * 1000 }
	v["consensus.stage_decide_p50_ms"] = p50ms("repro_stage_decide_seconds")
	v["core.stage_disseminate_p50_ms"] = p50ms("repro_stage_disseminate_seconds")
	v["core.stage_deliver_p50_ms"] = p50ms("repro_stage_deliver_seconds")
	v["core.stage_total_p50_ms"] = p50ms("repro_stage_total_seconds")

	decided := float64(r.shut.replica.Decided - r.open.replica.Decided)
	if decided > 0 {
		v["consensus.ops_per_batch"] = float64(r.shut.replica.DeliveredOps-r.open.replica.DeliveredOps) / decided
	}
	v["consensus.decisions_per_s"] = decided / secs
	blocks := float64(r.shut.fe.BlocksReleased - r.open.fe.BlocksReleased)
	v["core.blocks_per_s"] = blocks / secs
	if blocks > 0 {
		v["core.envelopes_per_block"] = float64(r.shut.fe.EnvelopesDelivered-r.open.fe.EnvelopesDelivered) / blocks
	}

	r.rec.mu.Lock()
	txAll := float64(r.rec.delivered)
	r.rec.mu.Unlock()
	if txAll == 0 {
		return
	}
	tap := r.in.tap
	v["transport.msgs_per_tx"] = float64(tap.msgs.Load()) / txAll
	v["transport.bytes_per_tx"] = float64(tap.bytes.Load()) / txAll
	v["transport.block_bytes_per_tx"] = float64(tap.blockBytes.Load()) / txAll
	v["transport.consensus_bytes_per_tx"] = float64(tap.bytes.Load()-tap.blockBytes.Load()) / txAll

	if !r.opts.w.Durable {
		return
	}
	// Storage counters are summed over the nodes; report one node's share.
	sum := func(family string) float64 {
		var total float64
		for _, p := range reg.Family(family).Points {
			total += p.Value
		}
		return total / clusterNodes
	}
	v["storage.stage_fsync_p50_ms"] = p50ms("repro_stage_fsync_seconds")
	v["storage.fsyncs_per_tx"] = sum("repro_wal_fsync_total") / txAll
	v["storage.commit_waves_per_tx"] = float64(r.in.waves.Load()) / clusterNodes / txAll
	v["storage.bytes_written_per_tx"] = sum("repro_wal_bytes_written_total") / txAll
	if waves := reg.Family("repro_storage_wave_size"); waves.Count() > 0 {
		v["storage.wave_size_mean"] = sum("repro_storage_wave_size") * clusterNodes / float64(waves.Count())
	}
	v["storage.disk_peak_mb"] = float64(r.diskPeak) / (1 << 20)
}
