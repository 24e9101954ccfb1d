package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clientapi"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/fabric"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Probes time one layer's public functions with nothing else running: an
// upper bound for what that layer can contribute in a workload, and the
// number to look at first when an end-to-end metric moved. Each is short
// (well under a second); together they add about ten seconds to a traced
// run.

const (
	probeSlice     = 300 * time.Millisecond // how long a rate probe runs
	probePayload   = 1024
	probeBlockTxs  = 10
	probeChain     = 2000 // blocks written, read back and recovered
	probeInFlight  = 1024 // outstanding requests of the closed-loop probes
	probeGroupSize = 8    // concurrent appenders of the group-commit probe
)

// runProbes fills in every probe_* and micro-operation metric.
func runProbes(v map[string]float64) error {
	probeFabric(v)
	if err := probeCrypto(v); err != nil {
		return fmt.Errorf("probe cryptoutil: %w", err)
	}
	if err := probeStorage(v); err != nil {
		return fmt.Errorf("probe storage: %w", err)
	}
	if err := probeTransport(v); err != nil {
		return fmt.Errorf("probe transport: %w", err)
	}
	if err := probeClientAPI(v); err != nil {
		return fmt.Errorf("probe clientapi: %w", err)
	}
	if err := probeConsensus(v); err != nil {
		return fmt.Errorf("probe consensus: %w", err)
	}
	if err := probeSolo(v); err != nil {
		return fmt.Errorf("probe solo: %w", err)
	}
	return nil
}

// sink keeps results alive so the compiler cannot drop the timed calls.
var sink any

// nsPerOp is the median cost of f in nanoseconds over five batches, each
// sized to run for about 20 ms.
func nsPerOp(f func()) float64 {
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if time.Since(start) >= 20*time.Millisecond || n >= 1<<24 {
			break
		}
		n *= 2
	}
	batches := make([]float64, 5)
	for b := range batches {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		batches[b] = float64(time.Since(start)) / float64(n)
	}
	return median(batches)
}

func probeEnvelope() *fabric.Envelope {
	return newEnvGen(1, probePayload).envelope(7, time.Now().UnixNano())
}

// probeBlocks builds a hash-linked chain of n blocks of 10 x 1 KB.
func probeBlocks(n int) []*fabric.Block {
	gen := newEnvGen(1, probePayload)
	blocks := make([]*fabric.Block, n)
	var prev cryptoutil.Digest
	for i := range blocks {
		envs := make([][]byte, probeBlockTxs)
		for j := range envs {
			envs[j] = gen.envelope(uint64(i*probeBlockTxs+j), 0).Marshal()
		}
		blocks[i] = fabric.NewBlock(uint64(i), prev, envs)
		prev = blocks[i].Header.Hash()
	}
	return blocks
}

func probeFabric(v map[string]float64) {
	env := probeEnvelope()
	raw := env.Marshal()
	v["fabric.envelope_marshal_ns"] = nsPerOp(func() { sink = env.Marshal() })
	v["fabric.envelope_unmarshal_ns"] = nsPerOp(func() { sink, _ = fabric.UnmarshalEnvelope(raw) })

	const allocRuns = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocRuns; i++ {
		sink, _ = fabric.UnmarshalEnvelope(raw)
	}
	runtime.ReadMemStats(&after)
	v["fabric.envelope_unmarshal_allocs"] = float64(after.Mallocs-before.Mallocs) / allocRuns

	block := probeBlocks(1)[0]
	blockRaw := block.Marshal()
	v["fabric.block_marshal_ns"] = nsPerOp(func() { sink = block.Marshal() })
	v["fabric.block_unmarshal_ns"] = nsPerOp(func() { sink, _ = fabric.UnmarshalBlock(blockRaw) })

	cutter := fabric.NewBlockCutter(fabric.CutterConfig{MaxEnvelopes: probeBlockTxs})
	v["fabric.blockcutter_append_ns"] = nsPerOp(func() { sink = cutter.Append(raw) })

	// Ledger.Append checks the link and commits to the in-memory tail; the
	// chain is built beforehand so only the append is timed.
	const perBatch = 1000
	chain := probeBlocks(5 * perBatch)
	ledger := fabric.NewLedger()
	batches := make([]float64, 0, 5)
	for b := 0; b < 5; b++ {
		start := time.Now()
		for _, blk := range chain[b*perBatch : (b+1)*perBatch] {
			if err := ledger.Append(blk); err != nil {
				break
			}
		}
		batches = append(batches, float64(time.Since(start))/perBatch)
	}
	v["fabric.ledger_append_ns"] = median(batches)

	payload := raw[:200]
	v["wire.writer_put_ns"] = nsPerOp(func() {
		w := wire.NewWriter(256)
		w.PutUint64(42)
		w.PutString(benchChannel)
		w.PutBytes(payload)
		sink = w.Bytes()
	})
}

func probeCrypto(v map[string]float64) error {
	key, err := cryptoutil.GenerateKeyPair()
	if err != nil {
		return err
	}
	data := make([]byte, 1024)
	digest := cryptoutil.Hash(data)
	sig, err := key.SignDigest(digest)
	if err != nil {
		return err
	}
	pub := key.Public()
	v["cryptoutil.sign_us"] = nsPerOp(func() { sink, _ = key.SignDigest(digest) }) / 1e3
	v["cryptoutil.verify_us"] = nsPerOp(func() { sink = pub.VerifyDigest(digest, sig) }) / 1e3
	v["cryptoutil.hash_1k_ns"] = nsPerOp(func() { sink = cryptoutil.Hash(data) })

	pool, err := cryptoutil.NewSigningPool(key, 16)
	if err != nil {
		return err
	}
	start := time.Now()
	for time.Since(start) < probeSlice {
		if err := pool.Sign(digest, func([]byte, error) {}); err != nil {
			return err
		}
	}
	pool.Close() // waits for the signatures in flight
	v["cryptoutil.pool_signs_per_s"] = float64(pool.Signed()) / time.Since(start).Seconds()
	return nil
}

func probeStorage(v map[string]float64) error {
	dir, err := os.MkdirTemp("", "orderbench-probe-")
	if err != nil {
		return err
	}
	removeOnExit(dir)
	defer os.RemoveAll(dir)
	opts := storage.Options{FS: newSlowSyncFS(modelledSyncDelay)}
	st, err := storage.Open(dir, opts)
	if err != nil {
		return err
	}
	defer func() { st.Close() }()

	batch := make([][]byte, probeBlockTxs)
	for i := range batch {
		batch[i] = make([]byte, probePayload)
	}
	var seq int64

	// One appender waiting for each flush: the unamortised commit cost.
	samples := make([]float64, 100)
	for i := range samples {
		start := time.Now()
		if err := st.AppendDecision(seq, batch); err != nil {
			return err
		}
		seq++
		samples[i] = float64(time.Since(start)) / 1e3
	}
	sort.Float64s(samples)
	v["storage.probe_append_sync_p50_us"] = percentile(samples, 50)

	// Several appenders sharing flushes: what group commit buys.
	var seqMu sync.Mutex
	var appended atomic.Uint64
	var wg sync.WaitGroup
	errs := make(chan error, probeGroupSize)
	start := time.Now()
	for g := 0; g < probeGroupSize; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < probeSlice {
				seqMu.Lock() // decisions must be enqueued in sequence order
				tok := st.AppendDecisionAsync(seq, batch)
				seq++
				seqMu.Unlock()
				if err := tok.Wait(); err != nil {
					errs <- err
					return
				}
				appended.Add(1)
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
	}
	v["storage.probe_group_appends_per_s"] = float64(appended.Load()) / time.Since(start).Seconds()

	// Sealed blocks enqueued without waiting, as the node's send drain does.
	chain := probeBlocks(probeChain)
	start = time.Now()
	var last fabric.DurableToken
	for _, b := range chain {
		if last, err = st.PutBlockAsync(benchChannel, b); err != nil {
			return err
		}
	}
	if err := last.Wait(); err != nil {
		return err
	}
	v["storage.probe_put_block_async_per_s"] = probeChain / time.Since(start).Seconds()

	// Positioned reads of the whole chain, a fetch window at a time.
	start = time.Now()
	read := 0
	for time.Since(start) < probeSlice {
		for at := uint64(0); at < probeChain; {
			blocks, err := st.ReadBlocks(benchChannel, at, 128)
			if err != nil {
				return err
			}
			if len(blocks) == 0 {
				return fmt.Errorf("read back %d of %d blocks", at, probeChain)
			}
			at += uint64(len(blocks))
			read += len(blocks)
		}
	}
	v["storage.probe_read_blocks_per_s"] = float64(read) / time.Since(start).Seconds()

	// Close and recover: what a restart pays before it can serve.
	if err := st.Close(); err != nil {
		return err
	}
	start = time.Now()
	st, err = storage.Open(dir, opts)
	if err != nil {
		return err
	}
	v["storage.probe_open_recover_ms"] = float64(time.Since(start)) / 1e6
	if h := st.BlockHeight(benchChannel); h != probeChain {
		return fmt.Errorf("recovered %d of %d blocks", h, probeChain)
	}
	return nil
}

// receiveN drains n messages from a connection's inbox.
func receiveN(c transport.Conn, n int) error {
	timeout := time.After(progressTimeout)
	for i := 0; i < n; i++ {
		select {
		case _, ok := <-c.Inbox():
			if !ok {
				return fmt.Errorf("connection closed after %d of %d messages", i, n)
			}
		case <-timeout:
			return fmt.Errorf("received %d of %d messages", i, n)
		}
	}
	return nil
}

// oneWay times n messages of the given size from a to b.
func oneWay(a, b transport.Conn, n, size int) (time.Duration, error) {
	payload := make([]byte, size)
	start := time.Now()
	for i := 0; i < n; i++ {
		a.Send(b.Addr(), 1, payload)
	}
	err := receiveN(b, n)
	return time.Since(start), err
}

func probeTransport(v map[string]float64) error {
	a, err := transport.NewTCPTransport(transport.TCPConfig{Addr: "a", Listen: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := transport.NewTCPTransport(transport.TCPConfig{Addr: "b", Listen: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	defer b.Close()
	book := map[transport.Addr]string{"a": a.ListenAddr(), "b": b.ListenAddr()}
	a.SetPeers(book)
	b.SetPeers(book)

	// Ping-pong: b echoes, a times the round trip.
	const pings = 1000
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		for i := 0; i < pings; i++ {
			m, ok := <-b.Inbox()
			if !ok {
				return
			}
			b.Send("a", 1, m.Payload)
		}
	}()
	payload := make([]byte, 256)
	rtts := make([]float64, pings)
	for i := range rtts {
		start := time.Now()
		a.Send("b", 1, payload)
		if err := receiveN(a, 1); err != nil {
			return err
		}
		rtts[i] = float64(time.Since(start)) / 1e3
	}
	<-echoDone
	sort.Float64s(rtts)
	v["transport.probe_tcp_rtt_p50_us"] = percentile(rtts, 50)

	const small, large = 50000, 1000
	took, err := oneWay(a, b, small, 256)
	if err != nil {
		return err
	}
	v["transport.probe_tcp_msgs_per_s_256b"] = small / took.Seconds()
	took, err = oneWay(a, b, large, 64<<10)
	if err != nil {
		return err
	}
	v["transport.probe_tcp_mb_per_s_64k"] = large * (64 << 10) / 1e6 / took.Seconds()

	network := transport.NewInProcNetwork(transport.InProcConfig{})
	defer network.Close()
	x, err := network.Join("x")
	if err != nil {
		return err
	}
	y, err := network.Join("y")
	if err != nil {
		return err
	}
	const inproc = 200000
	took, err = oneWay(x, y, inproc, 256)
	if err != nil {
		return err
	}
	v["transport.probe_inproc_msgs_per_s"] = inproc / took.Seconds()
	return nil
}

// stubOrderer answers the client API with no ordering service behind it:
// every broadcast succeeds at once and Deliver streams a prebuilt chain.
type stubOrderer struct {
	blocks  []*fabric.Block
	streams sync.WaitGroup
}

func (s *stubOrderer) Broadcast(*fabric.Envelope) fabric.BroadcastStatus {
	return fabric.StatusSuccess
}

func (s *stubOrderer) Deliver(string, fabric.SeekInfo) (*fabric.BlockStream, error) {
	stream := fabric.NewBlockStream()
	s.streams.Add(1)
	go func() {
		defer s.streams.Done()
		for _, b := range s.blocks {
			if !stream.Push(b) {
				break
			}
		}
		stream.Close(nil)
	}()
	return stream, nil
}

func probeClientAPI(v map[string]float64) error {
	stub := &stubOrderer{blocks: probeBlocks(probeChain)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := clientapi.NewServer(stub)
	var served sync.WaitGroup
	served.Add(1)
	go func() {
		defer served.Done()
		_ = srv.Serve(ln) // returns once Close closes the listener
	}()
	defer func() { srv.Close(); served.Wait(); stub.streams.Wait() }()
	client, err := clientapi.Dial(ln.Addr().String())
	if err != nil {
		return err
	}
	defer client.Close()

	env := probeEnvelope()
	start := time.Now()
	calls := 0
	for time.Since(start) < probeSlice {
		if status, _, err := client.Broadcast(env); err != nil || status != fabric.StatusSuccess {
			return fmt.Errorf("broadcast: status %v, %v", status, err)
		}
		calls++
	}
	v["clientapi.probe_broadcast_rpcs_per_s"] = float64(calls) / time.Since(start).Seconds()

	start = time.Now()
	stream, err := client.Deliver(benchChannel, fabric.DeliverOldest())
	if err != nil {
		return err
	}
	got := 0
	for range stream.Blocks() {
		got++
	}
	if err := stream.Err(); err != nil || got != probeChain {
		return fmt.Errorf("deliver: %d of %d blocks, %v", got, probeChain, err)
	}
	v["clientapi.probe_deliver_blocks_per_s"] = probeChain / time.Since(start).Seconds()
	return nil
}

// acquire takes a slot of a closed loop's window, giving up after
// progressTimeout. The timer is only armed when the window is full.
func acquire(tokens chan struct{}) bool {
	select {
	case tokens <- struct{}{}:
		return true
	default:
	}
	select {
	case tokens <- struct{}{}:
		return true
	case <-time.After(progressTimeout):
		return false
	}
}

// countingApp is a consensus application that does nothing but report
// what was executed.
type countingApp struct{ executed func(ops [][]byte) }

func (a countingApp) Execute(_ int64, ops [][]byte) {
	if a.executed != nil {
		a.executed(ops)
	}
}
func (countingApp) Rollback(int64)        {}
func (countingApp) Snapshot() []byte      { return nil }
func (countingApp) Restore([]byte, int64) {}

// probeConsensus runs the agreement protocol alone: four replicas with a
// no-op application on a zero-delay network, a closed loop of 200-byte
// operations. What is left when signing, storage, block cutting and
// dissemination are taken away.
func probeConsensus(v map[string]float64) error {
	network := transport.NewInProcNetwork(transport.InProcConfig{})
	defer network.Close()
	ids := make([]consensus.ReplicaID, clusterNodes)
	for i := range ids {
		ids[i] = consensus.ReplicaID(i)
	}

	tokens := make(chan struct{}, probeInFlight)
	var mu sync.Mutex
	sentAt := make(map[uint64]time.Time, probeInFlight)
	var decideMs []float64
	executed := func(ops [][]byte) {
		now := time.Now()
		mu.Lock()
		for _, op := range ops {
			id := binary.BigEndian.Uint64(op)
			if at, ok := sentAt[id]; ok {
				decideMs = append(decideMs, float64(now.Sub(at))/1e6)
				delete(sentAt, id)
			}
		}
		mu.Unlock()
		for range ops {
			select {
			case <-tokens:
			default:
			}
		}
	}
	for i, id := range ids {
		conn, err := network.Join(id.Addr())
		if err != nil {
			return err
		}
		app := countingApp{}
		if i == 0 {
			app.executed = executed
		}
		replica, err := consensus.NewReplica(consensus.Config{
			SelfID: id, Replicas: ids, RequestTimeout: noLeaderChange,
		}, app, conn, consensus.WithoutClientReplies())
		if err != nil {
			return err
		}
		replica.Start()
		defer replica.Stop()
	}
	conn, err := network.Join("probe-client")
	if err != nil {
		return err
	}
	client, err := consensus.NewClient(conn, consensus.ClientConfig{Replicas: ids})
	if err != nil {
		return err
	}
	defer client.Close()

	start := time.Now()
	var sent uint64
	for time.Since(start) < 2*probeSlice {
		if !acquire(tokens) {
			return fmt.Errorf("no decision for %v", progressTimeout)
		}
		op := make([]byte, 200)
		binary.BigEndian.PutUint64(op, sent)
		mu.Lock()
		sentAt[sent] = time.Now()
		mu.Unlock()
		if err := client.Invoke(op); err != nil {
			return err
		}
		sent++
	}
	elapsed := time.Since(start)
	mu.Lock()
	done := len(decideMs)
	sort.Float64s(decideMs)
	p50 := percentile(decideMs, 50)
	mu.Unlock()
	v["consensus.probe_ops_per_s"] = float64(done) / elapsed.Seconds()
	v["consensus.probe_decide_p50_ms"] = p50
	return nil
}

// probeSolo drives the single-node orderer: the baseline that shows what
// replication costs.
func probeSolo(v map[string]float64) error {
	key, err := cryptoutil.GenerateKeyPair()
	if err != nil {
		return err
	}
	solo, err := core.NewSoloOrderer(core.SoloConfig{BlockSize: probeBlockTxs, Key: key})
	if err != nil {
		return err
	}
	defer solo.Close()
	stream, err := solo.Deliver(benchChannel, fabric.DeliverNewest())
	if err != nil {
		return err
	}
	// SoloOrderer.BroadcastRaw enqueues the block signature while holding
	// the orderer's mutex, and the signing workers need that mutex to
	// deliver: a producer that fills the signing queue (2 x 16 workers)
	// deadlocks it. The window keeps at most 16 blocks in flight, which the
	// workers alone absorb, so the queue never fills.
	const soloInFlight = 16 * probeBlockTxs
	tokens := make(chan struct{}, soloInFlight)
	var delivered atomic.Uint64
	var reading sync.WaitGroup
	reading.Add(1)
	go func() {
		defer reading.Done()
		for b := range stream.Blocks() {
			delivered.Add(uint64(len(b.Envelopes)))
			for range b.Envelopes {
				select {
				case <-tokens:
				default:
				}
			}
		}
	}()
	gen := newEnvGen(1, 200)
	start := time.Now()
	for seq := uint64(0); time.Since(start) < probeSlice; seq++ {
		if !acquire(tokens) {
			return fmt.Errorf("no block for %v", progressTimeout)
		}
		if st := solo.BroadcastRaw(gen.envelope(seq, 0).Marshal()); st != fabric.StatusSuccess {
			return fmt.Errorf("broadcast: %v", st)
		}
	}
	v["core.probe_solo_tx_s"] = float64(delivered.Load()) / time.Since(start).Seconds()
	stream.Cancel()
	reading.Wait()
	return nil
}
