package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/fabric"
	"repro/internal/transport"
	"repro/internal/wan"
)

// ---- Figure 6: signature generation ------------------------------------

// Fig6Row is one point of the Figure 6 sweep.
type Fig6Row struct {
	Workers    int
	SigsPerSec float64
}

// RunFigure6 measures Ed25519 block-signature throughput (the paper measured
// ECDSA) against the number of signing workers, reproducing Figure 6:
// blocks of envsPerBlock empty envelopes are assembled and their
// (constant-size) headers signed by a worker pool. The paper's host had 16
// hardware threads; on fewer cores the curve plateaus at the hardware
// parallelism.
func RunFigure6(workers []int, envsPerBlock int, duration time.Duration) ([]Fig6Row, error) {
	key, err := cryptoutil.GenerateKeyPair()
	if err != nil {
		return nil, err
	}
	envelopes := make([][]byte, envsPerBlock)
	for i := range envelopes {
		env := &fabric.Envelope{ChannelID: "bench", ClientID: "sig"}
		envelopes[i] = env.Marshal()
	}

	rows := make([]Fig6Row, 0, len(workers))
	for _, w := range workers {
		pool, err := cryptoutil.NewSigningPool(key, w)
		if err != nil {
			return nil, err
		}
		var prev cryptoutil.Digest
		var number uint64
		done := func([]byte, error) {}
		deadline := time.Now().Add(duration)
		start := time.Now()
		for time.Now().Before(deadline) {
			// Assemble the next block exactly as the ordering node would:
			// the header binds number, previous hash, and data hash; the
			// signature covers only the constant-size header.
			block := fabric.NewBlock(number, prev, envelopes)
			number++
			prev = block.Header.Hash()
			if err := pool.Sign(block.Header.Hash(), done); err != nil {
				break
			}
		}
		pool.Close() // waits for in-flight signatures
		elapsed := time.Since(start)
		rows = append(rows, Fig6Row{
			Workers:    w,
			SigsPerSec: float64(pool.Signed()) / elapsed.Seconds(),
		})
	}
	return rows, nil
}

// ---- Figure 7: LAN throughput -------------------------------------------

// Fig7Cell parameterizes one throughput measurement.
type Fig7Cell struct {
	// Nodes is the ordering cluster size (4, 7, 10).
	Nodes int
	// BlockSize is envelopes per block (10, 100).
	BlockSize int
	// EnvSize is the envelope payload size (40, 200, 1024, 4096).
	EnvSize int
	// Receivers is the number of registered block-receiving frontends
	// (1..32 in the paper).
	Receivers int
	// Clients is the number of load-generator clients (the paper used
	// 16-32 emulated frontends across 2 machines). Zero defaults to 16.
	Clients int
	// Window is the total outstanding envelopes across all clients
	// (closed loop). Zero defaults to 4x the consensus batch size.
	Window int
	// Warmup and Measure set the measurement schedule.
	Warmup, Measure time.Duration
	// EgressBytesPerSec models each endpoint's NIC (default 1 Gbit/s, the
	// paper's LAN).
	EgressBytesPerSec int64
	// SigningWorkers per node (default 16, as in the paper).
	SigningWorkers int
	// DisableSigning measures the raw ordering rate (Equation 1's
	// TP_bftsmart term).
	DisableSigning bool
}

func (c Fig7Cell) withDefaults() Fig7Cell {
	if c.Clients <= 0 {
		c.Clients = 16
	}
	if c.Window <= 0 {
		c.Window = 4 * consensus.DefaultBatchSize
	}
	if c.Warmup <= 0 {
		c.Warmup = time.Second
	}
	if c.Measure <= 0 {
		c.Measure = 3 * time.Second
	}
	if c.EgressBytesPerSec == 0 {
		c.EgressBytesPerSec = transport.GigabitEthernet
	}
	if c.SigningWorkers <= 0 {
		c.SigningWorkers = 16
	}
	return c
}

// Fig7Row is one measured cell of Figure 7.
type Fig7Row struct {
	Nodes       int
	BlockSize   int
	EnvSize     int
	Receivers   int
	TxPerSec    float64
	BlockPerSec float64
}

// RunFigure7Cell drives one cluster configuration to saturation with
// closed-loop clients and measures envelope throughput at node 0 (the
// leader), exactly as Section 6.2 does.
func RunFigure7Cell(cell Fig7Cell) (Fig7Row, error) {
	cell = cell.withDefaults()
	network := transport.NewInProcNetwork(transport.InProcConfig{
		EgressBytesPerSec: cell.EgressBytesPerSec,
	})
	defer network.Close()

	cluster, err := core.NewCluster(core.ClusterConfig{
		Nodes:              cell.Nodes,
		BlockSize:          cell.BlockSize,
		SigningWorkers:     cell.SigningWorkers,
		DisableSigning:     cell.DisableSigning,
		BatchTimeout:       2 * time.Millisecond,
		RequestTimeout:     5 * time.Minute, // saturation must not trigger leader changes
		CheckpointInterval: 64,
		Network:            network,
	})
	if err != nil {
		return Fig7Row{}, err
	}
	defer cluster.Stop()

	// Receivers: registered block-consuming frontends.
	receivers := make([]*core.Frontend, 0, cell.Receivers)
	for i := 0; i < cell.Receivers; i++ {
		fe, err := cluster.NewFrontend(clientName("recv", i), false)
		if err != nil {
			return Fig7Row{}, err
		}
		defer fe.Close()
		receivers = append(receivers, fe)
	}

	// Load generators: closed-loop consensus clients (submit-only
	// frontends; they do not receive blocks).
	leader := cluster.Nodes[0]
	var sent atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < cell.Clients; i++ {
		conn, err := network.Join(transport.Addr(clientName("load", i)))
		if err != nil {
			close(stop)
			wg.Wait()
			return Fig7Row{}, err
		}
		client, err := consensus.NewClient(conn, consensus.ClientConfig{
			Replicas: cluster.Replicas(),
		})
		if err != nil {
			close(stop)
			wg.Wait()
			return Fig7Row{}, err
		}
		gen := NewEnvelopeGen("bench", clientName("load", i), cell.EnvSize, int64(i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				inflight := int64(sent.Load()) - int64(leader.Stats().EnvelopesOrdered)
				if inflight >= int64(cell.Window) {
					time.Sleep(200 * time.Microsecond)
					continue
				}
				raw, _ := gen.Next()
				if err := client.Invoke(raw); err != nil {
					return
				}
				sent.Add(1)
			}
		}()
	}

	time.Sleep(cell.Warmup)
	startOrdered := leader.Stats()
	start := time.Now()
	time.Sleep(cell.Measure)
	endOrdered := leader.Stats()
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()

	return Fig7Row{
		Nodes:       cell.Nodes,
		BlockSize:   cell.BlockSize,
		EnvSize:     cell.EnvSize,
		Receivers:   cell.Receivers,
		TxPerSec:    float64(endOrdered.EnvelopesOrdered-startOrdered.EnvelopesOrdered) / elapsed.Seconds(),
		BlockPerSec: float64(endOrdered.BlocksCut-startOrdered.BlocksCut) / elapsed.Seconds(),
	}, nil
}

// RunFigure7Panel sweeps envelope sizes x receiver counts for one panel
// (one cluster size + block size combination) of Figure 7.
func RunFigure7Panel(nodes, blockSize int, envSizes, receivers []int, base Fig7Cell) ([]Fig7Row, error) {
	rows := make([]Fig7Row, 0, len(envSizes)*len(receivers))
	for _, size := range envSizes {
		for _, recv := range receivers {
			cell := base
			cell.Nodes = nodes
			cell.BlockSize = blockSize
			cell.EnvSize = size
			cell.Receivers = recv
			row, err := RunFigure7Cell(cell)
			if err != nil {
				return nil, fmt.Errorf("cell n=%d bs=%d es=%d r=%d: %w",
					nodes, blockSize, size, recv, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// ---- Figures 8-9: geo-distributed latency -------------------------------

// GeoProtocol selects the replication protocol of a geo run.
type GeoProtocol string

// The two protocols compared by Figures 8-9.
const (
	ProtocolBFTSmart GeoProtocol = "BFT-SMaRt"
	ProtocolWheat    GeoProtocol = "WHEAT"
)

// GeoCell parameterizes one geo-distributed latency run.
type GeoCell struct {
	// Protocol selects BFT-SMaRt (4 replicas) or WHEAT (5 replicas with
	// binary weights), per Section 6.3.
	Protocol GeoProtocol
	// BlockSize is 10 (Figure 8) or 100 (Figure 9).
	BlockSize int
	// EnvSize is the envelope payload size.
	EnvSize int
	// WindowPerFrontend is the closed-loop window per frontend; the paper
	// sizes load to keep node throughput above 1000 tx/s.
	WindowPerFrontend int
	// Warmup and Measure set the measurement schedule.
	Warmup, Measure time.Duration
	// JitterPct adds uniform jitter to WAN delays (default 5).
	JitterPct int
}

func (c GeoCell) withDefaults() GeoCell {
	if c.Protocol == "" {
		c.Protocol = ProtocolBFTSmart
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 10
	}
	if c.WindowPerFrontend <= 0 {
		c.WindowPerFrontend = 128
	}
	if c.Warmup <= 0 {
		c.Warmup = 2 * time.Second
	}
	if c.Measure <= 0 {
		c.Measure = 6 * time.Second
	}
	if c.JitterPct == 0 {
		c.JitterPct = 5
	}
	return c
}

// GeoRow is one frontend's latency measurement.
type GeoRow struct {
	Frontend  wan.Region
	Protocol  GeoProtocol
	BlockSize int
	EnvSize   int
	MedianMs  float64
	P90Ms     float64
	TxPerSec  float64
	Samples   int
}

// geoFrontendRegions are the frontend placements of Section 6.3: Canada
// (clients only), Oregon (collocated with the V_max leader), Virginia
// (V_max), and Sao Paulo (V_min).
var geoFrontendRegions = []wan.Region{wan.Canada, wan.Oregon, wan.Virginia, wan.SaoPaulo}

// nodeRegions returns the replica placement for a protocol: Oregon,
// Ireland, Sydney, Sao Paulo for BFT-SMaRt; Virginia joins as WHEAT's
// additional (fifth) replica.
func nodeRegions(p GeoProtocol) []wan.Region {
	regions := []wan.Region{wan.Oregon, wan.Ireland, wan.Sydney, wan.SaoPaulo}
	if p == ProtocolWheat {
		regions = append(regions, wan.Virginia)
	}
	return regions
}

// RunGeoCell runs one (protocol, block size, envelope size) configuration
// and returns the latency distribution observed at each of the four
// frontends.
func RunGeoCell(cell GeoCell) ([]GeoRow, error) {
	cell = cell.withDefaults()
	regions := nodeRegions(cell.Protocol)
	nodes := len(regions)

	placement := make(map[transport.Addr]wan.Region, nodes+len(geoFrontendRegions))
	replicas := make([]consensus.ReplicaID, nodes)
	for i, region := range regions {
		id := consensus.ReplicaID(i)
		replicas[i] = id
		placement[id.Addr()] = region
	}
	for i, region := range geoFrontendRegions {
		feID := geoFrontendID(i, region)
		placement[transport.Addr(feID)] = region
		placement[transport.Addr(feID+"-client")] = region
	}
	model := wan.NewModel(placement, cell.JitterPct)
	network := transport.NewInProcNetwork(transport.InProcConfig{
		Latency:           model,
		EgressBytesPerSec: transport.GigabitEthernet,
	})
	defer network.Close()

	clusterCfg := core.ClusterConfig{
		Nodes:              nodes,
		F:                  1,
		BlockSize:          cell.BlockSize,
		SigningWorkers:     16,
		BatchTimeout:       5 * time.Millisecond,
		RequestTimeout:     5 * time.Minute,
		CheckpointInterval: 256,
		Network:            network,
	}
	if cell.Protocol == ProtocolWheat {
		// Binary weight distribution (footnote 11): V_max = 2 for the
		// leader (Oregon, replica 0) and the spare (Virginia, replica 4),
		// V_min = 1 elsewhere. Instances execute once decided, as in
		// BFT-SMaRt: the fifth replica and the weights are WHEAT's only
		// difference.
		weights, err := consensus.BinaryWeights(replicas, 1, 1,
			[]consensus.ReplicaID{0, consensus.ReplicaID(nodes - 1)})
		if err != nil {
			return nil, err
		}
		clusterCfg.Weights = weights
	}
	cluster, err := core.NewCluster(clusterCfg)
	if err != nil {
		return nil, err
	}
	defer cluster.Stop()

	type feRun struct {
		region    wan.Region
		fe        *core.Frontend
		recorder  *LatencyRecorder
		delivered atomic.Uint64
		inflight  atomic.Int64
		times     sync.Map // seq -> time.Time
		name      string
	}
	runs := make([]*feRun, 0, len(geoFrontendRegions))
	for i, region := range geoFrontendRegions {
		name := geoFrontendID(i, region)
		fe, err := cluster.NewFrontend(name, false)
		if err != nil {
			return nil, err
		}
		defer fe.Close()
		run := &feRun{region: region, fe: fe, recorder: NewLatencyRecorder(), name: name}
		fe.OnBlock(func(b *fabric.Block) {
			now := time.Now()
			for _, raw := range b.Envelopes {
				client, seq, ok := EnvelopeSeq(raw)
				if !ok || client != run.name {
					continue
				}
				if v, loaded := run.times.LoadAndDelete(seq); loaded {
					start, isTime := v.(time.Time)
					if isTime {
						run.recorder.Record(now.Sub(start))
					}
					run.inflight.Add(-1)
					run.delivered.Add(1)
				}
			}
		})
		runs = append(runs, run)
	}

	// Closed-loop submitters: each frontend keeps WindowPerFrontend
	// envelopes outstanding ("enough client threads to keep node
	// throughput always above 1000 transactions/second").
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i, run := range runs {
		gen := NewEnvelopeGen("geo", run.name, cell.EnvSize, int64(i))
		wg.Add(1)
		go func(run *feRun) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if run.inflight.Load() >= int64(cell.WindowPerFrontend) {
					time.Sleep(time.Millisecond)
					continue
				}
				raw, seq := gen.Next()
				run.times.Store(seq, time.Now())
				run.inflight.Add(1)
				if run.fe.BroadcastRaw(raw) != fabric.StatusSuccess {
					return
				}
			}
		}(run)
	}

	time.Sleep(cell.Warmup)
	for _, run := range runs {
		run.recorder.Reset()
		run.delivered.Store(0)
	}
	start := time.Now()
	time.Sleep(cell.Measure)
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()

	rows := make([]GeoRow, 0, len(runs))
	for _, run := range runs {
		rows = append(rows, GeoRow{
			Frontend:  run.region,
			Protocol:  cell.Protocol,
			BlockSize: cell.BlockSize,
			EnvSize:   cell.EnvSize,
			MedianMs:  float64(run.recorder.Median().Microseconds()) / 1000,
			P90Ms:     float64(run.recorder.Percentile(90).Microseconds()) / 1000,
			TxPerSec:  float64(run.delivered.Load()) / elapsed.Seconds(),
			Samples:   run.recorder.Count(),
		})
	}
	return rows, nil
}

func geoFrontendID(i int, region wan.Region) string {
	return fmt.Sprintf("frontend-%d-%s", i, region)
}

// ---- Equation (1): throughput bound -------------------------------------

// Eq1Result reports the Equation (1) check for one configuration:
// TP_os <= min(TP_sign x bs, TP_bftsmart).
type Eq1Result struct {
	Cell          Fig7Cell
	MeasuredTPS   float64 // full ordering service
	SignBoundTPS  float64 // TP_sign x block size
	OrderBoundTPS float64 // ordering rate with signing disabled
	Satisfied     bool
}

// RunEquation1 measures the two bounds of Equation (1) and the actual
// ordering-service throughput for one cell, then checks the inequality
// (with 15% measurement slack).
func RunEquation1(cell Fig7Cell) (Eq1Result, error) {
	cell = cell.withDefaults()
	// TP_sign: block-signature rate at the configured worker count.
	sigRows, err := RunFigure6([]int{cell.SigningWorkers}, cell.BlockSize, cell.Measure)
	if err != nil {
		return Eq1Result{}, err
	}
	signBound := sigRows[0].SigsPerSec * float64(cell.BlockSize)

	// TP_bftsmart: ordering rate with signature generation ablated.
	unsigned := cell
	unsigned.DisableSigning = true
	rawRow, err := RunFigure7Cell(unsigned)
	if err != nil {
		return Eq1Result{}, err
	}

	// TP_os: the full service.
	fullRow, err := RunFigure7Cell(cell)
	if err != nil {
		return Eq1Result{}, err
	}

	bound := signBound
	if rawRow.TxPerSec < bound {
		bound = rawRow.TxPerSec
	}
	return Eq1Result{
		Cell:          cell,
		MeasuredTPS:   fullRow.TxPerSec,
		SignBoundTPS:  signBound,
		OrderBoundTPS: rawRow.TxPerSec,
		Satisfied:     fullRow.TxPerSec <= bound*1.15,
	}, nil
}
