package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clientapi"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/storage/vfs"
	"repro/internal/transport"
	"repro/internal/wan"
)

const (
	clusterNodes = 4 // f = 1
	frontendID   = "fe"
	// lanOneWay is the injected one-way delay of the modelled LAN.
	lanOneWay = 100 * time.Microsecond
	// wanJitterPct is the +/- jitter of the modelled WAN delays.
	wanJitterPct = 5
	// noLeaderChange keeps the request timer out of the measurement: a
	// saturated leader must not be voted out mid-window.
	noLeaderChange = 5 * time.Minute
)

// wanPlacement is the paper's geo-distributed deployment (Section 6.3):
// one replica per continent, the frontend and its consensus client in
// Virginia.
func wanPlacement() map[transport.Addr]wan.Region {
	p := map[transport.Addr]wan.Region{
		frontendID:             wan.Virginia,
		frontendID + "-client": wan.Virginia,
	}
	for i, region := range []wan.Region{wan.Oregon, wan.Ireland, wan.Sydney, wan.SaoPaulo} {
		p[consensus.ReplicaID(i).Addr()] = region
	}
	return p
}

// instruments is what a traced run switches on; the zero value (an
// untraced run) leaves every hook nil, which is the program's free path.
type instruments struct {
	registry *obs.Registry
	tap      *netTap
	waves    *atomic.Uint64 // commit waves, counted by the sync hook
}

func newInstruments() instruments {
	return instruments{registry: obs.NewRegistry(), tap: &netTap{}, waves: new(atomic.Uint64)}
}

func (in instruments) syncHook() func() {
	if in.waves == nil {
		return nil
	}
	return func() { in.waves.Add(1) }
}

// netTap counts what the replicas and the frontend put on the wire, split
// into block dissemination and everything else (consensus, registration,
// fetch).
type netTap struct {
	msgs, bytes atomic.Uint64
	blockBytes  atomic.Uint64
}

func (t *netTap) count(m transport.Message) {
	size := uint64(m.Size())
	t.msgs.Add(1)
	t.bytes.Add(size)
	if m.Type == core.MsgBlock {
		t.blockBytes.Add(size)
	}
}

// pass is the counting pass-through filter for the in-process network.
func (t *netTap) pass(m transport.Message) bool {
	t.count(m)
	return true
}

// tappedConn counts the sends of a real transport endpoint.
type tappedConn struct {
	transport.Conn
	tap *netTap
}

func (c tappedConn) Send(to transport.Addr, msgType uint16, payload []byte) {
	c.tap.count(transport.Message{From: c.Addr(), To: to, Type: msgType, Payload: payload})
	c.Conn.Send(to, msgType, payload)
}

// system is one started ordering service with the client surface the
// workload drives. submit and the block callback are the only things the
// load generator touches.
type system struct {
	nodes []*core.OrderingNode
	fe    *core.Frontend
	// submit broadcasts one envelope and reports whether it was
	// acknowledged SUCCESS.
	submit func(*fabric.Envelope) bool
	// submitSpan names the span around submit: the layer the call enters.
	submitSpan string
	// confirm, when set, must carry the run's first request instead of
	// submit (see startClientAPI).
	confirm func(*fabric.Envelope) bool
	// api is the client connection of a ViaClient workload that is not
	// holding the live Deliver stream (broadcasts, range reads).
	api *clientapi.Client

	stops []func() // run in reverse order by close
}

func (s *system) onClose(f func()) { s.stops = append(s.stops, f) }

// close stops everything the system started and waits for it.
func (s *system) close() {
	for i := len(s.stops) - 1; i >= 0; i-- {
		s.stops[i]()
	}
	s.stops = nil
}

// startSystem builds the ordering service a workload runs against and
// subscribes onBlock to the frontend's released blocks. dataDir is the
// durable workloads' storage root (ignored otherwise); seed drives the WAN
// jitter. On error everything already started is stopped.
func startSystem(w workload, dataDir string, seed int64, in instruments, onBlock func(*fabric.Block)) (*system, error) {
	s := &system{}
	var err error
	if w.Net == tcpNet {
		err = s.startTCP(w, in)
	} else {
		err = s.startInProc(w, dataDir, seed, in)
	}
	if err == nil && w.ViaClient {
		err = s.startClientAPI(w, onBlock)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	if !w.ViaClient {
		s.fe.OnBlock(onBlock)
		s.submitSpan = "core.frontend_broadcast"
		s.submit = func(env *fabric.Envelope) bool {
			return s.fe.BroadcastRaw(env.Marshal()) == fabric.StatusSuccess
		}
	}
	return s, nil
}

func (s *system) startInProc(w workload, dataDir string, seed int64, in instruments) error {
	var latency transport.LatencyModel = transport.FixedLatency(lanOneWay)
	if w.Net == wanNet {
		latency = wan.NewModelSeeded(wanPlacement(), wanJitterPct, uint64(seed))
	}
	network := transport.NewInProcNetwork(transport.InProcConfig{
		Latency:           latency,
		EgressBytesPerSec: transport.GigabitEthernet,
	})
	s.onClose(func() { network.Close() })
	if in.tap != nil {
		network.SetFilter(in.tap.pass)
	}
	cfg := core.ClusterConfig{
		Nodes:              clusterNodes,
		BlockSize:          w.BlockSize,
		RequestTimeout:     noLeaderChange,
		Network:            network,
		RetainBlocks:       w.RetainBlocks,
		WALSegmentBytes:    w.WALSegmentBytes,
		CheckpointInterval: w.CheckpointInterval,
		CommitSyncHook:     in.syncHook(),
		Metrics:            in.registry,
	}
	if w.Durable {
		cfg.DataDir = dataDir
		cfg.NodeFS = func(int) vfs.FS { return newSlowSyncFS(modelledSyncDelay) }
	}
	cluster, err := core.NewCluster(cfg)
	if err != nil {
		return err
	}
	s.onClose(cluster.Stop)
	s.nodes = cluster.Nodes
	fe, err := cluster.NewFrontend(frontendID, false)
	if err != nil {
		return err
	}
	s.onClose(fe.Close)
	s.fe = fe
	return nil
}

// startTCP wires four nodes and a frontend over real loopback sockets,
// the way cmd/ordernode and cmd/frontend do, inside this process.
func (s *system) startTCP(w workload, in instruments) error {
	replicas := make([]consensus.ReplicaID, clusterNodes)
	addrs := make([]transport.Addr, 0, clusterNodes+2)
	for i := range replicas {
		replicas[i] = consensus.ReplicaID(i)
		addrs = append(addrs, replicas[i].Addr())
	}
	addrs = append(addrs, frontendID, frontendID+"-client")

	endpoints := make(map[transport.Addr]*transport.TCPTransport, len(addrs))
	book := make(map[transport.Addr]string, len(addrs))
	for _, addr := range addrs {
		t, err := transport.NewTCPTransport(transport.TCPConfig{Addr: addr, Listen: "127.0.0.1:0"})
		if err != nil {
			return err
		}
		s.onClose(func() { t.Close() })
		endpoints[addr] = t
		book[addr] = t.ListenAddr()
	}
	conn := func(addr transport.Addr) transport.Conn {
		endpoints[addr].SetPeers(book)
		if in.tap != nil {
			return tappedConn{Conn: endpoints[addr], tap: in.tap}
		}
		return endpoints[addr]
	}

	registry := cryptoutil.NewRegistry()
	keys := make([]*cryptoutil.KeyPair, clusterNodes)
	for i, id := range replicas {
		key, err := cryptoutil.GenerateKeyPair()
		if err != nil {
			return err
		}
		keys[i] = key
		registry.Register(string(id.Addr()), key.Public())
	}
	for i, id := range replicas {
		label := []string{"shard", "0", "node", fmt.Sprint(i)}
		node, err := core.NewNode(core.NodeConfig{
			Consensus: consensus.Config{
				SelfID:         id,
				Replicas:       replicas,
				RequestTimeout: noLeaderChange,
				Key:            keys[i],
				Registry:       registry,
			},
			BlockSize: w.BlockSize,
			Key:       keys[i],
			Metrics:   obs.NewNodeMetrics(in.registry, label...),
		}, conn(id.Addr()))
		if err != nil {
			return err
		}
		s.onClose(node.Stop)
		s.nodes = append(s.nodes, node)
	}
	for _, node := range s.nodes {
		node.Start()
	}
	fe, err := core.NewFrontendWithConns(core.FrontendConfig{
		ID:       frontendID,
		Replicas: replicas,
		Registry: registry,
		Metrics:  obs.NewFrontendMetrics(in.registry, "shard", "0", "frontend", frontendID),
	}, conn(frontendID), conn(frontendID+"-client"))
	if err != nil {
		return err
	}
	s.onClose(fe.Close)
	s.fe = fe
	return nil
}

// startClientAPI serves the frontend over the client wire protocol and
// dials it twice: one connection holds Deliver from the newest block and
// feeds onBlock, the other carries the workload's calls. Deliver has no
// acknowledgement, so the subscription is confirmed by a broadcast on the
// same connection (confirm) — the server handles a connection's frames in
// order, hence the stream is registered before that broadcast is
// acknowledged.
func (s *system) startClientAPI(w workload, onBlock func(*fabric.Block)) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := clientapi.NewServer(s.fe)
	var served sync.WaitGroup
	served.Add(1)
	go func() {
		defer served.Done()
		_ = srv.Serve(ln) // returns once Close closes the listener
	}()
	s.onClose(func() { srv.Close(); served.Wait() })

	recv, err := clientapi.Dial(ln.Addr().String())
	if err != nil {
		return err
	}
	stream, err := recv.Deliver(benchChannel, fabric.DeliverNewest())
	if err != nil {
		recv.Close()
		return err
	}
	var reading sync.WaitGroup
	reading.Add(1)
	go func() {
		defer reading.Done()
		for b := range stream.Blocks() {
			onBlock(b)
		}
	}()
	s.onClose(func() { recv.Close(); reading.Wait() })

	api, err := clientapi.Dial(ln.Addr().String())
	if err != nil {
		return err
	}
	s.onClose(api.Close)
	s.api = api
	s.submitSpan = "clientapi.broadcast_rpc"
	broadcast := func(c *clientapi.Client) func(*fabric.Envelope) bool {
		return func(env *fabric.Envelope) bool {
			status, _, err := c.Broadcast(env)
			return err == nil && status == fabric.StatusSuccess
		}
	}
	s.submit = broadcast(api)
	s.confirm = broadcast(recv)
	return nil
}
