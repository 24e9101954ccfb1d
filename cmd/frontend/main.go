// Command frontend runs one ordering-service frontend over TCP and serves
// the length-framed client protocol (internal/clientapi) to external
// processes: Broadcast with typed status acks and Deliver positioned by a
// seek (oldest / newest / a block number, with an optional stop).
//
// Server mode, against the 4-node cluster of cmd/ordernode:
//
//	frontend -id fe0 -listen :7100 -client-listen :7101 -serve :7102 \
//	  -peers 0=localhost:7000,1=localhost:7001,2=localhost:7002,3=localhost:7003
//
// Client mode (any number of processes, second terminal):
//
//	frontend -connect localhost:7102 -channel demo -seek oldest
//
// A client broadcasts every stdin line as an envelope payload and prints
// the typed ack; delivered blocks print as they arrive, replayed history
// first when the seek starts below the chain head.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/clientapi"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "frontend:", err)
		os.Exit(1)
	}
}

func run() error {
	// Server mode.
	id := flag.String("id", "fe0", "frontend name (must match the nodes' -frontends entry)")
	listen := flag.String("listen", ":7100", "TCP listen address for block reception")
	clientListen := flag.String("client-listen", ":7101", "TCP listen address for the consensus client")
	serve := flag.String("serve", ":7102", "TCP listen address for the external client protocol")
	peersFlag := flag.String("peers", "", "replica address book: id=host:port,...")
	channelsFlag := flag.String("channels", "", "optional comma-separated channel allowlist (empty serves all)")
	window := flag.Int("max-inflight", core.DefaultMaxInflight, "per-client backpressure window (envelopes in flight)")
	clientIdle := flag.Duration("client-idle-timeout", clientapi.DefaultIdleTimeout, "silence before the client API pings a connection (negative disables keepalive)")
	clientPing := flag.Duration("client-ping-timeout", clientapi.DefaultPingTimeout, "post-ping grace before a silent client connection is dropped")
	metricsAddr := flag.String("metrics-addr", "", "HTTP listen address for /metrics (Prometheus text or ?format=json) and /debug/pprof/; empty disables instrumentation entirely")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")

	// Client mode.
	connect := flag.String("connect", "", "client mode: connect to a frontend's -serve address")
	channel := flag.String("channel", "demo", "client mode: channel to submit to and deliver from")
	seekFlag := flag.String("seek", "newest", "client mode: deliver position: oldest, newest, or a block number")
	until := flag.Int64("until", -1, "client mode: stop (inclusive) block number; -1 tails forever")
	flag.Parse()

	if *connect != "" {
		return runClient(*connect, *channel, *seekFlag, *until)
	}
	if err := setupLogging(*logLevel); err != nil {
		return err
	}
	// Observability: one registry for the process, served over HTTP next to
	// net/http/pprof. A nil registry (flag unset) leaves every instrument
	// nil, which is the near-free disabled path.
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
	apiOpts := clientapi.ServerOptions{
		IdleTimeout: *clientIdle,
		PingTimeout: *clientPing,
		Metrics:     obs.NewClientAPIMetrics(registry, "frontend", *id),
	}
	return runServer(*id, *listen, *clientListen, *serve, *peersFlag, *channelsFlag, *window, apiOpts, registry)
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

// ---- server mode -------------------------------------------------------

func runServer(id, listen, clientListen, serve, peersFlag, channelsFlag string, window int, apiOpts clientapi.ServerOptions, registry *obs.Registry) error {
	peers, err := parseBook(peersFlag)
	if err != nil {
		return fmt.Errorf("bad -peers: %w", err)
	}
	if len(peers) == 0 {
		return fmt.Errorf("-peers is required")
	}
	replicas := make([]consensus.ReplicaID, 0, len(peers))
	book := make(map[transport.Addr]string, len(peers))
	for name, hostport := range peers {
		rid, err := strconv.Atoi(name)
		if err != nil {
			return fmt.Errorf("replica id %q is not a number", name)
		}
		replicas = append(replicas, consensus.ReplicaID(rid))
		book[consensus.ReplicaID(rid).Addr()] = hostport
	}
	var channels []string
	if strings.TrimSpace(channelsFlag) != "" {
		channels = strings.Split(channelsFlag, ",")
	}

	conn, err := transport.NewTCPTransport(transport.TCPConfig{
		Addr:   transport.Addr(id),
		Listen: listen,
		Peers:  book,
	})
	if err != nil {
		return err
	}
	defer conn.Close()
	clientConn, err := transport.NewTCPTransport(transport.TCPConfig{
		Addr:   transport.Addr(id + "-client"),
		Listen: clientListen,
		Peers:  book,
	})
	if err != nil {
		return err
	}
	defer clientConn.Close()

	fe, err := core.NewFrontendWithConns(core.FrontendConfig{
		ID:          id,
		Replicas:    replicas,
		Channels:    channels,
		MaxInflight: window,
		// The window is shared by every wire client of this frontend; a
		// bounded wait turns a stalled cluster into SERVICE_UNAVAILABLE
		// acks instead of wedging client connections indefinitely.
		BroadcastTimeout: 10 * time.Second,
		Metrics:          obs.NewFrontendMetrics(registry, "frontend", id),
	}, conn, clientConn)
	if err != nil {
		return err
	}
	defer fe.Close()

	ln, err := net.Listen("tcp", serve)
	if err != nil {
		return err
	}
	srv := clientapi.NewServerWithOptions(fe, apiOpts)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	defer srv.Close()

	scope := "all channels"
	if len(channels) > 0 {
		scope = "channels " + strings.Join(channels, ", ")
	}
	fmt.Printf("frontend %s: %d ordering nodes, client API on %s (%s)\n",
		id, len(replicas), ln.Addr(), scope)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case <-sig:
		fmt.Println("shutting down")
		return nil
	case err := <-errCh:
		return err
	}
}

// ---- client mode -------------------------------------------------------

func runClient(addr, channel, seekFlag string, until int64) error {
	seek, err := parseSeek(seekFlag)
	if err != nil {
		return err
	}
	if until >= 0 {
		seek = seek.Through(uint64(until))
	}
	cli, err := clientapi.Dial(addr)
	if err != nil {
		return err
	}
	defer cli.Close()

	stream, err := cli.Deliver(channel, seek)
	if err != nil {
		return err
	}
	streamDone := make(chan struct{})
	var streamErr error
	go func() {
		defer close(streamDone)
		for b := range stream.Blocks() {
			fmt.Printf("block %d: %d envelopes, hash %s, %d signatures\n",
				b.Header.Number, len(b.Envelopes), b.Header.Hash(), len(b.Signatures))
			for _, raw := range b.Envelopes {
				if env, err := fabric.UnmarshalEnvelope(raw); err == nil {
					fmt.Printf("  %s\n", strings.TrimSpace(string(env.Payload)))
				}
			}
		}
		if streamErr = stream.Err(); streamErr != nil {
			return
		}
		fmt.Println("stream complete")
	}()

	fmt.Printf("connected to %s, delivering %q from %s; type payloads:\n", addr, channel, seekFlag)
	scanner := bufio.NewScanner(os.Stdin)
	for scanner.Scan() {
		line := scanner.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		env := &fabric.Envelope{
			ChannelID:         channel,
			ClientID:          "frontend-cli",
			TimestampUnixNano: time.Now().UnixNano(),
			Payload:           []byte(line),
		}
		status, detail, err := cli.Broadcast(env)
		if err != nil {
			return err
		}
		if status != fabric.StatusSuccess {
			fmt.Printf("ack %s: %s\n", status, detail)
			continue
		}
		fmt.Printf("ack %s\n", status)
	}
	if err := scanner.Err(); err != nil {
		return err
	}
	// stdin closed: with a stop position, wait for the replay to finish —
	// and fail the process if the stream did, so scripted checks can trust
	// the exit code.
	if seek.HasStop {
		<-streamDone
		if streamErr != nil {
			return fmt.Errorf("deliver: %w", streamErr)
		}
	}
	return nil
}

// parseSeek maps the -seek flag onto a SeekInfo.
func parseSeek(s string) (fabric.SeekInfo, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "oldest":
		return fabric.DeliverOldest(), nil
	case "newest", "":
		return fabric.DeliverNewest(), nil
	}
	n, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return fabric.SeekInfo{}, fmt.Errorf("bad -seek %q: want oldest, newest, or a block number", s)
	}
	return fabric.DeliverFrom(n), nil
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
