package chaos

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/storage/faultfs"
	"repro/internal/storage/vfs"
	"repro/internal/transport"
)

// InvariantResult is one invariant's verdict for a run.
type InvariantResult struct {
	Name   string   `json:"name"`
	Pass   bool     `json:"pass"`
	Detail []string `json:"detail,omitempty"`
}

// Result is one scenario run's outcome: the per-invariant verdicts plus the
// commit-latency profile the load observed while the faults played out.
type Result struct {
	Scenario    string            `json:"scenario"`
	Description string            `json:"description"`
	Seed        uint64            `json:"seed"`
	Pass        bool              `json:"pass"`
	Invariants  []InvariantResult `json:"invariants"`
	P50Ms       float64           `json:"p50_ms"`
	P99Ms       float64           `json:"p99_ms"`
	Delivered   uint64            `json:"delivered_envelopes"`
	Blocks      uint64            `json:"blocks"`
	DurationSec float64           `json:"duration_sec"`
	// DurableFraction is this scenario's delivered throughput as a fraction
	// of the fault-free baseline's, filled in by cmd/chaosbench after both
	// ran (zero when no baseline was available for comparison).
	DurableFraction float64 `json:"durable_fraction,omitempty"`
}

// Options tunes a run without changing the scenario's identity.
type Options struct {
	// Scale multiplies the scenario duration (CI smoke runs use < 1).
	// Zero means 1.
	Scale float64
	// DataDir hosts the nodes' durable state; empty uses a temp dir that
	// is removed at teardown.
	DataDir string
	// Inspect, when set, runs against the live environment after final
	// invariants and before teardown (test hook).
	Inspect func(e *Env)
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// quiesceTimeout bounds the drain after the injection window, and how long
// ReleaseKeepsUp then waits for the frontends.
const quiesceTimeout = 10 * time.Second

type loadKey struct {
	client string
	seq    uint64
}

// Run executes one scenario: build the world, start invariants, inject
// faults under load for the scenario duration, quiesce, then evaluate the
// final invariants. The error return is for harness failures (could not
// build the cluster); invariant violations fail the Result, not the call.
func Run(s Scenario, opts Options) (Result, error) {
	s = s.withDefaults()
	if opts.Scale > 0 {
		s.Duration = time.Duration(float64(s.Duration) * opts.Scale)
	}
	if s.Shards > 0 {
		return runSharded(s, opts)
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	dataDir := opts.DataDir
	if dataDir == "" {
		tmp, err := os.MkdirTemp("", "chaos-"+s.Name+"-*")
		if err != nil {
			return Result{}, err
		}
		defer os.RemoveAll(tmp)
		dataDir = tmp
	}

	network := transport.NewInProcNetwork(transport.InProcConfig{})
	defer network.Close()
	registry := obs.NewRegistry()
	// Disk-fault scenarios run every node's storage on a fault-injecting
	// filesystem; each is a passthrough until a fault arms it mid-run. The
	// factory hands a restarted node its original instance, so armed faults
	// survive crash-recovery.
	var nodeFS []*faultfs.FS
	var nodeFSFor func(node int) vfs.FS
	if s.DiskFaults {
		nodeFS = make([]*faultfs.FS, s.Nodes)
		for i := range nodeFS {
			nodeFS[i] = faultfs.New(nil, int64(s.Seed)+int64(i)*97)
		}
		nodeFSFor = func(node int) vfs.FS {
			if node < 0 || node >= len(nodeFS) {
				return nil // nodes joining mid-run use the real filesystem
			}
			return nodeFS[node]
		}
	}
	cluster, err := core.NewCluster(core.ClusterConfig{
		Nodes:              s.Nodes,
		BlockSize:          s.BlockSize,
		BlockTimeout:       150 * time.Millisecond,
		RequestTimeout:     s.RequestTimeout,
		CheckpointInterval: s.CheckpointInterval,
		RetainBlocks:       s.RetainBlocks,
		Network:            network,
		DataDir:            dataDir,
		Metrics:            registry,
		NodeFS:             nodeFSFor,
		ScrubInterval:      s.ScrubInterval,
	})
	if err != nil {
		return Result{}, fmt.Errorf("chaos %s: %w", s.Name, err)
	}
	defer cluster.Stop()

	observer, err := cluster.NewFrontend("chaos-observer", true)
	if err != nil {
		return Result{}, fmt.Errorf("chaos %s: observer: %w", s.Name, err)
	}
	defer observer.Close()
	loadFE, err := cluster.NewFrontend("chaos-load", false)
	if err != nil {
		return Result{}, fmt.Errorf("chaos %s: load frontend: %w", s.Name, err)
	}
	defer loadFE.Close()

	e := &Env{
		Scenario:     s,
		Network:      network,
		Cluster:      cluster,
		Observer:     observer,
		LoadFE:       loadFE,
		Channel:      "chaos",
		F:            consensus.MaxFaults(s.Nodes),
		Metrics:      registry,
		done:         make(chan struct{}),
		epochs:       make([]int, s.Nodes),
		violations:   make(map[string][]string),
		faultFS:      nodeFS,
		ackPending:   make(map[loadKey]bool),
		ackDelivered: make(map[loadKey]bool),
	}

	// The observer's release path is the measurement point: it extends
	// the canonical chain and records broadcast→release latency for the
	// load's envelopes.
	recorder := bench.NewLatencyRecorder()
	var delivered atomic.Uint64
	var times sync.Map
	observer.OnBlock(func(b *fabric.Block) {
		now := time.Now()
		e.appendCanon(b)
		for _, raw := range b.Envelopes {
			client, seq, ok := bench.EnvelopeSeq(raw)
			if !ok {
				continue
			}
			delivered.Add(1)
			e.noteDelivered(loadKey{client, seq})
			if v, loaded := times.LoadAndDelete(loadKey{client, seq}); loaded {
				if start, isTime := v.(time.Time); isTime {
					recorder.Record(now.Sub(start))
				}
			}
		}
	})

	for _, inv := range s.Invariants {
		if err := inv.Start(e); err != nil {
			return Result{}, fmt.Errorf("chaos %s: invariant %s: %w", s.Name, inv.Name, err)
		}
	}
	for _, f := range s.Faults {
		fault := f
		e.Go(func() {
			if err := fault.Run(e); err != nil {
				e.Violate("fault:"+fault.Name, "%v", err)
			}
		})
	}
	for i := 0; i < s.Load.Clients; i++ {
		client := fmt.Sprintf("chaos-%d", i)
		gen := bench.NewEnvelopeGen(e.Channel, client, s.Load.EnvBytes, int64(s.Seed)+int64(i))
		e.Go(func() {
			for {
				select {
				case <-e.Done():
					return
				default:
				}
				raw, seq := gen.Next()
				key := loadKey{client: client, seq: seq}
				times.Store(key, time.Now())
				switch st := e.LoadFE.BroadcastRaw(raw); st {
				case fabric.StatusSuccess:
					e.noteAcked(key)
				case fabric.StatusServiceUnavailable:
					times.Delete(key) // backpressure or teardown: drop the sample
					time.Sleep(20 * time.Millisecond)
				default:
					times.Delete(key)
					e.Violate("load", "broadcast answered %v", st)
					return
				}
				time.Sleep(s.Load.Pace)
			}
		})
	}

	logf("chaos %s: injecting for %v (seed %d)", s.Name, s.Duration, s.Seed)
	start := time.Now()
	time.Sleep(s.Duration)
	close(e.done)
	e.wg.Wait()

	// Quiesce: wait for in-flight envelopes to drain through the observer
	// (bounded, so a run whose chain stalls still ends; a frontend short of a
	// copy no longer strands a tail block — it re-registers from its cursor
	// within two heal ticks, well inside the bound).
	quiesceDeadline := time.Now().Add(quiesceTimeout)
	lastCount := delivered.Load()
	lastChange := time.Now()
	for time.Now().Before(quiesceDeadline) {
		time.Sleep(100 * time.Millisecond)
		if n := delivered.Load(); n != lastCount {
			lastCount, lastChange = n, time.Now()
		} else if time.Since(lastChange) > time.Second {
			break
		}
	}
	elapsed := time.Since(start)

	for _, inv := range s.Invariants {
		inv.Stop(e)
	}
	if opts.Inspect != nil {
		opts.Inspect(e)
	}

	res := Result{
		Scenario:    s.Name,
		Description: s.Description,
		Seed:        s.Seed,
		Pass:        true,
		P50Ms:       float64(recorder.Percentile(50).Microseconds()) / 1000,
		P99Ms:       float64(recorder.Percentile(99).Microseconds()) / 1000,
		Delivered:   delivered.Load(),
		Blocks:      e.CanonHeight(),
		DurationSec: elapsed.Seconds(),
	}
	seen := map[string]bool{}
	for _, inv := range s.Invariants {
		v := e.violationsFor(inv.Name)
		res.Invariants = append(res.Invariants, InvariantResult{
			Name:   inv.Name,
			Pass:   len(v) == 0,
			Detail: v,
		})
		seen[inv.Name] = true
		if len(v) > 0 {
			res.Pass = false
		}
	}
	// Fault errors and load failures surface as extra failed rows.
	e.mu.Lock()
	for name, v := range e.violations {
		if !seen[name] && len(v) > 0 {
			res.Invariants = append(res.Invariants, InvariantResult{Name: name, Pass: false, Detail: append([]string(nil), v...)})
			res.Pass = false
		}
	}
	e.mu.Unlock()
	logf("chaos %s: pass=%v delivered=%d blocks=%d p50=%.1fms p99=%.1fms",
		s.Name, res.Pass, res.Delivered, res.Blocks, res.P50Ms, res.P99Ms)
	return res, nil
}
