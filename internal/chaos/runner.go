package chaos

import (
	"fmt"
	"os"
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
	Name   string
	Pass   bool
	Detail []string
}

// Result is one scenario run's outcome: the per-invariant verdicts plus how
// much the load got ordered while the faults played out.
type Result struct {
	Scenario    string
	Description string
	Seed        uint64
	Pass        bool
	Invariants  []InvariantResult
	// Delivered counts the load's envelopes the observer released, and
	// Blocks the canonical chain's height.
	Delivered uint64
	Blocks    uint64
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

// Run executes one scenario: build the group, start invariants, inject
// faults under load for the scenario duration, quiesce, then evaluate the
// final invariants. The error return is for harness failures (could not
// build the cluster); invariant violations fail the Result, not the call.
func Run(s Scenario, opts Options) (Result, error) {
	s = s.withDefaults()
	if opts.Scale > 0 {
		s.Duration = time.Duration(float64(s.Duration) * opts.Scale)
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	// Teardown runs in reverse order of setup, whichever step failed.
	var teardown []func()
	defer func() {
		for i := len(teardown) - 1; i >= 0; i-- {
			teardown[i]()
		}
	}()
	atExit := func(f func()) { teardown = append(teardown, f) }
	dataDir := opts.DataDir
	if dataDir == "" {
		tmp, err := os.MkdirTemp("", "chaos-"+s.Name+"-*")
		if err != nil {
			return Result{}, err
		}
		atExit(func() { os.RemoveAll(tmp) })
		dataDir = tmp
	}

	e := &Env{
		Scenario:     s,
		Network:      transport.NewInProcNetwork(transport.InProcConfig{}),
		Metrics:      obs.NewRegistry(),
		done:         make(chan struct{}),
		epochs:       make([]int, s.Nodes),
		violations:   make(map[string][]string),
		ackPending:   make(map[loadKey]bool),
		ackDelivered: make(map[loadKey]bool),
	}
	atExit(func() { e.Network.Close() })
	if err := buildGroup(e, dataDir, atExit); err != nil {
		return Result{}, fmt.Errorf("chaos %s: %w", s.Name, err)
	}

	// The observer's release path is the measurement point: it extends the
	// canonical chain and settles the load's acked envelopes.
	var delivered atomic.Uint64
	e.Observer.OnBlock(func(b *fabric.Block) {
		e.appendCanon(b)
		for _, raw := range b.Envelopes {
			if client, seq, ok := bench.EnvelopeSeq(raw); ok {
				delivered.Add(1)
				e.noteDelivered(loadKey{client, seq})
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
		name := fmt.Sprintf("chaos-%d", i)
		gen := bench.NewEnvelopeGen(e.Channel, name, s.Load.EnvBytes, int64(s.Seed)+int64(i))
		e.Go(func() {
			for {
				select {
				case <-e.Done():
					return
				default:
				}
				raw, seq := gen.Next()
				switch st := e.LoadFE.BroadcastRaw(raw); st {
				case fabric.StatusSuccess:
					e.noteAcked(loadKey{client: name, seq: seq})
				case fabric.StatusServiceUnavailable:
					time.Sleep(20 * time.Millisecond) // backpressure or teardown
				default:
					e.Violate("load", "broadcast answered %v", st)
					return
				}
				time.Sleep(s.Load.Pace)
			}
		})
	}

	logf("chaos %s: injecting for %v (seed %d)", s.Name, s.Duration, s.Seed)
	time.Sleep(s.Duration)
	close(e.done)
	e.wg.Wait()

	// Quiesce: wait for in-flight envelopes to drain through the observer
	// (bounded, so a run whose chain stalls still ends). A group healed
	// from quorum loss drains its queued backlog here, and a frontend short
	// of a copy re-registers from its cursor within two heal ticks, well
	// inside the bound.
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
		Delivered:   delivered.Load(),
		Blocks:      e.CanonHeight(),
	}
	seen := map[string]bool{}
	for _, inv := range s.Invariants {
		v := e.violationsFor(inv.Name)
		res.Invariants = append(res.Invariants, InvariantResult{Name: inv.Name, Pass: len(v) == 0, Detail: v})
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
	logf("chaos %s: pass=%v delivered=%d blocks=%d", s.Name, res.Pass, res.Delivered, res.Blocks)
	return res, nil
}

// buildGroup starts one durable consensus group with an observer and a load
// frontend, and sets them on e.
func buildGroup(e *Env, dataDir string, atExit func(func())) error {
	s := e.Scenario
	// Disk-fault scenarios run every node's storage on a fault-injecting
	// filesystem; each is a passthrough until a fault arms it mid-run. The
	// factory hands a restarted node its original instance, so armed faults
	// survive crash-recovery.
	var nodeFSFor func(node int) vfs.FS
	if s.DiskFaults {
		e.faultFS = make([]*faultfs.FS, s.Nodes)
		for i := range e.faultFS {
			e.faultFS[i] = faultfs.New(nil, int64(s.Seed)+int64(i)*97)
		}
		nodeFSFor = func(node int) vfs.FS {
			if node < 0 || node >= len(e.faultFS) {
				return nil // nodes joining mid-run use the real filesystem
			}
			return e.faultFS[node]
		}
	}
	cluster, err := core.NewCluster(core.ClusterConfig{
		Nodes:              s.Nodes,
		BlockSize:          s.BlockSize,
		BlockTimeout:       150 * time.Millisecond,
		RequestTimeout:     s.RequestTimeout,
		CheckpointInterval: s.CheckpointInterval,
		RetainBlocks:       s.RetainBlocks,
		Network:            e.Network,
		DataDir:            dataDir,
		Metrics:            e.Metrics,
		NodeFS:             nodeFSFor,
		ScrubInterval:      s.ScrubInterval,
	})
	if err != nil {
		return err
	}
	atExit(cluster.Stop)
	observer, err := cluster.NewFrontend("chaos-observer", true)
	if err != nil {
		return fmt.Errorf("observer: %w", err)
	}
	atExit(func() { observer.Close() })
	loadFE, err := cluster.NewFrontend("chaos-load", false)
	if err != nil {
		return fmt.Errorf("load frontend: %w", err)
	}
	atExit(func() { loadFE.Close() })

	e.Cluster, e.Observer, e.LoadFE = cluster, observer, loadFE
	e.Channel = "chaos"
	e.F = consensus.MaxFaults(s.Nodes)
	return nil
}
