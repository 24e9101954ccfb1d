package chaos

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/sharding"
	"repro/internal/transport"
)

// Sharded chaos world: Scenario.Shards independent consensus groups on one
// network behind a channel→shard router, each shard carrying its own load
// channel (ShardChannel(k)), plus a continuous stream of cross-shard
// mark/commit transactions when the scenario includes the atomicity
// invariant. Shard-aware faults partition whole groups; the invariants
// check that the blast radius of a shard fault stops at that shard's
// boundary — the other groups keep ordering, the healed group catches
// back up, and cross-shard transactions stay atomic throughout.

// ShardChannel names shard k's load channel.
func ShardChannel(k sharding.ShardID) string { return fmt.Sprintf("chaos-s%d", k) }

// shardedWorld builds Scenario.Shards consensus groups behind an observer
// router and a load router. The observer feeds each channel's canonical
// chain from a Deliver stream; the load runs chaos-s<shard>-<i> clients on
// every shard's channel with seeds Seed+shard*100+i. The drain is longer
// than the single group's: a healed shard drains its queued backlog in it.
func shardedWorld(e *Env, dataDir string, atExit func(func())) (world, error) {
	s := e.Scenario
	m := sharding.Map{Channels: make(map[string]sharding.ShardID, s.Shards)}
	e.ShardChannels = make(map[sharding.ShardID]string, s.Shards)
	for k := 0; k < s.Shards; k++ {
		shard := sharding.ShardID(k)
		m.Shards = append(m.Shards, shard)
		m.Channels[ShardChannel(shard)] = shard
		e.ShardChannels[shard] = ShardChannel(shard)
	}
	svc, err := sharding.NewService(sharding.ServiceConfig{
		Map:                m,
		NodesPerShard:      s.Nodes,
		BlockSize:          s.BlockSize,
		BlockTimeout:       150 * time.Millisecond,
		RequestTimeout:     s.RequestTimeout,
		CheckpointInterval: s.CheckpointInterval,
		Network:            e.Network,
		DataDir:            dataDir,
		Metrics:            e.Metrics,
	})
	if err != nil {
		return world{}, err
	}
	atExit(svc.Stop)
	observer, closeObs, err := svc.NewRouter("chaos-obs", true)
	if err != nil {
		return world{}, fmt.Errorf("observer router: %w", err)
	}
	atExit(closeObs)
	loadRouter, closeLoad, err := svc.NewRouter("chaos-load", false)
	if err != nil {
		return world{}, fmt.Errorf("load router: %w", err)
	}
	atExit(closeLoad)

	e.Service, e.Cluster, e.Router, e.LoadRouter = svc, svc.Cluster(0), observer, loadRouter
	e.Channel, e.observer = ShardChannel(0), observer
	w := world{
		watch: func(record func(string, *fabric.Block)) (func(), error) {
			var consumers sync.WaitGroup
			var streams []*fabric.BlockStream
			stop := func() {
				for _, stream := range streams {
					stream.Cancel()
				}
				consumers.Wait()
			}
			for _, channel := range e.channels {
				stream, err := observer.Deliver(channel, fabric.DeliverFrom(0))
				if err != nil {
					stop()
					return nil, fmt.Errorf("%s: %w", channel, err)
				}
				streams = append(streams, stream)
				consumers.Add(1)
				// Consumers outlive the injection window (they count the
				// quiesce drain) and exit when stop cancels the streams.
				go func() {
					defer consumers.Done()
					for b := range stream.Blocks() {
						record(channel, b)
					}
				}()
			}
			return stop, nil
		},
		load:  loadRouter,
		drain: 15 * time.Second,
	}
	for _, shard := range svc.Shards() {
		channel := e.ShardChannels[shard]
		e.channels = append(e.channels, channel)
		for i := 0; i < s.Load.Clients; i++ {
			w.clients = append(w.clients, loadClient{channel, fmt.Sprintf("chaos-s%d-%d", shard, i), int64(s.Seed) + int64(shard)*100 + int64(i)})
		}
	}
	return w, nil
}

// shardHeight is the highest ledger height any node of the shard holds for
// the channel.
func (e *Env) shardHeight(shard sharding.ShardID, channel string) uint64 {
	var max uint64
	for _, n := range e.Service.Cluster(shard).Nodes {
		if n == nil {
			continue
		}
		if led := n.Ledger(channel); led != nil && led.Height() > max {
			max = led.Height()
		}
	}
	return max
}

// ---- sharded faults ------------------------------------------------------

// ShardPartitionFault splits ONE consensus group down the middle at atFrac
// of the scenario duration (neither half keeps a quorum: the shard stalls
// completely) and heals at healFrac. Before healing it checks the fault
// stayed contained: every OTHER shard must have kept ordering while this
// one was down. Queued load on the stalled shard orders after the heal —
// the catch-up invariant owns that side.
func ShardPartitionFault(shard sharding.ShardID, atFrac, healFrac float64) Fault {
	return Fault{
		Name: "shard-partition",
		Run: func(e *Env) error {
			if !after(e, frac(e, atFrac)) {
				return nil
			}
			replicas := e.Service.Cluster(shard).Replicas()
			half := len(replicas) / 2
			var a, b []transport.Addr
			for i, id := range replicas {
				if i < half {
					a = append(a, id.Addr())
				} else {
					b = append(b, id.Addr())
				}
			}
			before := make(map[sharding.ShardID]uint64)
			for other, channel := range e.ShardChannels {
				if other != shard {
					before[other] = e.shardHeight(other, channel)
				}
			}
			e.Network.Partition(a, b)
			defer e.Network.Heal()
			after(e, frac(e, healFrac-atFrac))
			for other, h := range before {
				now := e.shardHeight(other, e.ShardChannels[other])
				if now <= h {
					return fmt.Errorf("shard %d made no progress while shard %d was partitioned (height %d)",
						other, shard, now)
				}
			}
			return nil
		},
	}
}

// ---- sharded invariants --------------------------------------------------

// ShardCatchUp requires, after quiesce, that every node of every shard
// durably holds the full canonical chain of its channel: a shard that was
// stalled by a fault must have caught back up once healed. Polls to absorb
// the post-heal drain.
func ShardCatchUp() Invariant {
	const name = "shard-catch-up"
	return Invariant{
		Name:  name,
		Start: func(e *Env) error { return nil },
		Stop: func(e *Env) {
			deadline := time.Now().Add(15 * time.Second)
			for {
				lag := ""
				for shard, channel := range e.ShardChannels {
					target := e.CanonHeight(channel)
					for i, n := range e.Service.Cluster(shard).Nodes {
						if n == nil {
							continue
						}
						if w := n.PersistWatermark(channel); w < target {
							lag = fmt.Sprintf("shard %d node %d durable watermark %d below canonical height %d",
								shard, i, w, target)
						}
					}
				}
				if lag == "" {
					return
				}
				if time.Now().After(deadline) {
					e.Violate(name, "%s", lag)
					return
				}
				time.Sleep(50 * time.Millisecond)
			}
		},
	}
}

// crossOutcome records one cross-shard transaction's coordinator verdict.
type crossOutcome struct {
	tx  sharding.CrossTx
	err error
}

// CrossShardAtomicity drives a continuous stream of two-phase mark/commit
// transactions across every shard's channel while the faults play out,
// then audits each one against the both-or-neither rule: a committed tx
// must be visible in EVERY involved chain, an aborted tx in NONE, and an
// indeterminate tx (commit in flight at deadline) is re-driven to
// completion and must then be visible everywhere.
func CrossShardAtomicity(every time.Duration) Invariant {
	const name = "cross-shard-atomic"
	var mu sync.Mutex
	var outcomes []crossOutcome
	return Invariant{
		Name: name,
		Start: func(e *Env) error {
			e.Go(func() {
				opts := sharding.CrossOptions{Timeout: 2 * time.Second, RetryEvery: 100 * time.Millisecond}
				for i := 0; ; i++ {
					if !after(e, every) {
						return
					}
					tx := sharding.CrossTx{
						XID:      fmt.Sprintf("xtx-%d-%d", e.Scenario.Seed, i),
						ClientID: "chaos-cross",
						Channels: e.channels,
						Payload:  []byte(fmt.Sprintf("cross-payload-%d", i)),
					}
					err := e.LoadRouter.BroadcastCross(tx, opts)
					mu.Lock()
					outcomes = append(outcomes, crossOutcome{tx: tx, err: err})
					mu.Unlock()
				}
			})
			return nil
		},
		Stop: func(e *Env) {
			mu.Lock()
			audit := append([]crossOutcome(nil), outcomes...)
			mu.Unlock()
			if len(audit) == 0 {
				e.Violate(name, "no cross-shard transaction ever ran")
				return
			}
			resumeOpts := sharding.CrossOptions{Timeout: 15 * time.Second, RetryEvery: 200 * time.Millisecond}
			committed, aborted := 0, 0
			for _, o := range audit {
				switch {
				case o.err == nil:
					committed++
				case errors.Is(o.err, sharding.ErrCrossIndeterminate):
					// Recovery path: drive the commit to completion, then
					// hold the tx to the committed standard.
					if err := e.LoadRouter.ResumeCommit(o.tx, resumeOpts); err != nil {
						e.Violate(name, "tx %s: resume after indeterminate failed: %v", o.tx.XID, err)
						continue
					}
					committed++
				case errors.Is(o.err, sharding.ErrCrossAborted):
					aborted++
				default:
					e.Violate(name, "tx %s: unexpected coordinator error: %v", o.tx.XID, o.err)
					continue
				}
				// Audit visibility chain by chain with an independent replay.
				for _, channel := range o.tx.Channels {
					tr := replayVisibility(e, channel, 5*time.Second)
					visible := tr.Visible(o.tx.XID)
					if o.err == nil || errors.Is(o.err, sharding.ErrCrossIndeterminate) {
						if !visible {
							e.Violate(name, "tx %s committed but invisible in %s (atomicity broken)", o.tx.XID, channel)
						}
					} else if visible {
						e.Violate(name, "tx %s aborted but visible in %s (atomicity broken)", o.tx.XID, channel)
					}
				}
			}
			if committed == 0 {
				e.Violate(name, "no cross-shard transaction ever committed (%d aborted) — the protocol never exercised its commit path", aborted)
			}
		},
	}
}

// replayVisibility re-reads a channel's chain from genesis into a fresh
// tracker — the view a late reader computes. The chain is quiesced when
// this runs; the wait bounds the replay of what already exists.
func replayVisibility(e *Env, channel string, wait time.Duration) *sharding.VisibilityTracker {
	tr := sharding.NewVisibilityTracker()
	stream, err := e.Router.Deliver(channel, fabric.DeliverOldest())
	if err != nil {
		return tr
	}
	defer stream.Cancel()
	deadline := time.After(wait)
	target := e.CanonHeight(channel)
	var got uint64
	for got < target {
		select {
		case b, ok := <-stream.Blocks():
			if !ok {
				return tr
			}
			tr.ObserveBlock(b)
			got++
		case <-deadline:
			return tr
		}
	}
	return tr
}

// shardedInvariants is the checker set every sharded scenario runs.
func shardedInvariants(crossEvery time.Duration) []Invariant {
	return []Invariant{
		DeliverContinuity(),
		ShardCatchUp(),
		CrossShardAtomicity(crossEvery),
	}
}
