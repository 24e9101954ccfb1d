package chaos

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/transport"
)

// DeliverContinuity subscribes from genesis through the observer and checks
// the released stream is gap-free, duplicate-free, and hash-chained: every
// block's number is exactly the next expected and its PrevHash is the
// header hash of its predecessor, across every fault in the scenario — a
// stalled group's stream may pause but must resume without a seam.
func DeliverContinuity() Invariant {
	const name = "deliver-continuity"
	var stream *fabric.BlockStream
	var consumed sync.WaitGroup
	return Invariant{
		Name: name,
		Start: func(e *Env) error {
			var err error
			stream, err = e.Observer.Deliver(e.Channel, fabric.DeliverFrom(0))
			if err != nil {
				return fmt.Errorf("%s: %w", e.Channel, err)
			}
			consumed.Add(1)
			// Not on e.Go: the consumer outlives the injection window (it
			// checks blocks arriving during quiesce) and exits when Stop
			// cancels the stream.
			go func() {
				defer consumed.Done()
				var next uint64
				var prev *fabric.Block
				for b := range stream.Blocks() {
					if b.Header.Number != next {
						e.Violate(name, "%s delivered block %d, want %d (gap or duplicate)",
							e.Channel, b.Header.Number, next)
						return
					}
					if prev != nil && b.Header.PrevHash != prev.Header.Hash() {
						e.Violate(name, "%s block %d does not hash-chain to block %d",
							e.Channel, b.Header.Number, prev.Header.Number)
						return
					}
					prev = b
					next++
				}
			}()
			return nil
		},
		Stop: func(e *Env) {
			stream.Cancel()
			consumed.Wait()
		},
	}
}

// VerifiedFetch continuously probes the two ways a frontend proves history
// it holds no anchor for, on seeded random subranges of the canonical
// chain; every returned block must match the canonical copy by header
// hash. The fetch probe calls Frontend.FetchVerified on the observer: f+1
// signatures on every block. The deliver probe opens a bounded
// Deliver(DeliverFrom(a).Through(b)) seek on a reader frontend that
// retains no history, so every seek lies below its window: f+1 signatures
// on block b and the hash links beneath it. This is the invariant a
// forged-history adversary attacks — both thresholds must keep holding
// with the adversary live. It fails the run if a probe diverges, or if a
// probe never succeeded despite available history.
func VerifiedFetch() Invariant {
	const name = "verified-fetch"
	type probe struct {
		name                string
		read                func(from, to uint64) ([]*fabric.Block, error)
		successes, failures int
		diverged            bool
	}
	var probes []*probe
	done := make(chan struct{})
	return Invariant{
		Name: name,
		Start: func(e *Env) error {
			reader, err := newReader(e)
			if err != nil {
				return err
			}
			probes = []*probe{
				{name: "verified fetch", read: func(from, to uint64) ([]*fabric.Block, error) {
					return e.Observer.FetchVerified(e.Channel, from, to)
				}},
				{name: "deliver seek", read: func(from, to uint64) ([]*fabric.Block, error) {
					return seek(e, reader, from, to)
				}},
			}
			rng := rand.New(rand.NewSource(int64(e.Scenario.Seed) + 7))
			e.Go(func() {
				defer close(done)
				defer reader.Close()
				ticker := time.NewTicker(200 * time.Millisecond)
				defer ticker.Stop()
				for {
					select {
					case <-e.Done():
						return
					case <-ticker.C:
					}
					canon := e.Canon()
					if len(canon) < 2 {
						continue
					}
					from := uint64(rng.Intn(len(canon) - 1))
					span := uint64(1 + rng.Intn(min(len(canon)-int(from), 8)))
					for _, p := range probes {
						if p.diverged {
							continue
						}
						blocks, err := p.read(from, from+span)
						if err != nil {
							p.failures++ // transient under partitions/crashes; judged at Stop
							continue
						}
						for i, b := range blocks {
							if b.Header.Hash() != canon[from+uint64(i)].Header.Hash() {
								e.Violate(name,
									"%s of [%d,%d) returned divergent block %d (forged or stale history passed verification)",
									p.name, from, from+span, b.Header.Number)
								p.diverged = true
								break
							}
						}
						if !p.diverged {
							p.successes++
						}
					}
				}
			})
			return nil
		},
		Stop: func(e *Env) {
			<-done
			for _, p := range probes {
				if p.successes == 0 && e.CanonHeight() > 1 {
					e.Violate(name, "no %s probe ever succeeded (%d attempts failed) despite %d canonical blocks",
						p.name, p.failures, e.CanonHeight())
				}
			}
		},
	}
}

// seekTimeout bounds one deliver probe: a seek whose exact fetch fails
// falls back to anchoring on the head, then on live blocks, which never
// reach a reader.
const seekTimeout = 5 * time.Second

// seek reads blocks [from, to) through a bounded Deliver seek on reader.
func seek(e *Env, reader *core.Frontend, from, to uint64) ([]*fabric.Block, error) {
	stream, err := reader.Deliver(e.Channel, fabric.DeliverFrom(from).Through(to-1))
	if err != nil {
		return nil, err
	}
	defer stream.Cancel()
	timeout := time.NewTimer(seekTimeout)
	defer timeout.Stop()
	blocks := make([]*fabric.Block, 0, to-from)
	for {
		select {
		case b, ok := <-stream.Blocks():
			if !ok {
				if err := stream.Err(); err != nil {
					return nil, err
				}
				if uint64(len(blocks)) != to-from {
					return nil, fmt.Errorf("seek of [%d,%d) ended after %d blocks", from, to, len(blocks))
				}
				return blocks, nil
			}
			blocks = append(blocks, b)
		case <-timeout.C:
			return nil, fmt.Errorf("seek of [%d,%d) timed out", from, to)
		case <-e.Done():
			return nil, errors.New("injection window closed")
		}
	}
}

// newReader joins a frontend whose registrations are dropped, so no node
// ever pushes it a block: it retains no history, and every bounded seek on
// it is answered by a fetch from the nodes' ledgers.
func newReader(e *Env) (*core.Frontend, error) {
	const id = "chaos-reader"
	conn, err := e.Network.Join(id)
	if err != nil {
		return nil, err
	}
	clientConn, err := e.Network.Join(id + "-client")
	if err != nil {
		conn.Close()
		return nil, err
	}
	return core.NewFrontendWithConns(core.FrontendConfig{
		ID:       id,
		Replicas: e.Members(),
		F:        e.F,
		Registry: e.Cluster.Registry,
	}, unregistered{conn}, clientConn)
}

// unregistered is a frontend endpoint whose MsgRegister sends are lost.
type unregistered struct{ transport.Conn }

func (c unregistered) Send(to transport.Addr, msgType uint16, payload []byte) {
	if msgType != core.MsgRegister {
		c.Conn.Send(to, msgType, payload)
	}
}

// WatermarkMonotonic polls every live node's persist watermark: per node
// incarnation it must never regress, and it must never run ahead of the
// ledger height (blocks are enqueued — and the decision token waited out —
// before their put tokens can complete, so a watermark above the ledger
// height would mean durability was claimed for blocks that do not exist).
func WatermarkMonotonic() Invariant {
	const name = "watermark-monotonic"
	return Invariant{
		Name: name,
		Start: func(e *Env) error {
			last := make([]uint64, e.Scenario.Nodes)
			lastEpoch := make([]int, e.Scenario.Nodes)
			e.Go(func() {
				ticker := time.NewTicker(50 * time.Millisecond)
				defer ticker.Stop()
				for {
					select {
					case <-e.Done():
						return
					case <-ticker.C:
					}
					for i := 0; i < e.Scenario.Nodes; i++ {
						n, epoch := e.Node(i)
						if n == nil {
							continue
						}
						w := n.PersistWatermark(e.Channel)
						if led := n.Ledger(e.Channel); led != nil && w > led.Height() {
							e.Violate(name, "node %d watermark %d ahead of ledger height %d", i, w, led.Height())
						}
						if epoch == lastEpoch[i] && w < last[i] {
							e.Violate(name, "node %d watermark regressed %d -> %d within one incarnation", i, last[i], w)
						}
						last[i], lastEpoch[i] = w, epoch
					}
				}
			})
			return nil
		},
		Stop: func(e *Env) {},
	}
}

// DurableFloor requires, after quiesce, that every live node's persist
// watermark covers at least floorFrac of the canonical chain: whatever the
// faults did, the cluster must converge back to durably holding what it
// released. Polls up to 15 seconds to absorb backfill and state transfer.
func DurableFloor(floorFrac float64) Invariant {
	return DurableFloorExcept(floorFrac)
}

// DurableFloorExcept is DurableFloor with exempt node indices: a node
// whose commit log a fault deliberately poisoned (fail-fast fsync) stops
// advancing durability by design, so the floor is asserted on everyone
// else — the cluster as a whole must still durably hold what it released.
func DurableFloorExcept(floorFrac float64, except ...int) Invariant {
	const name = "durable-floor"
	exempt := make(map[int]bool, len(except))
	for _, i := range except {
		exempt[i] = true
	}
	return Invariant{
		Name:  name,
		Start: func(e *Env) error { return nil },
		Stop: func(e *Env) {
			target := uint64(floorFrac * float64(e.CanonHeight()))
			deadline := time.Now().Add(15 * time.Second)
			for {
				lagging := -1
				var lagMark uint64
				for i := 0; i < e.Scenario.Nodes; i++ {
					if exempt[i] {
						continue
					}
					n, _ := e.Node(i)
					if n == nil {
						continue
					}
					if w := n.PersistWatermark(e.Channel); w < target {
						lagging, lagMark = i, w
					}
				}
				if lagging < 0 {
					return
				}
				if time.Now().After(deadline) {
					e.Violate(name, "node %d durable watermark %d below floor %d (canonical height %d)",
						lagging, lagMark, target, e.CanonHeight())
					return
				}
				time.Sleep(50 * time.Millisecond)
			}
		},
	}
}

// ScrubHeals audits the corruption ledger after quiesce: every block
// record a disk fault damaged at rest must be readable again from the
// victim's durable store and hash-match the canonical chain — the scrub
// detected the rot and the f+1-verified peer repair healed it. Fails if
// no corruption was ever injected (the fault did not bite) or any damaged
// record is still unreadable or divergent at the deadline.
func ScrubHeals() Invariant {
	const name = "scrub-heals"
	return Invariant{
		Name:  name,
		Start: func(e *Env) error { return nil },
		Stop: func(e *Env) {
			marks := e.CorruptionLedger()
			if len(marks) == 0 {
				e.Violate(name, "no at-rest corruption was ever injected (fault did not bite)")
				return
			}
			deadline := time.Now().Add(20 * time.Second)
			for _, m := range marks {
				canon := e.Canon()
				for {
					n, _ := e.Node(m.Node)
					if n != nil {
						b, err := n.DurableBlock(m.Channel, m.Num)
						if err == nil {
							if m.Num < uint64(len(canon)) && b.Header.Hash() != canon[m.Num].Header.Hash() {
								e.Violate(name, "node %d block %s/%d healed into a copy divergent from the canonical chain",
									m.Node, m.Channel, m.Num)
							}
							break
						}
						if errors.Is(err, storage.ErrRecordGone) {
							break // pruned under retention: nothing left to heal
						}
					}
					if time.Now().After(deadline) {
						e.Violate(name, "node %d block %s/%d still corrupt after the run (self-heal never landed)",
							m.Node, m.Channel, m.Num)
						break
					}
					time.Sleep(100 * time.Millisecond)
				}
			}
		},
	}
}

// NoSilentLoss requires every envelope the load frontend acked to appear
// in the canonical released chain by the end of the run: an acknowledged
// write that vanishes is the one failure an ordering service may never
// exhibit, whatever its disks do. Polls so late-draining tail blocks can
// settle.
func NoSilentLoss() Invariant {
	const name = "no-silent-loss"
	return Invariant{
		Name:  name,
		Start: func(e *Env) error { return nil },
		Stop: func(e *Env) {
			deadline := time.Now().Add(15 * time.Second)
			for {
				pending, lowest, highest := e.ackedUndelivered()
				if pending == 0 {
					return
				}
				if time.Now().After(deadline) {
					e.Violate(name, "%d acked envelopes never delivered (lowest client %s seq %d, highest client %s seq %d): an acknowledged write was silently lost, or the chain stalled [%s]",
						pending, lowest.client, lowest.seq, highest.client, highest.seq, e.progress())
					return
				}
				time.Sleep(100 * time.Millisecond)
			}
		},
	}
}

// ReleaseKeepsUp requires, after quiesce, that both frontends release what
// a release quorum holds: the observer's and the load frontend's release
// cursors must reach the height 2f+1 live nodes hold (the (2f+1)-th highest
// ledger height). A node pushes each block once, so a copy lost on the wire,
// or never sent by a node that was down or restarted and forgot the
// frontend, stalls a frontend until it re-registers from its cursor — this
// is the check that it does. Polls up to the quiesce deadline.
func ReleaseKeepsUp() Invariant {
	const name = "release-keeps-up"
	return Invariant{
		Name:  name,
		Start: func(e *Env) error { return nil },
		Stop: func(e *Env) {
			deadline := time.Now().Add(quiesceTimeout)
			for {
				target := e.quorumHeight()
				observer := e.Observer.ReleasedHeight(e.Channel)
				load := e.LoadFE.ReleasedHeight(e.Channel)
				if observer >= target && load >= target {
					return
				}
				if time.Now().After(deadline) {
					e.Violate(name, "observer released %d and load frontend %d of the %d blocks 2f+1 live nodes hold [%s]",
						observer, load, target, e.progress())
					return
				}
				time.Sleep(100 * time.Millisecond)
			}
		},
	}
}

// quorumHeight is the ledger height 2f+1 live nodes reach (0 with fewer
// live nodes than that).
func (e *Env) quorumHeight() uint64 {
	var heights []uint64
	for i := 0; i < e.NodeCount(); i++ {
		if n, _ := e.Node(i); n != nil {
			var h uint64
			if led := n.Ledger(e.Channel); led != nil {
				h = led.Height()
			}
			heights = append(heights, h)
		}
	}
	quorum := 2*e.F + 1
	if len(heights) < quorum {
		return 0
	}
	sort.Slice(heights, func(i, j int) bool { return heights[i] > heights[j] })
	return heights[quorum-1]
}

// MetricsSane cross-checks the observability layer against ground truth
// after quiesce: every live node's persist-watermark gauge must converge
// to its PersistWatermark (the gauge is written on the same paths that
// advance the watermark, so divergence means an instrumentation path was
// dropped — exactly the drift crash-restart scenarios provoke), and no
// gathered series may carry NaN, a negative histogram sum, or bucket
// counts that disagree with the observation count.
func MetricsSane() Invariant {
	const name = "metrics-sane"
	return Invariant{
		Name:  name,
		Start: func(e *Env) error { return nil },
		Stop: func(e *Env) {
			reg := e.Metrics
			if reg == nil {
				e.Violate(name, "scenario ran without a metrics registry")
				return
			}
			// Watermark gauge vs PersistWatermark: backfill may still be
			// advancing both, so poll for convergence like DurableFloor.
			deadline := time.Now().Add(10 * time.Second)
			for {
				mismatch := ""
				fam := reg.Family("repro_node_persist_watermark")
				for i := 0; i < e.Scenario.Nodes; i++ {
					n, _ := e.Node(i)
					if n == nil {
						continue // killed: its gauge holds the last incarnation's value
					}
					want := n.PersistWatermark(e.Channel)
					got, ok := gaugeFor(fam, i, e.Channel)
					if !ok {
						mismatch = fmt.Sprintf("node %d has no persist-watermark series for channel %q", i, e.Channel)
						break
					}
					if uint64(got) != want {
						mismatch = fmt.Sprintf("node %d watermark gauge %.0f != PersistWatermark %d", i, got, want)
						break
					}
				}
				if mismatch == "" {
					break
				}
				if time.Now().After(deadline) {
					e.Violate(name, "%s", mismatch)
					break
				}
				time.Sleep(50 * time.Millisecond)
			}
			// No series may have gone insane, whatever the faults did.
			for _, f := range reg.Gather() {
				for _, p := range f.Points {
					if math.IsNaN(p.Value) {
						e.Violate(name, "series %s{%s} is NaN", f.Name, p.Labels)
						continue
					}
					if f.Type != obs.TypeHistogram {
						continue
					}
					if p.Value < 0 {
						e.Violate(name, "histogram %s{%s} has negative sum %g", f.Name, p.Labels, p.Value)
					}
					var buckets uint64
					for _, c := range p.Counts {
						buckets += c
					}
					if buckets != p.Count {
						e.Violate(name, "histogram %s{%s} bucket counts sum to %d, observation count %d",
							f.Name, p.Labels, buckets, p.Count)
					}
				}
			}
		},
	}
}

// gaugeFor finds the gauge value for a node/channel point of a family.
func gaugeFor(fam obs.Family, node int, channel string) (float64, bool) {
	nodeLabel := fmt.Sprintf("node=%q", fmt.Sprint(node))
	chanLabel := fmt.Sprintf("channel=%q", channel)
	for _, p := range fam.Points {
		if strings.Contains(p.Labels, nodeLabel) && strings.Contains(p.Labels, chanLabel) {
			return p.Value, true
		}
	}
	return 0, false
}

// MembershipConverged requires, after quiesce, that every live node agrees
// on the group: the same membership epoch and the same member set, matching
// the cluster's view of who is in the group. Scenarios that add, remove,
// replace, or restart nodes include it to prove the reconfiguration (and
// its durable record) fully propagated — a node recovered from disk into a
// stale group would diverge here. Polls up to 10 seconds so lagging state
// transfer can land.
func MembershipConverged() Invariant {
	const name = "membership-converged"
	return Invariant{
		Name:  name,
		Start: func(e *Env) error { return nil },
		Stop: func(e *Env) {
			deadline := time.Now().Add(10 * time.Second)
			for {
				divergence := membershipDivergence(e)
				if divergence == "" {
					return
				}
				if time.Now().After(deadline) {
					e.Violate(name, "%s", divergence)
					return
				}
				time.Sleep(50 * time.Millisecond)
			}
		},
	}
}

// membershipDivergence describes the first membership disagreement among
// live nodes, or "" when every view matches the cluster's group.
func membershipDivergence(e *Env) string {
	want := e.Members()
	wantSet := make(map[consensus.ReplicaID]bool, len(want))
	for _, id := range want {
		wantSet[id] = true
	}
	var epoch uint64
	seen := false
	for i := 0; i < e.NodeCount(); i++ {
		n, _ := e.Node(i)
		if n == nil {
			continue
		}
		v := n.MembershipView()
		if len(v.Members) != len(want) {
			return fmt.Sprintf("node %d sees %d members, the cluster has %d", i, len(v.Members), len(want))
		}
		for _, id := range v.Members {
			if !wantSet[id] {
				return fmt.Sprintf("node %d still counts replica %d as a member", i, int(id))
			}
		}
		if seen && v.Epoch != epoch {
			return fmt.Sprintf("membership epochs diverge across live nodes: %d vs %d", v.Epoch, epoch)
		}
		epoch, seen = v.Epoch, true
	}
	if !seen {
		return "no live node to read a membership view from"
	}
	return ""
}

// NoOverPrune continuously polls every live node's retention floor against
// its durable chain: the floor may never pass the height, never regress
// within one node incarnation, and — when the scenario bounds retention —
// never climb into the last RetainBlocks blocks. That retained range is
// exactly what the two-condition reclamation rule guarantees a joining or
// backfilling node can still fetch, so a violation means a node pruned
// history someone was entitled to.
func NoOverPrune() Invariant {
	const name = "no-over-prune"
	return Invariant{
		Name: name,
		Start: func(e *Env) error {
			last := make(map[int]uint64)
			lastEpoch := make(map[int]int)
			ramped := make(map[int]bool)
			e.Go(func() {
				ticker := time.NewTicker(50 * time.Millisecond)
				defer ticker.Stop()
				for {
					select {
					case <-e.Done():
						return
					case <-ticker.C:
					}
					for i := 0; i < e.NodeCount(); i++ {
						n, epoch := e.Node(i)
						if n == nil {
							continue
						}
						led := n.Ledger(e.Channel)
						if led == nil {
							continue
						}
						// Floor before height: the height can only grow
						// between the reads, so a race underestimates the
						// pruning, never fabricates a violation.
						floor := led.Floor()
						height := led.Height()
						if floor > height {
							e.Violate(name, "node %d retention floor %d above chain height %d", i, floor, height)
						}
						if ep, ok := lastEpoch[i]; !ok || ep != epoch {
							ramped[i] = false // fresh incarnation: re-arm below
						}
						// The retained-range rule arms once the incarnation
						// has held a full window: a joining node rebased at
						// the cluster floor legitimately starts with a short
						// span, but a node that once retained RetainBlocks
						// may never prune back into that range.
						if retain := e.Scenario.RetainBlocks; retain > 0 {
							if ramped[i] && floor > height-retain {
								e.Violate(name, "node %d pruned into the retained range: floor %d with height %d, retain %d",
									i, floor, height, retain)
							}
							if height-floor >= retain {
								ramped[i] = true
							}
						}
						if ep, ok := lastEpoch[i]; ok && ep == epoch && floor < last[i] {
							e.Violate(name, "node %d retention floor regressed %d -> %d within one incarnation",
								i, last[i], floor)
						}
						last[i], lastEpoch[i] = floor, epoch
					}
				}
			})
			return nil
		},
		Stop: func(e *Env) {},
	}
}

// LeaderChangeObserved requires that the synchronization phase actually ran:
// some live node must report at least one leader change by the end of the
// run. Scenarios that depose the leader (crash, equivocation) include it to
// prove the fault bit.
func LeaderChangeObserved() Invariant {
	const name = "leader-change"
	return Invariant{
		Name:  name,
		Start: func(e *Env) error { return nil },
		Stop: func(e *Env) {
			for i := 0; i < e.Scenario.Nodes; i++ {
				n, _ := e.Node(i)
				if n != nil && n.Replica().Stats().LeaderChanges >= 1 {
					return
				}
			}
			e.Violate(name, "no live node observed a leader change")
		},
	}
}
