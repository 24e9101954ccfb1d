package chaos

import (
	"fmt"
	"os"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/wan"
)

// wanRegions is the round-robin placement WANFault assigns to replicas —
// the paper's geo evaluation sites.
var wanRegions = []wan.Region{wan.Oregon, wan.Ireland, wan.Sydney, wan.SaoPaulo}

// WANFault puts the whole run on a seeded wide-area network: replicas are
// placed round-robin across four continents, the observer and load
// frontends in Virginia and Canada, and every link gets the measured RTT
// with ±jitterPct% deterministic jitter. lossFrac additionally drops that
// fraction of node→frontend dissemination copies (the redundant path — the
// release rules must absorb it; consensus and client traffic is exempt so
// the scenario probes redundancy, not retransmission liveness).
func WANFault(jitterPct int, lossFrac float64) Fault {
	return Fault{
		Name: "wan",
		Run: func(e *Env) error {
			placement := make(map[transport.Addr]wan.Region)
			for i, id := range e.Cluster.Replicas() {
				placement[id.Addr()] = wanRegions[i%len(wanRegions)]
			}
			feTargets := map[transport.Addr]bool{
				transport.Addr(e.Observer.ID()): true,
				transport.Addr(e.LoadFE.ID()):   true,
			}
			placement[transport.Addr(e.Observer.ID())] = wan.Virginia
			placement[transport.Addr(e.Observer.ID()+"-client")] = wan.Virginia
			placement[transport.Addr(e.LoadFE.ID())] = wan.Canada
			placement[transport.Addr(e.LoadFE.ID()+"-client")] = wan.Canada
			e.Network.SetLatency(wan.NewModelSeeded(placement, jitterPct, e.Scenario.Seed))
			if lossFrac > 0 {
				loss := wan.NewLoss(lossFrac, e.Scenario.Seed+1, func(m transport.Message) bool {
					return !feTargets[m.To]
				})
				e.Network.SetDrop(loss.Drop)
			}
			<-e.Done()
			// Drop nothing during quiesce so the drain is bounded; the
			// latency model stays (it is the scenario's world, not a
			// transient fault).
			e.Network.SetDrop(nil)
			return nil
		},
	}
}

// PartitionFault splits the minority replicas from the rest of the cluster
// at atFrac of the scenario duration and heals at healFrac. Frontends stay
// connected to both sides. A "minority" of half the group leaves neither
// side a quorum, and ordering stalls until the heal.
func PartitionFault(minority []int, atFrac, healFrac float64) Fault {
	return Fault{
		Name: "partition",
		Run: func(e *Env) error {
			if !after(e, frac(e, atFrac)) {
				return nil
			}
			inMinority := make(map[int]bool, len(minority))
			var a []transport.Addr
			for _, i := range minority {
				inMinority[i] = true
				a = append(a, consensus.ReplicaID(i).Addr())
			}
			var b []transport.Addr
			for i := range e.Cluster.Replicas() {
				if !inMinority[i] {
					b = append(b, consensus.ReplicaID(i).Addr())
				}
			}
			e.Network.Partition(a, b)
			defer e.Network.Heal()
			if !after(e, frac(e, healFrac-atFrac)) {
				return nil
			}
			return nil
		},
	}
}

// CrashRestartFault kills node i mid-run and crash-recovers it from its
// data directory before the window closes. The restart happens even if the
// window closes first, so final invariants always see the node back.
func CrashRestartFault(node int, atFrac, restartFrac float64) Fault {
	return Fault{
		Name: "crash-restart",
		Run: func(e *Env) error {
			if !after(e, frac(e, atFrac)) {
				return nil
			}
			e.KillNode(node)
			after(e, frac(e, restartFrac-atFrac))
			if err := e.RestartNode(node); err != nil {
				return fmt.Errorf("restart node %d: %w", node, err)
			}
			return nil
		},
	}
}

// ByzantineFault turns node i byzantine at atFrac: behavior corrupts its
// consensus-layer messages (equivocating proposals, muteness), byz corrupts
// its ordering-layer service (equivocating dissemination, forged fetch
// history). The node stays byzantine for the rest of the run.
func ByzantineFault(node int, behavior consensus.Behavior, byz core.Byzantine, atFrac float64) Fault {
	return Fault{
		Name: "byzantine",
		Run: func(e *Env) error {
			if !after(e, frac(e, atFrac)) {
				return nil
			}
			n, _ := e.Node(node)
			if n == nil {
				return fmt.Errorf("node %d is down, cannot turn byzantine", node)
			}
			n.SetByzantine(byz)
			n.Replica().SetBehavior(behavior)
			return nil
		},
	}
}

// JoinFault grows the cluster by one node at atFrac of the run: a fresh
// identity boots from an empty data directory, is announced through an
// ordered ReconfigAdd, and must then catch up to the canonical height it
// was admitted at — via checkpoint state transfer plus verified block
// fetch from the peers' retention floor — while load continues. The fault
// fails if the join never converges or the newcomer never catches up.
func JoinFault(atFrac float64) Fault {
	return Fault{
		Name: "join",
		Run: func(e *Env) error {
			if !after(e, frac(e, atFrac)) {
				return nil
			}
			target := e.CanonHeight()
			i, err := e.AddNode()
			if err != nil {
				return fmt.Errorf("join: %w", err)
			}
			return waitCaughtUp(e, i, target, 15*time.Second)
		},
	}
}

// ReplaceFault swaps node i for a fresh identity at atFrac: the successor
// joins first (the group briefly runs one node larger, so quorum never
// thins), then node i is removed through consensus and leaves.
func ReplaceFault(node int, atFrac float64) Fault {
	return Fault{
		Name: "replace",
		Run: func(e *Env) error {
			if !after(e, frac(e, atFrac)) {
				return nil
			}
			target := e.CanonHeight()
			ni, err := e.ReplaceNode(node)
			if err != nil {
				return fmt.Errorf("replace node %d: %w", node, err)
			}
			return waitCaughtUp(e, ni, target, 15*time.Second)
		},
	}
}

// RollingRestartFault restarts every node of the original cluster in
// sequence (the rolling-upgrade procedure): each is crashed, recovered
// from its data directory after pause, and must catch back up to the
// canonical height it died at before the next node goes down, so quorum
// is thinned by at most one node at any time. The first node that leads
// when its turn comes stays down two request timeouts, so that it is
// certainly deposed (LeaderChangeObserved): back sooner, it may beat the
// followers' timers. The sequence runs to completion even if the injection
// window closes mid-roll, so final invariants see the whole cluster back.
func RollingRestartFault(atFrac float64, pause time.Duration) Fault {
	return Fault{
		Name: "rolling-restart",
		Run: func(e *Env) error {
			if !after(e, frac(e, atFrac)) {
				return nil
			}
			deposed := false
			for i := 0; i < e.Scenario.Nodes; i++ {
				target := e.CanonHeight()
				hold := pause
				if n, _ := e.Node(i); n != nil && !deposed && n.Replica().CurrentLeader() == n.ID() {
					hold, deposed = max(pause, 2*e.Scenario.RequestTimeout), true
				}
				e.KillNode(i)
				time.Sleep(hold)
				if err := e.RestartNode(i); err != nil {
					return fmt.Errorf("rolling restart: node %d: %w", i, err)
				}
				if err := waitCaughtUp(e, i, target, 15*time.Second); err != nil {
					return fmt.Errorf("rolling restart: %w", err)
				}
			}
			return nil
		},
	}
}

// waitCaughtUp polls until node i's durable chain reaches target height.
func waitCaughtUp(e *Env, i int, target uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		n, _ := e.Node(i)
		if n != nil {
			if led := n.Ledger(e.Channel); led != nil && led.Height() >= target {
				return nil
			}
		}
		if time.Now().After(deadline) {
			var h uint64
			if n != nil {
				if led := n.Ledger(e.Channel); led != nil {
					h = led.Height()
				}
			}
			return fmt.Errorf("node %d never caught up to height %d (at %d)", i, target, h)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// DiskBitRotFault silently corrupts `blocks` durable block records at
// rest on node i's disk at atFrac of the run: each record's bytes are
// flipped in the segment file underneath the storage stack (the way real
// media rots — no write path ever sees it), the damage is recorded in the
// corruption ledger for ScrubHeals to audit, and a scrub pass is
// triggered so the self-heal path runs inside the scenario window. The
// corrupted records sit in the middle of the node's durable history, so
// they are old enough to be group-committed and young enough to be
// retained.
func DiskBitRotFault(node int, atFrac float64, blocks int) Fault {
	return Fault{
		Name: "disk-bitrot",
		Run: func(e *Env) error {
			after(e, frac(e, atFrac)) // inject even if the window closed first
			if blocks < 1 {
				blocks = 1
			}
			// Wait until the node has enough durable history to damage.
			var wm uint64
			deadline := time.Now().Add(10 * time.Second)
			for {
				n, _ := e.Node(node)
				if n != nil {
					wm = n.PersistWatermark(e.Channel)
				}
				if wm >= uint64(blocks)+2 {
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("node %d never persisted %d blocks to corrupt (watermark %d)",
						node, blocks+2, wm)
				}
				time.Sleep(50 * time.Millisecond)
			}
			n, _ := e.Node(node)
			if n == nil {
				return fmt.Errorf("node %d is down, cannot rot its disk", node)
			}
			start := wm / 2
			for num := start; num < start+uint64(blocks); num++ {
				path, off, length, err := n.BlockSpan(e.Channel, num)
				if err != nil {
					return fmt.Errorf("locating node %d block %d at rest: %w", node, num, err)
				}
				if err := flipByteAt(path, off+length-1); err != nil {
					return fmt.Errorf("rotting node %d block %d: %w", node, num, err)
				}
				e.NoteCorrupted(node, e.Channel, num)
			}
			n.TriggerScrub()
			return nil
		},
	}
}

// flipByteAt XORs one bit of the byte at off in path, writing directly to
// the file underneath every storage abstraction — at-rest corruption.
func flipByteAt(path string, off int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		return err
	}
	b[0] ^= 0x01
	_, err = f.WriteAt(b[:], off)
	return err
}

// FsyncFailFault turns node i's disk into one that accepts writes but
// fails every fsync (the dead-disk / fsyncgate mode) at atFrac of the
// run. The node's commit log must then poison itself on the next wave —
// fail-fast — and stop advancing durability rather than retrying a sync
// the kernel semantics make meaningless. The fault fails the run if the
// log never poisons: that would mean a node kept acking writes its disk
// never accepted.
func FsyncFailFault(node int, atFrac float64) Fault {
	return Fault{
		Name: "fsync-fail",
		Run: func(e *Env) error {
			if !after(e, frac(e, atFrac)) {
				return nil
			}
			ffs := e.FaultFS(node)
			if ffs == nil {
				return fmt.Errorf("node %d has no fault filesystem (scenario must set DiskFaults)", node)
			}
			ffs.FailSyncsSticky(true)
			deadline := time.Now().Add(10 * time.Second)
			for {
				n, _ := e.Node(node)
				if n != nil && n.StoragePoisoned() != nil {
					return nil
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("node %d commit log never poisoned despite every fsync failing", node)
				}
				time.Sleep(20 * time.Millisecond)
			}
		},
	}
}

// DiskLatencyFault injects d of latency into every storage operation on
// node i from atFrac until the injection window closes (a dying or
// overloaded disk). Cleared at the window's end so quiesce and final
// invariants run at full speed.
func DiskLatencyFault(node int, atFrac float64, d time.Duration) Fault {
	return Fault{
		Name: "disk-latency",
		Run: func(e *Env) error {
			if !after(e, frac(e, atFrac)) {
				return nil
			}
			ffs := e.FaultFS(node)
			if ffs == nil {
				return fmt.Errorf("node %d has no fault filesystem (scenario must set DiskFaults)", node)
			}
			ffs.SetOpDelay(d)
			<-e.Done()
			ffs.SetOpDelay(0)
			return nil
		},
	}
}

// ReconfigFault removes a replica from the group through consensus at
// atFrac: an admin client submits the membership change, the fault waits
// for the survivors to report the shrunken membership, then crashes the
// removed node (it plays no further part).
func ReconfigFault(remove int, atFrac float64) Fault {
	return Fault{
		Name: "reconfig",
		Run: func(e *Env) error {
			if !after(e, frac(e, atFrac)) {
				return nil
			}
			conn, err := e.Network.Join("chaos-admin-client")
			if err != nil {
				return fmt.Errorf("admin join: %w", err)
			}
			client, err := consensus.NewClient(conn, consensus.ClientConfig{
				Replicas: e.Cluster.Replicas(),
			})
			if err != nil {
				conn.Close()
				return fmt.Errorf("admin client: %w", err)
			}
			defer conn.Close()
			defer client.Close()
			op := consensus.EncodeReconfigOp(consensus.ReconfigOp{
				Kind:    consensus.ReconfigRemove,
				Replica: consensus.ReplicaID(remove),
			})
			if err := client.Invoke(op); err != nil {
				return fmt.Errorf("reconfig invoke: %w", err)
			}
			want := int32(e.Scenario.Nodes - 1)
			deadline := time.Now().Add(10 * time.Second)
			for {
				shrunk := true
				for i := 0; i < e.Scenario.Nodes; i++ {
					if i == remove {
						continue
					}
					n, _ := e.Node(i)
					if n != nil && n.Replica().Stats().Members != want {
						shrunk = false
					}
				}
				if shrunk {
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("membership never shrank to %d", want)
				}
				time.Sleep(20 * time.Millisecond)
			}
			e.KillNode(remove)
			return nil
		},
	}
}
