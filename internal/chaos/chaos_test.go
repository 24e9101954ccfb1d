package chaos

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/transport"
)

func runScenario(t *testing.T, name string, inspect func(*Env)) Result {
	t.Helper()
	s, ok := Lookup(name)
	if !ok {
		t.Fatalf("unknown scenario %q", name)
	}
	return run(t, s, inspect)
}

func run(t *testing.T, s Scenario, inspect func(*Env)) Result {
	t.Helper()
	res, err := Run(s, Options{Scale: 0.5, DataDir: t.TempDir(), Inspect: inspect, Logf: t.Logf})
	if err != nil {
		t.Fatalf("run %s: %v", s.Name, err)
	}
	return res
}

// assertTrips is the shape of a teeth test: the run must fail, and the
// named invariant must be (one of) the reasons.
func assertTrips(t *testing.T, res Result, invariant, why string) {
	t.Helper()
	if res.Pass {
		t.Fatalf("%s passed %s; the %s invariant has no teeth", res.Scenario, why, invariant)
	}
	for _, inv := range res.Invariants {
		if inv.Name == invariant && !inv.Pass {
			return
		}
	}
	t.Fatalf("expected the %s invariant to trip, got %+v", invariant, res.Invariants)
}

func assertPass(t *testing.T, res Result) {
	t.Helper()
	for _, inv := range res.Invariants {
		if !inv.Pass {
			t.Errorf("%s: invariant %s failed: %v", res.Scenario, inv.Name, inv.Detail)
		}
	}
	if res.Blocks == 0 || res.Delivered == 0 {
		t.Errorf("%s: no progress under load: %d blocks, %d envelopes", res.Scenario, res.Blocks, res.Delivered)
	}
}

// TestChaosSmoke is the CI gate: the fault-free scenario must hold every
// invariant — any failure here is a harness bug, not an injected fault.
func TestChaosSmoke(t *testing.T) {
	assertPass(t, runScenario(t, "baseline", func(e *Env) {
		// What a no-silent-loss violation would print, checked on a run
		// where the truth is known: nothing is pending until three acks are
		// planted, and on a quiesced healthy cluster every stage of the
		// block path reports the same height.
		if pending, _, _ := e.ackedUndelivered(); pending != 0 {
			t.Errorf("%d acked envelopes undelivered after a fault-free run", pending)
		}
		e.noteAcked(loadKey{"ghost-b", 3})
		e.noteAcked(loadKey{"ghost-a", 9})
		e.noteAcked(loadKey{"ghost-a", 4})
		pending, lowest, highest := e.ackedUndelivered()
		if pending != 3 || lowest != (loadKey{"ghost-a", 4}) || highest != (loadKey{"ghost-b", 3}) {
			t.Errorf("ackedUndelivered = %d, %v, %v", pending, lowest, highest)
		}
		h := e.CanonHeight()
		want := ""
		for i := 0; i < e.NodeCount(); i++ {
			n, _ := e.Node(i)
			want += fmt.Sprintf("node %d ledger %d persisted %d {%s}; ", i, h, h, consensus.DebugSnapshot(n.Replica()))
		}
		want += fmt.Sprintf("canonical height %d, observer released %d, load frontend released %d", h, h, h)
		if got := e.progress(); got != want {
			t.Errorf("progress() = %q, want %q", got, want)
		}
	}))
}

func TestPartitionHealScenario(t *testing.T) {
	assertPass(t, runScenario(t, "partition-heal", nil))
}

// TestCrashMidWaveScenario crashes the leader under aggressive checkpoints:
// the persist-watermark checkpoint gate must keep its recovery gap-free and
// the synchronization phase must depose it meanwhile.
func TestCrashMidWaveScenario(t *testing.T) {
	assertPass(t, runScenario(t, "crash-mid-wave", nil))
}

func TestByzantineEquivocateScenario(t *testing.T) {
	assertPass(t, runScenario(t, "byzantine-equivocate", nil))
}

// TestForgedHistoryScenario runs a live forged-history adversary: every
// fetch probe must keep returning the canonical chain because the f+1
// verification quorum rejects the forged candidate.
func TestForgedHistoryScenario(t *testing.T) {
	assertPass(t, runScenario(t, "forged-history", nil))
}

// TestForgedHistoryTeeth proves the invariant has teeth, with verification
// on: the same scenario with f+1 forgers instead of f. The forged chain is
// deterministic in content, so two forgers sign identical headers, their
// signatures merge to f+1 over the forged range, and the verified-fetch
// invariant must trip — the threshold is what protects, and only up to f.
// Both of its probes must trip: f+1 signatures on every block
// (FetchVerified), and f+1 on the stop block of a Deliver seek below the
// window, with the links beneath it.
func TestForgedHistoryTeeth(t *testing.T) {
	s, _ := Lookup("forged-history")
	s.Faults = nil
	for _, node := range []int{0, 1} { // f+1 of the scenario's 4 nodes
		s.Faults = append(s.Faults,
			ByzantineFault(node, consensus.Behavior{}, core.Byzantine{ForgeHistory: true}, 0.0))
	}
	res := run(t, s, nil)
	assertTrips(t, res, "verified-fetch", "with f+1 nodes forging history")
	for _, probe := range []string{"verified fetch of", "deliver seek of"} {
		tripped := false
		for _, inv := range res.Invariants {
			for _, d := range inv.Detail {
				tripped = tripped || inv.Name == "verified-fetch" && strings.HasPrefix(d, probe)
			}
		}
		if !tripped {
			t.Errorf("the %q probe never returned the forged history: %+v", probe, res.Invariants)
		}
	}
}

// TestReconfigUnderChaos exercises consensus membership change while a
// partition heals: the group shrinks through consensus and keeps ordering.
func TestReconfigUnderChaos(t *testing.T) {
	res := runScenario(t, "reconfig-heal", func(e *Env) {
		if n, _ := e.Node(3); n != nil {
			t.Error("removed replica 3 still running at end of scenario")
		}
		for i := 0; i < 3; i++ {
			n, _ := e.Node(i)
			if n == nil {
				t.Errorf("survivor %d is down", i)
				continue
			}
			if m := n.Replica().Stats().Members; m != 3 {
				t.Errorf("survivor %d reports %d members, want 3", i, m)
			}
		}
	})
	assertPass(t, res)
}

// TestJoinUnderLoadScenario grows the cluster mid-run: a fifth node joins
// from an empty data directory under live retention and must converge into
// the group (membership-converged) without anyone pruning the range it
// needs (no-over-prune).
func TestJoinUnderLoadScenario(t *testing.T) {
	res := runScenario(t, "join-under-load", func(e *Env) {
		if got := e.NodeCount(); got != 5 {
			t.Errorf("cluster has %d node slots after the join, want 5", got)
		}
		n, _ := e.Node(4)
		if n == nil {
			t.Fatal("joined node 4 is down at end of scenario")
		}
		if v := n.MembershipView(); len(v.Members) != 5 || v.Epoch == 0 {
			t.Errorf("joined node sees %d members at epoch %d, want 5 members past epoch 0",
				len(v.Members), v.Epoch)
		}
	})
	assertPass(t, res)
}

// TestNodeReplaceScenario swaps a replica for a fresh identity mid-run:
// the successor joins first, then the old node leaves gracefully.
func TestNodeReplaceScenario(t *testing.T) {
	res := runScenario(t, "node-replace", func(e *Env) {
		if n, _ := e.Node(1); n != nil {
			t.Error("replaced node 1 still running at end of scenario")
		}
		n, _ := e.Node(4)
		if n == nil {
			t.Fatal("successor node 4 is down at end of scenario")
		}
		if v := n.MembershipView(); len(v.Members) != 4 {
			t.Errorf("successor sees %d members, want 4", len(v.Members))
		}
	})
	assertPass(t, res)
}

// TestRollingRestartScenario is the rolling-upgrade gate: every node is
// crash-restarted in sequence under continuous load, and the run must end
// with zero delivery gaps and a converged membership.
func TestRollingRestartScenario(t *testing.T) {
	res := runScenario(t, "rolling-restart", func(e *Env) {
		for i := 0; i < e.Scenario.Nodes; i++ {
			if n, _ := e.Node(i); n == nil {
				t.Errorf("node %d is down after the roll", i)
			}
		}
	})
	assertPass(t, res)
}

// TestQuorumLossHealScenario splits the group two against two: neither
// half keeps a quorum, so ordering stops until the heal. The healed group
// must then drain the queued load with a gap-free stream, every node
// durable to the canonical height, and no acked envelope lost.
func TestQuorumLossHealScenario(t *testing.T) {
	assertPass(t, runScenario(t, "quorum-loss-heal", nil))
}

func TestWANGeoScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("wan-geo runs real wide-area delays")
	}
	assertPass(t, runScenario(t, "wan-geo", nil))
}

// TestDiskBitRotScrubScenario rots durable block records at rest on one
// node mid-run: the scrubber must detect the damage and self-heal from
// f+1-verified peer copies before the run ends (scrub-heals), with no
// acked envelope lost (no-silent-loss).
func TestDiskBitRotScrubScenario(t *testing.T) {
	res := runScenario(t, "disk-bitrot-scrub", func(e *Env) {
		if len(e.CorruptionLedger()) == 0 {
			t.Error("the disk fault never injected corruption")
		}
	})
	assertPass(t, res)
}

// TestScrubHealsTeeth proves the scrub-heals invariant has teeth: with
// every fetch response addressed to the rotting node lost on the network,
// the same at-rest rot must trip it — detection without a reachable peer
// is not self-healing.
func TestScrubHealsTeeth(t *testing.T) {
	s, _ := Lookup("disk-bitrot-scrub")
	victim := consensus.ReplicaID(2).Addr() // the node DiskBitRotFault rots
	s.Faults = append(s.Faults, Fault{Name: "cut-repair-traffic", Run: func(e *Env) error {
		e.Network.SetDrop(func(m transport.Message) bool {
			return m.Type == core.MsgFetchResponse && m.To == victim
		})
		return nil
	}})
	assertTrips(t, run(t, s, nil), "scrub-heals", "with the victim cut off from every peer's copy")
}

// TestReleaseKeepsUpTeeth proves the release-keeps-up invariant has teeth:
// from a third of the way in, every block copy addressed to the load
// frontend is lost on the network, and so is every re-registration it sends
// to heal. The nodes keep ordering for the observer while the load
// frontend's cursor stands still, and the invariant must trip.
func TestReleaseKeepsUpTeeth(t *testing.T) {
	s, _ := Lookup("baseline")
	s.Faults = append(s.Faults, Fault{Name: "cut-load-frontend", Run: func(e *Env) error {
		if !after(e, frac(e, 0.3)) {
			return nil
		}
		load := transport.Addr(e.LoadFE.ID())
		e.Network.SetDrop(func(m transport.Message) bool {
			return m.Type == core.MsgBlock && m.To == load || m.Type == core.MsgRegister && m.From == load
		})
		return nil
	}})
	assertTrips(t, run(t, s, nil), "release-keeps-up", "with the load frontend cut off from every block copy")
}

// TestFsyncErrorFailFastScenario turns one node's disk fsync-dead
// mid-run: its commit log must poison itself and stop advancing
// durability (fail-fast) while the other replicas keep the service live
// with every acked envelope delivered.
func TestFsyncErrorFailFastScenario(t *testing.T) {
	res := runScenario(t, "fsync-error-failfast", func(e *Env) {
		n, _ := e.Node(3)
		if n == nil {
			t.Error("node 3 is down at end of scenario")
			return
		}
		if n.StoragePoisoned() == nil {
			t.Error("node 3's commit log was never poisoned despite every fsync failing")
		}
	})
	assertPass(t, res)
}

// TestWanCrashByzantineDiskScenario is the kitchen sink: WAN jitter and
// loss, a crash-recovery, a forged-history byzantine, and at-rest disk
// corruption at once — every standard invariant plus self-healing and
// no-silent-loss must hold together.
func TestWanCrashByzantineDiskScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("wan-crash-byzantine-disk runs real wide-area delays")
	}
	assertPass(t, runScenario(t, "wan-crash-byzantine-disk", nil))
}

// TestDiskSoak is the long compounded-disk-fault soak (~60s injection
// plus quiesce). It is opt-in via CHAOS_SOAK=1 — CI runs it nightly, not
// on every push.
func TestDiskSoak(t *testing.T) {
	if os.Getenv("CHAOS_SOAK") != "1" {
		t.Skip("set CHAOS_SOAK=1 to run the disk-fault soak")
	}
	s := SoakScenario()
	res, err := Run(s, Options{DataDir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatalf("run %s: %v", s.Name, err)
	}
	assertPass(t, res)
	if len(res.Invariants) == 0 {
		t.Fatal("soak ran without invariants")
	}
}
