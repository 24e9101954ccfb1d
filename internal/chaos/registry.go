package chaos

import (
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
)

// standardInvariants is the checker set every scenario runs; scenarios add
// LeaderChangeObserved when they depose the leader, and relax the durable
// floor when their world is lossy.
func standardInvariants(floor float64) []Invariant {
	return []Invariant{
		DeliverContinuity(),
		VerifiedFetch(),
		WatermarkMonotonic(),
		DurableFloor(floor),
		ReleaseKeepsUp(),
	}
}

// Scenarios is the named chaos matrix the package's tests run and the
// README documents. Every scenario keeps the same 4-node durable cluster under
// continuous load; they differ in the faults injected and the invariants
// those faults attack.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name:        "baseline",
			Description: "no faults: the harness itself must hold every invariant",
			Invariants:  append(standardInvariants(1.0), MetricsSane()),
		},
		{
			Name:           "wan-geo",
			Description:    "four continents with seeded jitter and dissemination loss; release rules absorb dropped copies",
			RequestTimeout: 4 * time.Second,
			Duration:       8 * time.Second,
			Faults:         []Fault{WANFault(10, 0.003)},
			Invariants:     standardInvariants(0.9),
		},
		{
			Name:        "partition-heal",
			Description: "a minority replica is partitioned away mid-run and healed; it must catch back up",
			Faults:      []Fault{PartitionFault([]int{1}, 0.25, 0.5)},
			Invariants:  standardInvariants(1.0),
		},
		{
			Name:               "crash-mid-wave",
			Description:        "the leader crashes mid-commit-wave with aggressive checkpoints and recovers from disk; the persist-watermark gate must keep its recovery gap-free",
			CheckpointInterval: 2,
			RequestTimeout:     800 * time.Millisecond,
			Duration:           6 * time.Second,
			Faults:             []Fault{CrashRestartFault(0, 0.33, 0.66)},
			Invariants:         append(standardInvariants(1.0), LeaderChangeObserved(), MetricsSane()),
		},
		{
			Name:           "byzantine-equivocate",
			Description:    "node 0 equivocates at both layers: conflicting consensus proposals and conflicting dissemination copies; the release rules and synchronization phase must hold",
			RequestTimeout: 800 * time.Millisecond,
			Duration:       6 * time.Second,
			Faults: []Fault{ByzantineFault(0,
				consensus.Behavior{Equivocate: true},
				core.Byzantine{EquivocateDissemination: true},
				0.25)},
			Invariants: append(standardInvariants(1.0), LeaderChangeObserved()),
		},
		{
			Name:        "forged-history",
			Description: "node 0 serves a self-signed forged chain to every fetch; f+1 verification must reject it while honest copies keep fetch live",
			Faults: []Fault{ByzantineFault(0,
				consensus.Behavior{},
				core.Byzantine{ForgeHistory: true},
				0.0)},
			Invariants: standardInvariants(1.0),
		},
		{
			Name:        "reconfig-heal",
			Description: "a replica is partitioned, healed, then removed through consensus while it reconciles; the shrunken group keeps ordering",
			Duration:    6 * time.Second,
			Faults: []Fault{
				PartitionFault([]int{3}, 0.15, 0.35),
				ReconfigFault(3, 0.5),
			},
			Invariants: standardInvariants(1.0),
		},
		{
			Name:         "join-under-load",
			Description:  "a fifth node joins from an empty data directory mid-run under live retention: admitted through an ordered add, it bootstraps from the peers' pruning floor via verified fetch and must catch up to the head",
			Duration:     8 * time.Second,
			RetainBlocks: 512,
			Faults:       []Fault{JoinFault(0.3)},
			Invariants:   append(standardInvariants(1.0), MembershipConverged(), NoOverPrune()),
		},
		{
			Name:        "node-replace",
			Description: "a replica is replaced mid-run: the successor joins first so quorum never thins, then the old node is removed through consensus and leaves",
			Duration:    8 * time.Second,
			Faults:      []Fault{ReplaceFault(1, 0.25)},
			Invariants:  append(standardInvariants(1.0), MembershipConverged()),
		},
		{
			Name:           "rolling-restart",
			Description:    "every node is crash-restarted in sequence under continuous load (the rolling-upgrade procedure); each must recover from disk and catch up before the next goes down, with zero delivery gaps",
			RequestTimeout: 800 * time.Millisecond,
			Duration:       10 * time.Second,
			Faults:         []Fault{RollingRestartFault(0.1, 250*time.Millisecond)},
			Invariants:     append(standardInvariants(1.0), MembershipConverged(), LeaderChangeObserved()),
		},
		{
			Name:        "disk-bitrot-scrub",
			Description: "silent at-rest corruption of durable block records on one node; the background scrubber must detect it and self-heal from f+1-verified peer copies, with no acked write lost",
			DiskFaults:  true,
			Duration:    8 * time.Second,
			Faults:      []Fault{DiskBitRotFault(2, 0.35, 2)},
			Invariants:  append(standardInvariants(1.0), ScrubHeals(), NoSilentLoss()),
		},
		{
			Name:        "fsync-error-failfast",
			Description: "one node's disk accepts writes but fails every fsync; its commit log must poison itself (fail-fast) and stop advancing durability rather than ack writes the kernel already dropped, while the remaining replicas keep the service live and lossless",
			DiskFaults:  true,
			Duration:    8 * time.Second,
			Faults:      []Fault{FsyncFailFault(3, 0.4)},
			Invariants: []Invariant{
				DeliverContinuity(),
				VerifiedFetch(),
				WatermarkMonotonic(),
				DurableFloorExcept(1.0, 3),
				NoSilentLoss(),
				ReleaseKeepsUp(),
			},
		},
		{
			Name:           "wan-crash-byzantine-disk",
			Description:    "the kitchen sink on a wide-area network: seeded jitter and dissemination loss, a mid-run crash-recovery, a forged-history byzantine, and at-rest disk corruption — the release rules, recovery, verification, and self-healing must all hold at once",
			DiskFaults:     true,
			RequestTimeout: 4 * time.Second,
			Duration:       10 * time.Second,
			Faults: []Fault{
				WANFault(10, 0.003),
				CrashRestartFault(1, 0.3, 0.55),
				ByzantineFault(0, consensus.Behavior{}, core.Byzantine{ForgeHistory: true}, 0.2),
				DiskBitRotFault(2, 0.35, 2),
			},
			Invariants: append(standardInvariants(0.9), ScrubHeals(), NoSilentLoss()),
		},
		{
			Name:        "quorum-loss-heal",
			Description: "half the group is partitioned from the other half mid-run, so neither side keeps a quorum and ordering stalls; once healed the group must drain its queued backlog with no acked write lost",
			Duration:    8 * time.Second,
			Faults:      []Fault{PartitionFault([]int{0, 1}, 0.25, 0.6)},
			Invariants:  append(standardInvariants(1.0), NoSilentLoss()),
		},
	}
}

// SoakScenario is the long compounded-disk-fault soak: a minute of
// continuous load while bit-rot keeps landing on two nodes, a third disk
// runs slow, and a fourth goes fsync-dead mid-run. It is deliberately NOT
// in Scenarios() — at ~60s plus quiesce it is far too slow for the
// default matrix — and runs only from the CHAOS_SOAK=1-gated test.
func SoakScenario() Scenario {
	return Scenario{
		Name:           "disk-soak",
		Description:    "60s compounded disk-fault soak: recurring at-rest bit-rot on two nodes, sustained storage latency on a third, and a mid-run fsync-dead disk on a fourth — self-healing and fail-fast must hold together under continuous load",
		DiskFaults:     true,
		RequestTimeout: 4 * time.Second,
		Duration:       60 * time.Second,
		Faults: []Fault{
			DiskBitRotFault(2, 0.10, 2),
			DiskBitRotFault(1, 0.30, 2),
			DiskBitRotFault(2, 0.55, 2),
			DiskBitRotFault(1, 0.80, 1),
			DiskLatencyFault(0, 0.25, 2*time.Millisecond),
			FsyncFailFault(3, 0.70),
		},
		Invariants: []Invariant{
			DeliverContinuity(),
			VerifiedFetch(),
			WatermarkMonotonic(),
			DurableFloorExcept(0.9, 3),
			ScrubHeals(),
			NoSilentLoss(),
			ReleaseKeepsUp(),
		},
	}
}

// Lookup resolves a scenario of the standard matrix by name.
func Lookup(name string) (Scenario, bool) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}
