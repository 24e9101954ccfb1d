package main

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/fabric"
)

// maxViolations bounds the violation messages kept for the report; the
// count keeps running past it.
const maxViolations = 8

// violations collects correctness-check failures. Every one counts into
// the run's failed total and makes the run exit non-zero.
type violations struct {
	mu    sync.Mutex
	count int
	msgs  []string
}

func (v *violations) addf(format string, args ...any) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.count++
	if len(v.msgs) < maxViolations {
		v.msgs = append(v.msgs, fmt.Sprintf(format, args...))
	}
}

// snapshot returns the count and the kept messages.
func (v *violations) snapshot() (int, []string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.count, append([]string(nil), v.msgs...)
}

// chainChecker verifies a delivered block stream: numbers advance by one
// (no gap, no duplicate) and every block's PrevHash is the header hash of
// its predecessor. The first block it sees anchors the check, so a stream
// that starts mid-chain (Deliver from newest) is checked from there.
// Optionally it remembers every header hash (want == nil) or compares each
// against a remembered one (want != nil) — the replay workload's "every
// pass reproduces the hashes seen while populating".
type chainChecker struct {
	started bool
	next    uint64
	prev    cryptoutil.Digest
	record  map[uint64]cryptoutil.Digest // filled when non-nil
	want    map[uint64]cryptoutil.Digest // compared against when non-nil
	v       *violations
}

// restart forgets the anchor so the next block may start a new range (the
// replay workload opens a fresh stream per range).
func (c *chainChecker) restart() { c.started = false }

func (c *chainChecker) add(b *fabric.Block) {
	hash := b.Header.Hash()
	num := b.Header.Number
	switch {
	case !c.started:
		c.started = true
	case num < c.next:
		c.v.addf("block %d delivered again (expected %d)", num, c.next)
		return
	case num > c.next:
		c.v.addf("gap: block %d delivered after %d", num, c.next-1)
	case b.Header.PrevHash != c.prev:
		c.v.addf("fork: block %d does not link to the delivered block %d", num, num-1)
	}
	if c.record != nil {
		c.record[num] = hash
	}
	if c.want != nil {
		if w, ok := c.want[num]; !ok || w != hash {
			c.v.addf("block %d differs from the block delivered while populating", num)
		}
	}
	c.next = num + 1
	c.prev = hash
}

// checkLedgersAgree compares the durable ledgers of every node at a set
// of heights all of them hold: the header hash must be identical. Nodes
// without a durable ledger (in-memory workloads) have nothing to compare.
func checkLedgersAgree(nodes []*core.OrderingNode, channel string, v *violations) {
	var ledgers []*fabric.Ledger
	for _, n := range nodes {
		if led := n.Ledger(channel); led != nil {
			ledgers = append(ledgers, led)
		}
	}
	if len(ledgers) < 2 {
		return
	}
	lo, hi := uint64(0), ^uint64(0)
	for _, led := range ledgers {
		if f := led.Floor(); f > lo {
			lo = f
		}
		if h := led.Height(); h < hi {
			hi = h
		}
	}
	if hi <= lo {
		v.addf("ledgers share no height: floors reach %d, heights start at %d", lo, hi)
		return
	}
	const samples = 16
	step := (hi - lo) / samples
	if step == 0 {
		step = 1
	}
	for h := lo; h < hi; h += step {
		var want cryptoutil.Digest
		have := false
		for i, led := range ledgers {
			b, err := led.Block(h)
			if errors.Is(err, fabric.ErrPruned) {
				continue // compacted between the floor read and this one
			}
			if err != nil {
				v.addf("ledger %d: reading block %d: %v", i, h, err)
				continue
			}
			if hash := b.Header.Hash(); !have {
				want, have = hash, true
			} else if hash != want {
				v.addf("ledger %d disagrees with the others at height %d", i, h)
			}
		}
	}
}
