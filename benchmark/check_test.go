package main

import (
	"strings"
	"testing"

	"repro/internal/cryptoutil"
	"repro/internal/fabric"
)

// testChain builds n linked blocks starting at number first.
func testChain(first uint64, n int) []*fabric.Block {
	gen := newEnvGen(1, 32)
	blocks := make([]*fabric.Block, n)
	var prev cryptoutil.Digest
	for i := range blocks {
		blocks[i] = blockOf(gen, first+uint64(i), prev, uint64(i))
		prev = blocks[i].Header.Hash()
	}
	return blocks
}

func checkStream(blocks ...*fabric.Block) (int, []string) {
	var v violations
	c := chainChecker{v: &v}
	for _, b := range blocks {
		c.add(b)
	}
	return v.snapshot()
}

func TestChainCheckerAcceptsALinkedStream(t *testing.T) {
	// Starting mid-chain is fine: the first block anchors the check.
	if n, msgs := checkStream(testChain(40, 5)[2:]...); n != 0 {
		t.Fatalf("linked stream rejected: %v", msgs)
	}
}

func TestChainCheckerRejectsGapDuplicateAndFork(t *testing.T) {
	chain := testChain(0, 4)
	for _, tc := range []struct {
		name   string
		stream []*fabric.Block
		want   string
	}{
		{"gap", []*fabric.Block{chain[0], chain[2]}, "gap"},
		{"duplicate", []*fabric.Block{chain[0], chain[1], chain[1]}, "again"},
		{"fork", []*fabric.Block{chain[0], fabric.NewBlock(1, cryptoutil.Hash([]byte("elsewhere")), chain[1].Envelopes)}, "fork"},
	} {
		n, msgs := checkStream(tc.stream...)
		if n != 1 || !strings.Contains(msgs[0], tc.want) {
			t.Errorf("%s: %d violations %v, want one mentioning %q", tc.name, n, msgs, tc.want)
		}
	}
}

func TestChainCheckerComparesAgainstRecordedHashes(t *testing.T) {
	chain := testChain(0, 3)
	var v violations
	writer := chainChecker{v: &v, record: make(map[uint64]cryptoutil.Digest)}
	for _, b := range chain {
		writer.add(b)
	}
	reader := chainChecker{v: &v, want: writer.record}
	for _, b := range chain {
		reader.add(b)
	}
	reader.restart() // a new range may start anywhere
	reader.add(chain[1])
	if n, msgs := v.snapshot(); n != 0 {
		t.Fatalf("replaying the recorded chain raised %v", msgs)
	}
	// Same number, same parent, other content: only the recorded hash tells.
	reader.restart()
	reader.add(fabric.NewBlock(2, chain[1].Header.Hash(), chain[0].Envelopes))
	if n, msgs := v.snapshot(); n != 1 || !strings.Contains(msgs[0], "differs") {
		t.Fatalf("a rewritten block passed: %d %v", n, msgs)
	}
}
