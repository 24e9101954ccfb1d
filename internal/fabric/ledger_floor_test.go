package fabric

import (
	"errors"
	"testing"

	"repro/internal/cryptoutil"
)

// memBackend is a map-backed BlockBackend + BlockReader + BlockRebaser
// standing in for the durable store in ledger tests.
type memBackend struct {
	blocks  map[uint64]*Block
	floor   uint64
	rebased bool
	// onRead, when set, runs once, at the next read.
	onRead func()
}

func newMemBackend() *memBackend { return &memBackend{blocks: make(map[uint64]*Block)} }

func (m *memBackend) PutBlockAsync(_ string, b *Block) (DurableToken, error) {
	m.blocks[b.Header.Number] = b
	return durableNow{}, nil
}

func (m *memBackend) ReadBlocks(_ string, start uint64, max int) ([]*Block, error) {
	if f := m.onRead; f != nil {
		m.onRead = nil
		f()
	}
	if start < m.floor {
		return nil, &PrunedError{Floor: m.floor}
	}
	var out []*Block
	for n := start; len(out) < max; n++ {
		b, ok := m.blocks[n]
		if !ok {
			break
		}
		out = append(out, b)
	}
	return out, nil
}

func (m *memBackend) RebaseBlocks(_ string, floor uint64, _ cryptoutil.Digest) error {
	m.floor = floor
	m.rebased = true
	return nil
}

// floorChain builds a verified chain of n blocks starting at number
// `start` with the given previous-hash anchor.
func floorChain(start uint64, anchor cryptoutil.Digest, n int) []*Block {
	blocks := make([]*Block, 0, n)
	prev := anchor
	for i := 0; i < n; i++ {
		env := &Envelope{ChannelID: "ch", ClientID: "c", Payload: []byte{byte(i)}}
		b := NewBlock(start+uint64(i), prev, [][]byte{env.Marshal()})
		prev = b.Header.Hash()
		blocks = append(blocks, b)
	}
	return blocks
}

func TestRestoredLedgerServesFromFloorAndAnswersPruned(t *testing.T) {
	backend := newMemBackend()
	anchor := cryptoutil.Hash([]byte("pruned-block-9-header"))
	chain := floorChain(10, anchor, 8) // blocks 10..17 retained
	for _, b := range chain {
		backend.PutBlockAsync("ch", b)
	}
	backend.floor = 10

	led := RestoreLedger("ch", backend, ChainState{
		Floor:    10,
		Anchor:   anchor,
		Height:   18,
		LastHash: chain[7].Header.Hash(),
	})
	if led.Height() != 18 || led.Floor() != 10 {
		t.Fatalf("restored: height %d floor %d", led.Height(), led.Floor())
	}

	// Reads below the floor answer the typed pruned error.
	var pe *PrunedError
	if _, err := led.Block(3); !errors.As(err, &pe) || pe.Floor != 10 {
		t.Fatalf("Block(3): %v", err)
	}
	if _, err := led.Range(0, 18); !errors.Is(err, ErrPruned) {
		t.Fatal("Range below the floor did not answer pruned")
	}
	// Blocks() clamps instead of failing (legacy convenience reader).
	if got := led.Blocks(0); len(got) != 8 || got[0].Header.Number != 10 {
		t.Fatalf("Blocks(0) = %d blocks from %d", len(got), got[0].Header.Number)
	}
	// The floor upward pages from the backend and verifies against the
	// anchor.
	if err := led.VerifyChain(); err != nil {
		t.Fatalf("VerifyChain from floor: %v", err)
	}

	// Appends continue the restored frontier.
	next := floorChain(18, chain[7].Header.Hash(), 1)[0]
	if err := led.Append(next); err != nil {
		t.Fatalf("append at frontier: %v", err)
	}
	// A wrong first-append linkage is rejected even right above a floor.
	bad := floorChain(19, cryptoutil.Hash([]byte("wrong")), 1)[0]
	if err := led.Append(bad); !errors.Is(err, ErrBrokenChain) {
		t.Fatalf("forged append: %v", err)
	}
}

func TestRestoredLedgerFirstAppendChecksAnchor(t *testing.T) {
	backend := newMemBackend()
	anchor := cryptoutil.Hash([]byte("anchor"))
	backend.floor = 5
	led := RestoreLedger("ch", backend, ChainState{Floor: 5, Anchor: anchor, Height: 5})

	wrong := floorChain(5, cryptoutil.Hash([]byte("not-the-anchor")), 1)[0]
	if err := led.Append(wrong); !errors.Is(err, ErrBrokenChain) {
		t.Fatalf("append without anchor linkage: %v", err)
	}
	right := floorChain(5, anchor, 1)[0]
	if err := led.Append(right); err != nil {
		t.Fatalf("append with anchor linkage: %v", err)
	}
}

func TestLedgerAdvanceFloor(t *testing.T) {
	backend := newMemBackend()
	led := NewPersistentLedger("ch", backend)
	chain := floorChain(0, cryptoutil.Digest{}, 10)
	for _, b := range chain {
		if err := led.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := led.AdvanceFloor(6); err != nil {
		t.Fatalf("AdvanceFloor: %v", err)
	}
	backend.floor = 6 // the store compacted alongside
	if led.Floor() != 6 {
		t.Fatalf("floor = %d", led.Floor())
	}
	if _, err := led.Block(5); !errors.Is(err, ErrPruned) {
		t.Fatal("read below the advanced floor succeeded")
	}
	if err := led.VerifyChain(); err != nil {
		t.Fatalf("VerifyChain after advance: %v", err)
	}
	// Regressions and past-height floors are no-ops.
	if err := led.AdvanceFloor(2); err != nil || led.Floor() != 6 {
		t.Fatalf("floor regressed: %d, err %v", led.Floor(), err)
	}
	if err := led.AdvanceFloor(10); err != nil || led.Floor() != 6 {
		t.Fatalf("floor past height: %d, err %v", led.Floor(), err)
	}
}

func TestLedgerRebase(t *testing.T) {
	backend := newMemBackend()
	led := NewPersistentLedger("ch", backend)
	for _, b := range floorChain(0, cryptoutil.Digest{}, 3) {
		if err := led.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	anchor := cryptoutil.Hash([]byte("block-19"))
	if err := led.Rebase(20, anchor); err != nil {
		t.Fatalf("Rebase: %v", err)
	}
	if !backend.rebased {
		t.Fatal("backend was not rebased first")
	}
	if led.Height() != 20 || led.Floor() != 20 {
		t.Fatalf("after rebase: height %d floor %d", led.Height(), led.Floor())
	}
	jumped := floorChain(20, anchor, 2)
	for _, b := range jumped {
		if err := led.Append(b); err != nil {
			t.Fatalf("append after rebase: %v", err)
		}
	}
	if err := led.VerifyChain(); err != nil {
		t.Fatalf("VerifyChain after rebase: %v", err)
	}
	// Rebasing behind the height is refused.
	if err := led.Rebase(5, anchor); err == nil {
		t.Fatal("backward rebase succeeded")
	}
}

// Retention compacts concurrently with VerifyChain: the store first, the
// ledger's floor when the compaction reports (AdvanceFloor). A read that
// finds its blocks pruned, by either, restarts the walk at the new floor
// and anchor instead of failing a chain that verifies.
func TestVerifyChainRestartsAtACompactedFloor(t *testing.T) {
	restored := func(n int) (*Ledger, *memBackend) {
		backend := newMemBackend()
		chain := floorChain(0, cryptoutil.Digest{}, n)
		for _, b := range chain {
			backend.PutBlockAsync("ch", b)
		}
		return RestoreLedger("ch", backend, ChainState{Height: uint64(n), LastHash: chain[n-1].Header.Hash()}), backend
	}

	// The store compacted after VerifyChain read the ledger's floor and
	// before its first read: the ledger's floor is still 0.
	led, backend := restored(20)
	backend.onRead = func() { backend.floor = 9 }
	if err := led.VerifyChain(); err != nil {
		t.Fatalf("VerifyChain across a compaction of the store: %v", err)
	}
	if led.Floor() != 9 {
		t.Fatalf("floor %d after the walk found the store compacted to 9", led.Floor())
	}

	// Store and ledger compacted during the walk's first window: the
	// second starts below the ledger's new floor.
	led, backend = restored(600)
	backend.onRead = func() {
		backend.floor = 300
		if err := led.AdvanceFloor(300); err != nil {
			t.Errorf("AdvanceFloor: %v", err)
		}
	}
	if err := led.VerifyChain(); err != nil {
		t.Fatalf("VerifyChain across a compaction mid-walk: %v", err)
	}

	// A chain that does not verify still fails after a restart.
	led, backend = restored(20)
	backend.blocks[15] = floorChain(15, cryptoutil.Hash([]byte("forged")), 1)[0]
	backend.onRead = func() { backend.floor = 9 }
	if err := led.VerifyChain(); err == nil {
		t.Fatal("VerifyChain passed a forged block after a restart")
	}
}
