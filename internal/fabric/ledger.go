package fabric

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/cryptoutil"
)

// Ledger errors.
var (
	ErrBlockNumber   = errors.New("ledger: block number out of sequence")
	ErrBrokenChain   = errors.New("ledger: previous-hash mismatch")
	ErrBlockNotFound = errors.New("ledger: block not found")
)

// DurableToken tracks a persisted block: Wait starts the record's group
// commit if none has (a backend may hold records lazily) and blocks until
// it fsynced, returning the commit error, if any; Settle blocks the same
// way without starting a commit, for watchers that must not cost one.
// Backends complete tokens in append order, so waiting on the newest
// token of a run implies the whole run is durable.
type DurableToken interface {
	Wait() error
	Settle() error
}

// BlockBackend persists blocks accepted by a ledger (storage.NodeStorage
// over the node's unified commit log). The put only enqueues the block
// for the backend's next group commit and returns its durability token,
// so a contiguous run of blocks persists in one fsync wave instead of one
// wave per block. Puts for one channel must be called in block order and
// commit in call order. Implementations must be idempotent for block
// numbers they already hold, so recovery can replay a chain through the
// ledger without duplicating records.
type BlockBackend interface {
	PutBlockAsync(channel string, b *Block) (DurableToken, error)
}

// durableNow is the token of an append nothing has to wait for (a ledger
// without a backend).
type durableNow struct{}

func (durableNow) Wait() error   { return nil }
func (durableNow) Settle() error { return nil }

// BlockReader serves random-access reads of persisted blocks: up to max
// blocks of one channel starting at block number start, in order. A
// backend that also implements BlockReader lets a persistent ledger keep
// only a bounded tail of the chain in memory and page older blocks back
// in on demand (historical Deliver seeks, FetchBlocks back-fill).
type BlockReader interface {
	ReadBlocks(channel string, start uint64, max int) ([]*Block, error)
}

// BlockRebaser is implemented by backends that support retention: Rebase
// jumps a channel's durable chain forward over a pruned gap (the blocks
// in between are unobtainable cluster-wide), and future appends resume
// at the new floor, anchored by the given previous-hash.
type BlockRebaser interface {
	RebaseBlocks(channel string, floor uint64, anchor cryptoutil.Digest) error
}

// DefaultLedgerRetain is how many recent blocks a persistent ledger with a
// read-capable backend keeps in memory; older blocks are served from the
// backend.
const DefaultLedgerRetain = 1024

// Ledger is one channel's append-only blockchain, as maintained by a
// committing peer or an ordering node. Append verifies the hash chain, so
// a tampered or out-of-order block is rejected rather than stored. With a
// backend attached, every accepted block is persisted through it (Append
// waits for the record to be durable); when the backend can also read
// blocks back, the ledger retains only the newest blocks in memory and
// serves older ones from storage. Safe for concurrent use.
type Ledger struct {
	mu      sync.RWMutex
	channel string
	backend BlockBackend
	reader  BlockReader
	retain  int // in-memory window when reader != nil (0 = unlimited)

	blocks   []*Block // in-memory tail, blocks[i].Number == base+i
	base     uint64   // number of blocks[0]
	height   uint64   // next block number to append
	lastHash cryptoutil.Digest
	envCount int

	// floor is the first retained block number (0 without retention);
	// reads below it answer ErrPruned. anchor is the PrevHash of block
	// floor (zero when floor is 0): the linkage the first retained block
	// must carry, standing in for the pruned prefix.
	floor  uint64
	anchor cryptoutil.Digest
}

// NewLedger creates an empty in-memory ledger.
func NewLedger() *Ledger {
	return &Ledger{}
}

// NewPersistentLedger creates an empty ledger whose appended blocks are
// written through to backend under the given channel name. If the backend
// also implements BlockReader, the ledger keeps only DefaultLedgerRetain
// blocks in memory and pages older ones from the backend.
func NewPersistentLedger(channel string, backend BlockBackend) *Ledger {
	l := &Ledger{channel: channel, backend: backend}
	if r, ok := backend.(BlockReader); ok {
		l.reader = r
		l.retain = DefaultLedgerRetain
	}
	return l
}

// ChainState positions a restored ledger: the retention floor and its
// anchor, plus the chain frontier (height and the newest header's hash).
type ChainState struct {
	Floor    uint64
	Anchor   cryptoutil.Digest
	Height   uint64
	LastHash cryptoutil.Digest
}

// RestoreLedger rebuilds a persistent ledger from a recovered chain
// frontier without loading any blocks into memory: the backend already
// holds blocks [st.Floor, st.Height), appends continue at st.Height, and
// reads page from the backend on demand. This is what makes recovery
// O(manifest) instead of O(chain).
func RestoreLedger(channel string, backend BlockBackend, st ChainState) *Ledger {
	l := NewPersistentLedger(channel, backend)
	l.floor = st.Floor
	l.anchor = st.Anchor
	l.base = st.Height
	l.height = st.Height
	l.lastHash = st.LastHash
	return l
}

// Height returns the number of blocks appended so far.
func (l *Ledger) Height() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.height
}

// Floor returns the first retained block number (0 without retention).
func (l *Ledger) Floor() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.floor
}

// Append verifies and appends a block: its number must be the current
// height, its previous hash must match the last header, and its data hash
// must match its envelopes. With a backend attached it returns once the
// block's record is durable. A failed wait means the backend's log is
// permanently failed; the block stays visible in memory.
func (l *Ledger) Append(b *Block) error {
	if err := b.CheckIntegrity(); err != nil {
		return err
	}
	tok, err := l.AppendSealedAsync(b)
	if err != nil {
		return err
	}
	if err := tok.Wait(); err != nil {
		return fmt.Errorf("ledger: persisting block %d: %w", b.Header.Number, err)
	}
	return nil
}

// AppendSealedAsync appends a block whose data hash the caller vouches
// for — it just sealed the block itself (fabric.NewBlock computes DataHash
// from the envelopes, so re-hashing them is pure waste on the hot path) or
// already ran CheckIntegrity — checking only the chain linkage. The
// block's record is enqueued on the backend and the returned token
// completes when it is on disk (at once for a backend-less ledger); the
// block is visible in memory right away. Puts commit in append order, so
// persisting a contiguous run costs one fsync wave — wait on the run's
// last token.
func (l *Ledger) AppendSealedAsync(b *Block) (DurableToken, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkLinkLocked(b); err != nil {
		return nil, err
	}
	var tok DurableToken = durableNow{}
	if l.backend != nil {
		var err error
		if tok, err = l.backend.PutBlockAsync(l.channel, b); err != nil {
			return nil, fmt.Errorf("ledger: persisting block %d: %w", b.Header.Number, err)
		}
	}
	l.commitLocked(b)
	return tok, nil
}

// checkLinkLocked verifies a block extends the chain: the next number,
// linked by previous hash (or anchored at the retention floor).
func (l *Ledger) checkLinkLocked(b *Block) error {
	if b.Header.Number != l.height {
		return fmt.Errorf("%w: got %d, want %d", ErrBlockNumber, b.Header.Number, l.height)
	}
	switch {
	case l.height > l.floor:
		if b.Header.PrevHash != l.lastHash {
			return fmt.Errorf("%w at block %d", ErrBrokenChain, b.Header.Number)
		}
	case l.floor == 0:
		if !b.Header.PrevHash.IsZero() {
			return fmt.Errorf("%w: genesis must have zero previous hash", ErrBrokenChain)
		}
	default:
		// First block above a retention floor: it must link into the
		// anchor the pruned prefix left behind.
		if b.Header.PrevHash != l.anchor {
			return fmt.Errorf("%w: block %d does not link into the retention anchor",
				ErrBrokenChain, b.Header.Number)
		}
	}
	return nil
}

// commitLocked makes an accepted block visible in memory.
func (l *Ledger) commitLocked(b *Block) {
	l.blocks = append(l.blocks, b)
	l.height++
	l.lastHash = b.Header.Hash()
	l.envCount += len(b.Envelopes)
	// Trim with slack so the O(retain) copy amortizes to O(1) per append
	// instead of recurring on every block at steady state.
	if l.reader != nil && l.retain > 0 && len(l.blocks) > l.retain+l.retain/4 {
		drop := len(l.blocks) - l.retain
		l.blocks = append(l.blocks[:0:0], l.blocks[drop:]...)
		l.base += uint64(drop)
	}
}

// Block returns the block at the given number, reading it back from the
// backend if it fell out of the in-memory window. Numbers below the
// retention floor answer ErrPruned.
func (l *Ledger) Block(number uint64) (*Block, error) {
	l.mu.RLock()
	if number < l.floor {
		pe := &PrunedError{Channel: l.channel, Floor: l.floor}
		l.mu.RUnlock()
		return nil, pe
	}
	if number >= l.height {
		height := l.height
		l.mu.RUnlock()
		return nil, fmt.Errorf("%w: %d (height %d)", ErrBlockNotFound, number, height)
	}
	if number >= l.base {
		b := l.blocks[number-l.base]
		l.mu.RUnlock()
		return b, nil
	}
	reader, channel := l.reader, l.channel
	l.mu.RUnlock()
	blocks, err := reader.ReadBlocks(channel, number, 1)
	if err != nil {
		return nil, fmt.Errorf("ledger: reading block %d: %w", number, err)
	}
	if len(blocks) == 0 || blocks[0].Header.Number != number {
		return nil, fmt.Errorf("%w: %d (backend miss)", ErrBlockNotFound, number)
	}
	return blocks[0], nil
}

// Range returns blocks [start, end) in order, combining the backend (for
// blocks below the in-memory window) with the in-memory tail. end is
// clamped to the current height. A start below the retention floor
// answers ErrPruned.
func (l *Ledger) Range(start, end uint64) ([]*Block, error) {
	l.mu.RLock()
	if start < l.floor {
		pe := &PrunedError{Channel: l.channel, Floor: l.floor}
		l.mu.RUnlock()
		return nil, pe
	}
	if end > l.height {
		end = l.height
	}
	if start >= end {
		l.mu.RUnlock()
		return nil, nil
	}
	base := l.base
	var tail []*Block
	if end > base {
		from := base
		if start > base {
			from = start
		}
		tail = append(tail, l.blocks[from-base:end-base]...)
	}
	reader, channel := l.reader, l.channel
	l.mu.RUnlock()

	if start >= base {
		return tail, nil
	}
	if reader == nil {
		return nil, fmt.Errorf("%w: blocks %d..%d not retained", ErrBlockNotFound, start, base-1)
	}
	out := make([]*Block, 0, end-start)
	for next := start; next < base && next < end; {
		want := int(base - next)
		if stop := end - next; stop < uint64(want) {
			want = int(stop)
		}
		blocks, err := reader.ReadBlocks(channel, next, want)
		if err != nil {
			return nil, fmt.Errorf("ledger: reading blocks from %d: %w", next, err)
		}
		if len(blocks) == 0 {
			return nil, fmt.Errorf("%w: %d (backend miss)", ErrBlockNotFound, next)
		}
		for _, b := range blocks {
			if b.Header.Number != next {
				return nil, fmt.Errorf("ledger: backend returned block %d, want %d", b.Header.Number, next)
			}
			out = append(out, b)
			next++
		}
	}
	return append(out, tail...), nil
}

// Blocks returns the chain from start (inclusive) onward. Blocks that are
// no longer retained in memory and cannot be read back — or fell below
// the retention floor — are omitted from the front.
func (l *Ledger) Blocks(start uint64) []*Block {
	l.mu.RLock()
	height := l.height
	if start < l.floor {
		start = l.floor
	}
	l.mu.RUnlock()
	out, err := l.Range(start, height)
	if err != nil {
		// Serve what memory still holds rather than failing a legacy read.
		l.mu.RLock()
		defer l.mu.RUnlock()
		if start < l.base {
			start = l.base
		}
		if start >= l.height {
			return nil
		}
		return append([]*Block(nil), l.blocks[start-l.base:]...)
	}
	return out
}

// LastHash returns the header hash of the newest block (zero digest for an
// empty ledger).
func (l *Ledger) LastHash() cryptoutil.Digest {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.lastHash
}

// AdvanceFloor raises the retention floor after the backend compacted:
// reads below the new floor answer ErrPruned and the in-memory tail
// drops anything beneath it. The anchor is taken from the block at the
// new floor (which the backend still retains). A floor at or below the
// current one, or at or above the height, is a no-op.
func (l *Ledger) AdvanceFloor(floor uint64) error {
	l.mu.RLock()
	current, height := l.floor, l.height
	l.mu.RUnlock()
	if floor <= current || floor >= height {
		return nil
	}
	b, err := l.Block(floor)
	if err != nil {
		return fmt.Errorf("ledger: advancing floor to %d: %w", floor, err)
	}
	anchor := b.Header.PrevHash
	l.mu.Lock()
	defer l.mu.Unlock()
	if floor <= l.floor || floor >= l.height {
		return nil // raced with another advance or a rebase
	}
	l.floor = floor
	l.anchor = anchor
	if l.base < floor {
		drop := floor - l.base
		if drop >= uint64(len(l.blocks)) {
			l.blocks = nil
			l.base = l.height
		} else {
			l.blocks = append(l.blocks[:0:0], l.blocks[drop:]...)
			l.base = floor
		}
	}
	return nil
}

// Rebase jumps the chain forward over a gap that can no longer be
// filled: every peer pruned the blocks between the current height and
// floor, so the node adopts floor as its new retention floor and resumes
// appending there, anchored by the given previous-hash (verified by the
// caller against a trusted chain suffix). The backend, when it supports
// rebasing, is moved first so the durable record never trails the
// in-memory state.
func (l *Ledger) Rebase(floor uint64, anchor cryptoutil.Digest) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if floor < l.height {
		return fmt.Errorf("ledger: rebase to %d behind height %d", floor, l.height)
	}
	if rb, ok := l.backend.(BlockRebaser); ok {
		if err := rb.RebaseBlocks(l.channel, floor, anchor); err != nil {
			return fmt.Errorf("ledger: rebasing backend: %w", err)
		}
	}
	l.blocks = nil
	l.base = floor
	l.height = floor
	l.floor = floor
	l.anchor = anchor
	l.lastHash = cryptoutil.Digest{}
	return nil
}

// VerifyChain re-validates the retained chain (integrity + linkage from
// the retention floor, whose first block must link into the anchor),
// streaming paged-out blocks back from the backend in bounded windows.
// Retention may compact while it reads: a read that finds its blocks
// pruned, below the ledger's floor or first below the backend's, raises
// the ledger's floor to the pruned one (as AdvanceFloor does once the
// compaction reports) and starts over from the new floor and anchor.
func (l *Ledger) VerifyChain() error {
	const window = 256
walk:
	for {
		l.mu.RLock()
		height, floor, anchor := l.height, l.floor, l.anchor
		l.mu.RUnlock()
		var prev *Block
		for start := floor; start < height; start += window {
			end := min(start+window, height)
			blocks, err := l.Range(start, end)
			var pruned *PrunedError
			if errors.As(err, &pruned) && l.AdvanceFloor(pruned.Floor) == nil && l.Floor() > floor {
				continue walk
			}
			if err != nil {
				return err
			}
			if uint64(len(blocks)) != end-start {
				return fmt.Errorf("%w: range %d..%d returned %d blocks",
					ErrBlockNotFound, start, end-1, len(blocks))
			}
			if prev != nil {
				if blocks[0].Header.PrevHash != prev.Header.Hash() {
					return fmt.Errorf("%w at block %d", ErrBrokenChain, blocks[0].Header.Number)
				}
			} else if floor > 0 && blocks[0].Header.PrevHash != anchor {
				return fmt.Errorf("%w: block %d does not link into the retention anchor",
					ErrBrokenChain, blocks[0].Header.Number)
			}
			if err := VerifyChain(blocks); err != nil {
				return err
			}
			prev = blocks[len(blocks)-1]
		}
		return nil
	}
}

// EnvelopeCount returns the total number of envelopes across all blocks.
func (l *Ledger) EnvelopeCount() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.envCount
}
