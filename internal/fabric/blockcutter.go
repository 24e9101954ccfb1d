package fabric

import (
	"time"
)

// CutterConfig bounds when a block is cut. Zero values disable a bound,
// except MaxEnvelopes which defaults to 10 (the paper's small block size).
type CutterConfig struct {
	// MaxEnvelopes cuts a block after this many envelopes (the paper
	// evaluates 10 and 100).
	MaxEnvelopes int
	// MaxBytes cuts a block when the pending envelope bytes reach this
	// limit, so a few huge envelopes cannot produce an unbounded block.
	MaxBytes int
	// Timeout cuts a partial block after the oldest pending envelope has
	// waited this long; zero disables timer-based cutting.
	Timeout time.Duration
}

func (c CutterConfig) withDefaults() CutterConfig {
	if c.MaxEnvelopes <= 0 {
		c.MaxEnvelopes = 10
	}
	return c
}

// BlockCutter accumulates ordered envelopes and releases them in block-sized
// batches. It is the per-channel "blockcutter" object of the ordering node
// (Section 5.1): the node thread drains it whenever it reports a cut.
//
// BlockCutter is not safe for concurrent use; the ordering node confines it
// to the node thread, which is what keeps block formation deterministic
// across nodes.
type BlockCutter struct {
	cfg     CutterConfig
	pending [][]byte
	bytes   int
	oldest  time.Time
	// last is the length of the previous batch: the next batch starts with
	// that capacity, so a steady block size costs one allocation per block
	// instead of a doubling series from nil.
	last int
}

// NewBlockCutter creates a cutter with the given bounds.
func NewBlockCutter(cfg CutterConfig) *BlockCutter {
	return &BlockCutter{cfg: cfg.withDefaults()}
}

// Append adds one envelope and returns a full batch when a size bound is
// reached, or nil. The returned slice is owned by the caller.
func (c *BlockCutter) Append(envelope []byte) [][]byte {
	if len(c.pending) == 0 {
		c.oldest = time.Now()
		if c.pending == nil && c.last > 0 {
			c.pending = make([][]byte, 0, c.last)
		}
	}
	c.pending = append(c.pending, envelope)
	c.bytes += len(envelope)
	if len(c.pending) >= c.cfg.MaxEnvelopes {
		return c.Cut()
	}
	if c.cfg.MaxBytes > 0 && c.bytes >= c.cfg.MaxBytes {
		return c.Cut()
	}
	return nil
}

// Cut drains all pending envelopes as one batch (nil when empty).
func (c *BlockCutter) Cut() [][]byte {
	if len(c.pending) == 0 {
		return nil
	}
	batch := c.pending
	c.pending = nil
	c.bytes = 0
	c.last = len(batch)
	return batch
}

// CutIfExpired cuts a partial batch when the timeout elapsed since the
// oldest pending envelope arrived. Returns nil when no timeout is
// configured, nothing is pending, or the timer has not expired.
func (c *BlockCutter) CutIfExpired(now time.Time) [][]byte {
	if c.cfg.Timeout <= 0 || len(c.pending) == 0 {
		return nil
	}
	if now.Sub(c.oldest) < c.cfg.Timeout {
		return nil
	}
	return c.Cut()
}

// Pending returns the number of buffered envelopes.
func (c *BlockCutter) Pending() int { return len(c.pending) }

// PendingBytes returns the buffered envelope bytes.
func (c *BlockCutter) PendingBytes() int { return c.bytes }

// PendingSnapshot returns a copy of the buffered envelopes without
// draining them.
func (c *BlockCutter) PendingSnapshot() [][]byte {
	if len(c.pending) == 0 {
		return nil
	}
	out := make([][]byte, len(c.pending))
	copy(out, c.pending)
	return out
}

// OldestPending returns the arrival time of the oldest buffered envelope.
func (c *BlockCutter) OldestPending() (time.Time, bool) {
	if len(c.pending) == 0 {
		return time.Time{}, false
	}
	return c.oldest, true
}
