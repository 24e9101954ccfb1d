package consensus

import "time"

// This file holds what a replica keeps per client: one record with the
// client's dedup state and the requests it has pooled. A pooled request is
// found by indexing its client's window with its sequence number, not by
// hashing (client, seq): clients send every request to every replica, so at
// saturation each replica pools, proposes or resolves, and executes every
// request, and a map operation at each of those steps was most of what a
// request cost a replica loop.

// windowFloor is the size a client's window starts at and the largest one
// it keeps past a checkpoint interval in which it pooled nothing: a client
// with a few requests outstanding (a lone Invoke, a short Client queue)
// never grows it, and one that pools a single request costs eight slots,
// under 1 kB.
const windowFloor = 8

// windowCap is the largest a window grows: the smallest power of two that
// holds maxPendingRequests, since no client can pool more than that.
const windowCap = 1 << 17

const _ = uint(windowCap - maxPendingRequests) // windowCap >= maxPendingRequests

// pendingReq is a client request waiting to be ordered, held by value in a
// slot of its client's window (or, rarely, in the client's spill map).
type pendingReq struct {
	req      request // Op is a view of the frame the request arrived in
	arrived  time.Time
	inFlight bool // included in an open proposal
	live     bool // the slot holds a request
}

// clientRecord is a replica's record of one client.
type clientRecord struct {
	clientDedup
	// replicated is set once the client's dedup state is part of the
	// replicated state: a request of the client was in an executed batch, or
	// an installed checkpoint lists the client. Only these records go into a
	// checkpoint (wrapSnapshot).
	replicated bool
	// window holds the pooled requests, the one of seq in slot seq mod
	// len(window) (a power of two, or 0 before the first). A request whose
	// slot another request holds waits in spill instead.
	window []pendingReq
	live   int // the live slots of window
	spill  map[uint64]*pendingReq
	// pooledSince is set when the client pools a request and cleared at
	// each checkpoint: a window is released only after a whole checkpoint
	// interval in which its client pooled nothing.
	pooledSince bool
}

// pending is how many requests of the client are pooled, in flight or not.
func (c *clientRecord) pending() int { return c.live + len(c.spill) }

// find returns the pooled request seq, or nil.
func (c *clientRecord) find(seq uint64) *pendingReq {
	if len(c.window) > 0 {
		if p := &c.window[seq&uint64(len(c.window)-1)]; p.live && p.req.Seq == seq {
			return p
		}
	}
	if len(c.spill) > 0 {
		return c.spill[seq]
	}
	return nil
}

// add pools p, which the client has not pooled, and reports whether it
// spilled. A window doubles only while a collision finds it at least half
// full: a client whose outstanding sequences are contiguous never spills,
// and one that sends two sequences far apart spills the second instead of
// growing its window to reach it.
func (c *clientRecord) add(p pendingReq) bool {
	if c.window == nil {
		c.window = make([]pendingReq, windowFloor)
	}
	c.pooledSince = true
	p.live = true
	i := p.req.Seq & uint64(len(c.window)-1)
	for c.window[i].live && 2*c.live >= len(c.window) && len(c.window) < windowCap {
		c.grow()
		i = p.req.Seq & uint64(len(c.window)-1)
	}
	if !c.window[i].live {
		c.window[i] = p
		c.live++
		return false
	}
	if c.spill == nil {
		c.spill = make(map[uint64]*pendingReq)
	}
	spilled := p // on the heap only here: p itself stays on the stack
	c.spill[p.req.Seq] = &spilled
	return true
}

// grow doubles the window. Its requests cannot collide in the new one (slot
// i moves to i or i+len); a spilled request moves in if its slot is free.
func (c *clientRecord) grow() {
	old := c.window
	c.window = make([]pendingReq, 2*len(old))
	mask := uint64(len(c.window) - 1)
	for i := range old {
		if old[i].live {
			c.window[old[i].req.Seq&mask] = old[i]
		}
	}
	for seq, p := range c.spill {
		if slot := &c.window[seq&mask]; !slot.live {
			*slot = *p
			c.live++
			delete(c.spill, seq)
		}
	}
	if len(c.spill) == 0 {
		c.spill = nil // a map never shrinks
	}
}

// remove takes seq out of the pool and reports whether it was pooled and
// whether it was in flight. The slot is zeroed: it held a view of its
// request frame. A grown window stays when the pool empties (see
// releaseIdleWindows).
func (c *clientRecord) remove(seq uint64) (ok, inFlight bool) {
	p := c.find(seq)
	if p == nil {
		return false, false
	}
	inFlight = p.inFlight
	if i := seq & uint64(len(c.window)-1); len(c.window) > 0 && p == &c.window[i] {
		*p = pendingReq{}
		c.live--
	} else if delete(c.spill, seq); len(c.spill) == 0 {
		c.spill = nil
	}
	return true, inFlight
}

// each calls f on every pooled request of the client. f must not add or
// remove requests.
func (c *clientRecord) each(f func(*pendingReq)) {
	if c.pending() == 0 {
		return
	}
	for i := range c.window {
		if c.window[i].live {
			f(&c.window[i])
		}
	}
	for _, p := range c.spill {
		f(p)
	}
}

// queued is an entry of the arrival queue: a request of rec, which find no
// longer returns once it is executed or dropped.
type queued struct {
	rec *clientRecord
	seq uint64
}

func (q queued) find() *pendingReq { return q.rec.find(q.seq) }

// record returns the record of client id, creating it.
func (r *Replica) record(id string) *clientRecord {
	c, ok := r.clients[id]
	if !ok {
		c = &clientRecord{}
		c.client = id
		r.clients[id] = c
	}
	return c
}

// pool adds a request its client has not pooled.
func (r *Replica) pool(rec *clientRecord, p pendingReq) {
	if rec.add(p) {
		r.spilled++
	}
	r.queue = append(r.queue, queued{rec: rec, seq: p.req.Seq})
	r.pending++
	r.pooled++
}

// unpool removes a request from the pool, if it is there.
func (r *Replica) unpool(rec *clientRecord, seq uint64) {
	ok, inFlight := rec.remove(seq)
	if !ok {
		return
	}
	r.pending--
	if !inFlight {
		r.pooled--
	}
}

// releaseIdleWindows releases the grown window of every client whose pool
// is empty and that pooled nothing since the last checkpoint. It runs at
// each checkpoint, not when a pool empties: at saturation a client's pool
// empties between batches, and may be empty at the instant of a checkpoint
// too, and each replica would grow the window again from windowFloor slots
// for the next batch.
func (r *Replica) releaseIdleWindows() {
	for _, c := range r.clients {
		if !c.pooledSince && c.pending() == 0 && len(c.window) > windowFloor {
			c.window = nil
		}
		c.pooledSince = false
	}
}

// eachPooled calls f on every pooled request. f must not add or remove
// requests.
func (r *Replica) eachPooled(f func(*pendingReq)) {
	for _, c := range r.clients {
		c.each(f)
	}
}

// dropExecuted unpools every request the dedup state marks executed, after
// a checkpoint installed that state: execute would skip such a request, so
// it would otherwise stay pooled, indict an honest leader when it timed out,
// and ride in a leader's proposals for good. A record left with neither a
// pool nor replicated state goes.
func (r *Replica) dropExecuted() {
	var seqs []uint64
	for id, c := range r.clients {
		seqs = seqs[:0]
		c.each(func(p *pendingReq) {
			if c.contains(p.req.Seq) {
				seqs = append(seqs, p.req.Seq)
			}
		})
		for _, seq := range seqs {
			r.unpool(c, seq)
		}
		if !c.replicated && c.pending() == 0 {
			delete(r.clients, id)
		}
	}
}
