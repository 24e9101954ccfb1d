package core

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/fabric"
	"repro/internal/transport"
	"repro/internal/wire"
)

// This file is everything a node or a frontend does with other nodes'
// blocks: the FetchBlocks wire messages, the server that answers them (and
// replays) from the durable ledger, the client that asks, the two proofs a
// fetched range may be believed on (linked, proven) and the agreement that
// gives an anchorless reader its anchor (agreed), and the two node-side
// users of the proven read — the back-fill that closes the gap a
// state-transfer jump left in the durable chain, and the scrubber's repair
// callback.
//
// A single peer is never trusted. A Byzantine server can stall a fetch but
// never feed a forged history: every range handed to a caller passed one
// of two proofs, each of which ties it to at least one correct node.
//
//   - link: the top of the range hashes to an anchor the caller already
//     trusts (a quorum-released block for frontends, the post-jump chain
//     state or an intact successor record for nodes). Every header embeds
//     its predecessor's hash and its envelopes' hash, so the link
//     authenticates the whole range.
//   - signatures: every block carries f+1 valid signatures of distinct
//     ordering nodes, so the range proves itself with no prior chain state
//     and keeps proving itself wherever it is stored. Nodes persist (at
//     least) their own signature with every block they seal, so one peer's
//     copy rarely carries f+1: the signature sets of identical blocks
//     served by further peers are merged until it does.
//
// A reader with no anchor that keeps no proof (a Deliver replay below a
// frontend's window) first agrees on one block: the header of its stop
// block, or of the chain's head, that f+1 distinct nodes vouch for —
// through signatures that verify on it where the nodes' keys are
// distributed, by serving it where they are not (cmd/ordernode) or where
// the blocks carry no signatures (sealed with DisableSigning, or re-sealed
// from the decision log by a crash recovery). One of the f+1 is correct,
// and a correct node signs or serves only a header on the decided chain.
// That header is then the anchor a linked read proves the range from.

// maxFetchBlocks caps the blocks served per response; requesters ask for
// the next window until the range is covered.
const maxFetchBlocks = 128

// Fetch tuning.
const (
	// fetchWindowTimeout bounds one request/response round trip.
	fetchWindowTimeout = 2 * time.Second
	// fetchRounds is how many passes over the peer set a fetch makes before
	// giving up, so one pass of transient loss does not strand a joining
	// node; the pauses between passes follow fetchRetryPolicy.
	fetchRounds = 3
)

// fetchRetryPolicy spaces consecutive passes over the peer set: jittered
// exponential backoff (shared transport.RetryPolicy semantics), so a
// cluster of recovering nodes does not hammer the same peers in lockstep.
var fetchRetryPolicy = transport.RetryPolicy{
	Initial: 250 * time.Millisecond,
	Max:     2 * time.Second,
}

var (
	// ErrFetchFailed reports that no peer could serve a verifiable block
	// range.
	ErrFetchFailed = errors.New("core: block fetch failed")
	// ErrUnverifiedRange reports a fetched range that could not accumulate
	// f+1 valid signatures on every block that needed them (typically
	// unsigned blocks).
	ErrUnverifiedRange = errors.New("core: fetched range lacks f+1 signatures")
)

// ---- wire messages -------------------------------------------------------

// fetchFlagSigsOnly asks the server to strip envelopes from each served
// block, leaving header + signatures. Used once a full copy of a range is
// already in hand: further peers only vouch for it, so re-downloading every
// payload wastes the bandwidth the f+1 threshold was meant to amortize.
const fetchFlagSigsOnly = 1 << 0

// fetchHeadProbe is the sentinel From/To of a head probe: the server
// answers with its single newest block (From set to that block's number).
const fetchHeadProbe = ^uint64(0)

// fetchRequest asks for blocks [From, To) of Channel.
type fetchRequest struct {
	ReqID    uint64
	Channel  string
	From     uint64
	To       uint64
	SigsOnly bool
}

func (q fetchRequest) marshal() []byte {
	w := wire.NewWriter(33 + len(q.Channel))
	w.PutUint64(q.ReqID)
	w.PutString(q.Channel)
	w.PutUint64(q.From)
	w.PutUint64(q.To)
	var flags uint64
	if q.SigsOnly {
		flags |= fetchFlagSigsOnly
	}
	w.PutUvarint(flags)
	return w.Bytes()
}

func unmarshalFetchRequest(payload []byte) (fetchRequest, error) {
	r := wire.NewReader(payload)
	q := fetchRequest{
		ReqID:   r.Uint64(),
		Channel: r.String(),
		From:    r.Uint64(),
		To:      r.Uint64(),
	}
	flags := r.Uvarint()
	if err := r.Finish(); err != nil {
		return fetchRequest{}, fmt.Errorf("fetch request: %w", err)
	}
	q.SigsOnly = flags&fetchFlagSigsOnly != 0
	return q, nil
}

// fetchResponse carries a contiguous run of marshalled blocks starting at
// From (empty when the server cannot serve the range). Floor, when
// non-zero, is the server's retention floor: the requested range starts
// below it and was compacted away. A server encodes one with
// marshalFetchResponse.
type fetchResponse struct {
	ReqID  uint64
	From   uint64
	Floor  uint64
	Blocks [][]byte
}

func unmarshalFetchResponse(payload []byte) (fetchResponse, error) {
	r := wire.NewReader(payload)
	p := fetchResponse{
		ReqID:  r.Uint64(),
		From:   r.Uint64(),
		Floor:  r.Uint64(),
		Blocks: r.BytesSlice(),
	}
	if err := r.Finish(); err != nil {
		return fetchResponse{}, fmt.Errorf("fetch response: %w", err)
	}
	return p, nil
}

// ---- blockSync -----------------------------------------------------------

// blockSync is one endpoint's block exchange with the ordering nodes. A
// frontend uses only the client half (agreed, linked, proven); an ordering
// node also serves requests, back-fills its durable chain and repairs
// scrubbed records. handleResponse must be wired into the owner's receive
// path.
type blockSync struct {
	conn transport.Conn
	// registry resolves the nodes' verification keys; nil in deployments
	// that distribute none, where the signature proof cannot apply.
	registry *cryptoutil.Registry
	// group returns the peers worth asking and the fault threshold f; a
	// node's tracks its live membership across reconfigurations.
	group func() (peers []transport.Addr, f int)

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]*pendingFetch

	// Node half; node is nil on a frontend. parked holds blocks sealed
	// above the local ledger height after a state-transfer jump, awaiting
	// the back-fill that closes the gap beneath them (guarded by the node's
	// ledgerMu, which pipeline.persist shares). filling guards one
	// back-fill task per channel and replaying one replay per (frontend,
	// channel); forged caches the chains a ForgeHistory node serves, grown
	// lazily per channel.
	node   *OrderingNode
	log    *slog.Logger
	parked map[string]map[uint64]*fabric.Block

	taskMu    sync.Mutex
	filling   map[string]bool
	replaying map[replayKey]bool
	stopped   bool
	tasks     sync.WaitGroup

	forgedMu sync.Mutex
	forged   map[string]forgedChain
}

func newBlockSync(conn transport.Conn, registry *cryptoutil.Registry, group func() ([]transport.Addr, int)) *blockSync {
	return &blockSync{
		conn:     conn,
		registry: registry,
		group:    group,
		pending:  make(map[uint64]*pendingFetch),
	}
}

// newNodeBlockSync adds the node half: serving, back-fill and repair over
// the node's durable ledgers.
func newNodeBlockSync(n *OrderingNode) *blockSync {
	s := newBlockSync(n.conn, n.cfg.Consensus.Registry, func() ([]transport.Addr, int) {
		return n.peerAddrs(), n.faults()
	})
	s.node = n
	s.log = slog.With("node", int(n.ID()))
	s.parked = make(map[string]map[uint64]*fabric.Block)
	s.filling = make(map[string]bool)
	s.replaying = make(map[replayKey]bool)
	s.forged = make(map[string]forgedChain)
	return s
}

// ---- client: one request, one peer ----------------------------------------

// pendingFetch is one in-flight request: only a response from the peer it
// was sent to may answer it. Without the sender check, any single
// Byzantine replica could spray responses at guessed sequential request
// ids, occupy the reply slot before the honest peer answers, and thereby
// cast the "vote" of every peer a fetch queries.
type pendingFetch struct {
	peer transport.Addr
	req  fetchRequest
	ch   chan fetchResponse
}

// handleResponse routes one MsgFetchResponse payload to its waiting call.
// Responses from the wrong sender, and unknown or late responses, are
// dropped.
func (s *blockSync) handleResponse(from transport.Addr, payload []byte) {
	resp, err := unmarshalFetchResponse(payload)
	if err != nil {
		return
	}
	s.mu.Lock()
	p := s.pending[resp.ReqID]
	s.mu.Unlock()
	if p == nil || p.peer != from {
		return
	}
	select {
	case p.ch <- resp:
	default: // already answered
	}
}

// errPeerPruned reports one peer answering that the requested range fell
// below its retention floor.
type errPeerPruned struct {
	peer  transport.Addr
	floor uint64
}

func (e *errPeerPruned) Error() string {
	return fmt.Sprintf("fetch: peer %s pruned the range (floor %d)", e.peer, e.floor)
}

// send puts one request for blocks [from, to) — or, with from ==
// fetchHeadProbe, for the peer's newest block — on the wire; await then
// waits for its answer.
func (s *blockSync) send(peer transport.Addr, channel string, from, to uint64, sigsOnly bool) *pendingFetch {
	s.mu.Lock()
	s.nextID++
	p := &pendingFetch{
		peer: peer,
		req:  fetchRequest{ReqID: s.nextID, Channel: channel, From: from, To: to, SigsOnly: sigsOnly},
		ch:   make(chan fetchResponse, 1),
	}
	s.pending[p.req.ReqID] = p
	s.mu.Unlock()
	s.conn.Send(peer, MsgFetchRequest, p.req.marshal())
	return p
}

// await returns the decoded run the peer served for p (possibly shorter
// than asked, never longer), and unregisters p. A peer that compacted the
// range away answers with its floor, surfaced as *errPeerPruned. stop
// abandons the wait.
func (s *blockSync) await(p *pendingFetch, stop <-chan struct{}) ([]*fabric.Block, error) {
	defer func() {
		s.mu.Lock()
		delete(s.pending, p.req.ReqID)
		s.mu.Unlock()
	}()
	peer, from := p.peer, p.req.From
	timer := time.NewTimer(fetchWindowTimeout)
	defer timer.Stop()
	var resp fetchResponse
	select {
	case resp = <-p.ch:
	case <-timer.C:
		return nil, fmt.Errorf("fetch: peer %s timed out", peer)
	case <-stop:
		return nil, ErrFetchFailed
	}
	if len(resp.Blocks) == 0 && resp.Floor > from {
		return nil, &errPeerPruned{peer: peer, floor: resp.Floor}
	}
	if from != fetchHeadProbe {
		if resp.From != from {
			return nil, fmt.Errorf("fetch: peer %s answered from block %d, want %d", peer, resp.From, from)
		}
		if uint64(len(resp.Blocks)) > p.req.To-from {
			return nil, fmt.Errorf("fetch: peer %s served %d blocks for %d..%d", peer, len(resp.Blocks), from, p.req.To-1)
		}
	}
	// Sized by what the peer sent, never by the range that was asked for.
	blocks := make([]*fabric.Block, 0, len(resp.Blocks))
	for i, raw := range resp.Blocks {
		b, err := fabric.UnmarshalBlock(raw)
		if err != nil {
			return nil, fmt.Errorf("fetch: peer %s block %d: %w", peer, resp.From+uint64(i), err)
		}
		if b.Header.Number != resp.From+uint64(i) {
			return nil, fmt.Errorf("fetch: peer %s served blocks out of order", peer)
		}
		blocks = append(blocks, b)
	}
	return blocks, nil
}

// answer is one request's outcome, handed over by the goroutine that
// waited for it.
type answer struct {
	blocks []*fabric.Block
	err    error
}

// A peer's copy of a range travels in windows of windowBlocks blocks,
// windowsInFlight of them on the wire at once: maxFetchBlocks blocks keep
// the serving link busy while the windows before them are checked, and the
// first window lands after a quarter of a whole response's transfer time.
const (
	windowBlocks    = maxFetchBlocks / 4
	windowsInFlight = maxFetchBlocks / windowBlocks
)

// fromPeer accumulates one peer's copy of [from, to), envelope-stripped
// with sigsOnly. The range is asked for top-down, one window after
// another, so the top window is asked for first: a peer that does not
// hold block to-1 — a stop position beyond the chain, however far — fails
// the copy having been sent at most windowsInFlight requests. A window is
// made only when one lands, so a range costs nothing by its length until
// its blocks arrive. Each window lands on a goroutine of its own (see
// land), which the call outlives none of.
func (s *blockSync) fromPeer(peer transport.Addr, channel string, from, to uint64, sigsOnly bool, done <-chan struct{}) ([]*fabric.Block, error) {
	if to-from <= windowBlocks {
		return s.land(s.send(peer, channel, from, to, sigsOnly), done)
	}
	type landed struct {
		k int // the window's place, counted from the top
		answer
	}
	results := make(chan landed, windowsInFlight)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var parts [][]*fabric.Block // window k's blocks, once landed
	next, inFlight := to, 0     // windows are still to be asked for below next
	var err error
	for err == nil && (next > from || inFlight > 0) {
		for ; next > from && inFlight < windowsInFlight; inFlight++ {
			lo := from
			if next-from > windowBlocks {
				lo = next - windowBlocks
			}
			k, p := len(parts), s.send(peer, channel, lo, next, sigsOnly)
			parts, next = append(parts, nil), lo
			wg.Add(1)
			go func() {
				defer wg.Done()
				blocks, err := s.land(p, stop)
				results <- landed{k, answer{blocks, err}}
			}()
		}
		select {
		case w := <-results:
			inFlight--
			parts[w.k], err = w.blocks, w.err
		case <-done:
			err = ErrFetchFailed
		}
	}
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	out := make([]*fabric.Block, 0, to-from) // every block of it has landed
	for k := len(parts) - 1; k >= 0; k-- {
		out = append(out, parts[k]...)
	}
	return out, nil
}

// land waits for one window of a peer's copy, whose first request p is on
// the wire, asking for the rest of the window while the peer serves it in
// shorter runs. A full copy's data hashes are checked here, as each run
// lands and while the windows after it are still on the wire, so the
// caller checks only the links (fabric.VerifyRangeLinks); a stripped copy
// carries no envelopes to check.
func (s *blockSync) land(p *pendingFetch, stop <-chan struct{}) ([]*fabric.Block, error) {
	var out []*fabric.Block
	for {
		blocks, err := s.await(p, stop)
		if err != nil {
			return nil, err
		}
		q := p.req
		if len(blocks) == 0 {
			return nil, fmt.Errorf("fetch: peer %s holds no block %d", p.peer, q.From)
		}
		if !q.SigsOnly {
			for _, b := range blocks {
				if err := b.CheckIntegrity(); err != nil {
					return nil, fmt.Errorf("fetch: peer %s served an unverifiable range: %w", p.peer, err)
				}
			}
		}
		if out == nil {
			out = blocks
		} else {
			out = append(out, blocks...)
		}
		if next := q.From + uint64(len(blocks)); next < q.To {
			p = s.send(p.peer, q.Channel, next, q.To, q.SigsOnly)
			continue
		}
		return out, nil
	}
}

// ---- client: the agreed block and the two proofs --------------------------

// agreed returns the header of block number — or, with fetchHeadProbe, of
// a block at the chain's head — that f+1 distinct nodes vouch for, so that
// at least one correct node does, as an envelope-stripped block carrying
// the signatures gathered for it. With the nodes' verification keys a node
// vouches through a signature that verifies on the header, whichever peer
// served it: the signature sets of the copies that agree are merged.
// Without keys a node vouches by serving the header. With keys and blocks
// that carry no signatures, f+1 peers serving the same header are accepted
// once every peer has answered.
//
// Each peer is asked for the header and signatures of the block alone,
// f+1 peers at once, and one further peer each time an answer fails or
// disagrees, so that no version can reach f+1 vouchers any more from the
// answers still awaited. A head's header may trail the true head — callers
// replay up to it and let the live stream's gap fill cover the rest. When
// f+1 peers answer that the block fell below their retention floor, the
// call fails with a *fabric.PrunedError carrying the smallest floor
// reported; when no version gathers f+1 vouchers, with ErrFetchFailed once
// every peer has answered.
func (s *blockSync) agreed(done <-chan struct{}, channel string, number uint64) (*fabric.Block, error) {
	peers, f := s.group()
	need := f + 1
	type reply struct {
		peer transport.Addr
		answer
	}
	replies := make(chan reply, len(peers))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	// Each version of the block is a one-block candidate: one header and
	// its merged signatures.
	var versions []*rangeCandidate
	servers := make(map[*rangeCandidate]int)
	vouchers := func(v *rangeCandidate) int {
		if s.registry == nil {
			return servers[v]
		}
		return len(v.signers[0])
	}
	to := number + 1
	if number == fetchHeadProbe {
		to = fetchHeadProbe
	}
	refused := newRefusals(f)
	var lastErr error = ErrFetchFailed
	asked, awaited, best := 0, 0, 0
	for {
		for ; awaited+best < need && asked < len(peers); asked++ {
			peer, p := peers[asked], s.send(peers[asked], channel, number, to, true)
			awaited++
			wg.Add(1)
			go func() {
				defer wg.Done()
				blocks, err := s.await(p, stop)
				replies <- reply{peer, answer{blocks, err}}
			}()
		}
		if awaited == 0 {
			break
		}
		var r reply
		select {
		case r = <-replies:
			awaited--
		case <-done:
			return nil, ErrFetchFailed
		}
		if r.err == nil && len(r.blocks) != 1 {
			r.err = fmt.Errorf("fetch: peer %s served %d blocks for block %d", r.peer, len(r.blocks), number)
		}
		if r.err != nil {
			if err := refused.note(r.peer, channel, r.err); err != nil {
				return nil, err
			}
			lastErr = r.err
			continue
		}
		v := vouchAny(versions, r.blocks, s.registry, need)
		if v == nil {
			v = newRangeCandidate(r.blocks, s.registry, need)
			versions = append(versions, v)
		}
		if servers[v]++; vouchers(v) >= need {
			return v.blocks[0], nil
		}
		best = max(best, vouchers(v))
	}
	for _, v := range versions {
		if servers[v] >= need {
			return v.blocks[0], nil
		}
	}
	return nil, fmt.Errorf("%w: no f+1 nodes vouch for %s block %d: %v", ErrFetchFailed, channel, number, lastErr)
}

// refusals tallies the distinct peers that answered that a range fell
// below their retention floor. f+1 of them settle it (one of them is
// honest), and the read ends at once.
type refusals struct {
	f        int
	pruned   map[transport.Addr]bool
	minFloor uint64
}

func newRefusals(f int) *refusals {
	return &refusals{f: f, pruned: make(map[transport.Addr]bool)}
}

// note records peer's answer err if it is a refusal. Once f+1 peers
// refused it returns the typed pruned error with the smallest floor
// reported; until then, nil.
func (t *refusals) note(peer transport.Addr, channel string, err error) error {
	var pp *errPeerPruned
	if !errors.As(err, &pp) {
		return nil
	}
	if !t.pruned[peer] && (len(t.pruned) == 0 || pp.floor < t.minFloor) {
		t.minFloor = pp.floor
	}
	if t.pruned[peer] = true; len(t.pruned) >= t.f+1 {
		return &fabric.PrunedError{Channel: channel, Floor: t.minFloor}
	}
	return nil
}

// rangeCandidate is one well-formed version of a requested range,
// identified by its top header hash (the hash chain makes it cover the
// whole range), accumulating the verified signatures on each of its blocks
// across the peers that serve it.
type rangeCandidate struct {
	blocks  []*fabric.Block
	digests []cryptoutil.Digest // header hash per block
	signers []map[string]bool   // distinct verified signers per block
	short   int                 // blocks still below f+1 signatures
}

// newRangeCandidate makes a candidate of a well-formed copy, counting the
// signatures it carries.
func newRangeCandidate(blocks []*fabric.Block, verify *cryptoutil.Registry, need int) *rangeCandidate {
	c := &rangeCandidate{
		blocks:  blocks,
		digests: make([]cryptoutil.Digest, len(blocks)),
		signers: make([]map[string]bool, len(blocks)),
		short:   len(blocks),
	}
	for i, b := range blocks {
		c.digests[i] = b.Header.Hash()
		c.signers[i] = make(map[string]bool)
	}
	c.vouch(blocks, verify, need)
	return c
}

// vouchAny merges one peer's copy into the candidates up to the one that
// shares its top, and returns that one; nil when none does.
func vouchAny(candidates []*rangeCandidate, theirs []*fabric.Block, verify *cryptoutil.Registry, need int) *rangeCandidate {
	for _, c := range candidates {
		if c.vouch(theirs, verify, need) {
			return c
		}
	}
	return nil
}

// vouch merges one peer's copy of the same range — full or
// envelope-stripped — into the candidate, block by block where the header
// hashes agree, and reports whether the tops did: a copy with another top
// is another version, however much of the interior it shares. Matching by
// header hash is safe without re-verifying the copy's chain: every
// signature is checked against the candidate's own header digest, so a
// copy can contribute valid signatures or nothing. Newly verified
// signatures are appended to the candidate's blocks, so what is handed on
// carries its own proof. verify is nil where the signature proof does not
// apply.
func (c *rangeCandidate) vouch(theirs []*fabric.Block, verify *cryptoutil.Registry, need int) (sameTop bool) {
	for i, digest := range c.digests {
		b, t := c.blocks[i], theirs[i]
		if t != b && t.Header.Hash() != digest {
			continue // diverging copy: its signatures prove nothing here
		}
		if i == len(c.digests)-1 {
			sameTop = true
		}
		if verify == nil || len(c.signers[i]) >= need {
			continue
		}
		for _, sig := range t.Signatures {
			if c.signers[i][sig.SignerID] || !verify.Verify(sig.SignerID, digest.Bytes(), sig.Signature) {
				continue
			}
			c.signers[i][sig.SignerID] = true
			if t != b {
				b.Signatures = append(b.Signatures, sig)
			}
			if len(c.signers[i]) == need {
				c.short--
				break
			}
		}
	}
	return sameTop
}

// linked retrieves blocks [from, to) of a channel proved by the link: the
// header hash of block to-1 is anchor, which the caller already trusts.
// Each peer in turn is asked for a full copy, and the first whose top
// hashes to anchor wins; no signature is checked.
func (s *blockSync) linked(done <-chan struct{}, channel string, from, to uint64, anchor cryptoutil.Digest) ([]*fabric.Block, error) {
	return s.overPeers(done, channel, from, to, func(peer transport.Addr) ([]*fabric.Block, error) {
		return s.copyOf(done, peer, channel, from, to, &anchor)
	}, func(lastErr error) ([]*fabric.Block, error) {
		return nil, fmt.Errorf("%w: %s blocks %d..%d: %v", ErrFetchFailed, channel, from, to-1, lastErr)
	})
}

// proven retrieves blocks [from, to) of a channel that keep their proof:
// the durable ledger and FetchVerified store or hand on each block with
// f+1 valid signatures of distinct nodes, merged across the peers that
// serve it, so it proves itself wherever it is served from next. Every
// well-formed version of the range is its own candidate, so a Byzantine
// peer that answers first with a forged but internally consistent chain
// cannot lock honest copies out — the honest version gathers its quorum
// independently and wins. Once a full copy is in hand, further peers are
// asked for the range's headers and signatures only; one whose top matches
// no candidate's holds a different version and is asked for a full copy.
//
// With an anchor, the header hash of block to-1, only versions that link
// into it are candidates at all, and when the signatures cannot be
// completed after every pass — unsigned blocks — the link alone proves the
// first. Without verification keys only the link can prove a range, so an
// anchored call is a linked read and an anchorless one fails with
// ErrUnverifiedRange.
func (s *blockSync) proven(done <-chan struct{}, channel string, from, to uint64, anchor *cryptoutil.Digest) ([]*fabric.Block, error) {
	if s.registry == nil {
		if anchor == nil {
			return nil, fmt.Errorf("%w: no verification keys to prove %s blocks %d..%d", ErrUnverifiedRange, channel, from, to-1)
		}
		return s.linked(done, channel, from, to, *anchor)
	}
	_, f := s.group()
	var candidates []*rangeCandidate
	// handOver hands c over once every block of it carries f+1 signatures.
	handOver := func(c *rangeCandidate) ([]*fabric.Block, error) {
		if c.short > 0 {
			return nil, nil
		}
		return c.blocks, nil
	}
	return s.overPeers(done, channel, from, to, func(peer transport.Addr) ([]*fabric.Block, error) {
		if len(candidates) > 0 {
			stripped, err := s.fromPeer(peer, channel, from, to, true, done)
			if err != nil {
				return nil, err
			}
			if c := vouchAny(candidates, stripped, s.registry, f+1); c != nil {
				return handOver(c)
			}
		}
		blocks, err := s.copyOf(done, peer, channel, from, to, anchor)
		if err != nil {
			return nil, err
		}
		c := vouchAny(candidates, blocks, s.registry, f+1)
		if c == nil {
			c = newRangeCandidate(blocks, s.registry, f+1)
			candidates = append(candidates, c)
		}
		return handOver(c)
	}, func(lastErr error) ([]*fabric.Block, error) {
		switch {
		case len(candidates) > 0 && anchor != nil:
			return candidates[0].blocks, nil
		case len(candidates) > 0:
			return nil, fmt.Errorf("%w: %s blocks %d..%d", ErrUnverifiedRange, channel, from, to-1)
		}
		return nil, fmt.Errorf("%w: %s blocks %d..%d: %v", ErrFetchFailed, channel, from, to-1, lastErr)
	})
}

// overPeers offers each peer in turn to try, in up to fetchRounds passes
// with the pauses of fetchRetryPolicy between them, until try hands over
// the range [from, to) — try returns no blocks and no error for a peer
// whose answer was taken but proves nothing yet. The read ends early with
// ErrFetchFailed once done closes, and with a *fabric.PrunedError carrying
// the smallest floor reported once f+1 distinct peers answered that the
// range fell below their retention floor; after the last pass, spent
// decides its outcome from the last failure try reported.
func (s *blockSync) overPeers(done <-chan struct{}, channel string, from, to uint64, try func(transport.Addr) ([]*fabric.Block, error), spent func(lastErr error) ([]*fabric.Block, error)) ([]*fabric.Block, error) {
	if to <= from {
		return nil, nil
	}
	peers, f := s.group()
	refused := newRefusals(f)
	var lastErr error = ErrFetchFailed
	var rng *rand.Rand // jitters the pauses; seeded once a second pass is due
	for round := 0; round < fetchRounds; round++ {
		if round > 0 {
			if rng == nil {
				rng = rand.New(rand.NewSource(time.Now().UnixNano()))
			}
			select {
			case <-done:
				return nil, ErrFetchFailed
			case <-time.After(fetchRetryPolicy.Delay(round-1, rng)):
			}
		}
		for _, peer := range peers {
			select {
			case <-done:
				return nil, ErrFetchFailed
			default:
			}
			blocks, err := try(peer)
			if err != nil {
				if err := refused.note(peer, channel, err); err != nil {
					return nil, err
				}
				lastErr = err
				continue
			}
			if blocks != nil {
				return blocks, nil
			}
		}
	}
	return spent(lastErr)
}

// copyOf downloads peer's full copy of [from, to) and checks its numbering
// and hash links, into anchor or, when anchor is nil, into its own top.
func (s *blockSync) copyOf(done <-chan struct{}, peer transport.Addr, channel string, from, to uint64, anchor *cryptoutil.Digest) ([]*fabric.Block, error) {
	blocks, err := s.fromPeer(peer, channel, from, to, false, done)
	if err != nil {
		return nil, err
	}
	want := blocks[len(blocks)-1].Header.Hash()
	if anchor != nil {
		want = *anchor
	}
	if err := fabric.VerifyRangeLinks(blocks, from, to, want); err != nil {
		return nil, fmt.Errorf("fetch: peer %s served an unverifiable range: %w", peer, err)
	}
	return blocks, nil
}

// ---- server ------------------------------------------------------------------

// blockSource is what fetch requests and replays are answered from: the
// channel's durable ledger, or a ForgeHistory node's forged chain.
type blockSource interface {
	Height() uint64
	// Range returns blocks [from, to) clamped to the height; a range that
	// starts below the retention floor fails with *fabric.PrunedError.
	Range(from, to uint64) ([]*fabric.Block, error)
}

// window is the one read serve and replay answer from: blocks [from, to)
// cut to maxFetchBlocks (the newest block for a head probe), and the
// source's height — zero without a ledger for the channel.
func (s *blockSync) window(channel string, from, to uint64) ([]*fabric.Block, uint64, error) {
	led := s.node.Ledger(channel)
	if led == nil {
		return nil, 0, nil
	}
	var src blockSource = led
	if s.node.byz.Load().ForgeHistory {
		// The forged history mirrors the real ledger's height so the node
		// looks plausibly caught-up to head probes.
		src = s.forgedChain(channel, led.Height())
	}
	height := src.Height()
	if from == fetchHeadProbe && height > 0 {
		from, to = height-1, height
	}
	if to <= from {
		return nil, height, nil
	}
	blocks, err := src.Range(from, min(to-from, maxFetchBlocks)+from)
	return blocks, height, err
}

// serve answers one FetchBlocks request with one window. Nodes without
// durable storage (or without the channel) answer with an empty run so the
// requester moves on quickly. Runs off the event loop: the range read may
// hit disk, and the ledger is safe for concurrent readers.
func (s *blockSync) serve(to transport.Addr, payload []byte) {
	req, err := unmarshalFetchRequest(payload)
	if err != nil {
		return
	}
	from, floor := req.From, uint64(0)
	blocks, _, err := s.window(req.Channel, req.From, req.To)
	// Retention compacted the range away: tell the requester where this
	// node's history now starts.
	var pe *fabric.PrunedError
	if errors.As(err, &pe) {
		floor = pe.Floor
	}
	if len(blocks) > 0 {
		from = blocks[0].Header.Number // a head probe learns it here
	}
	s.conn.Send(to, MsgFetchResponse, marshalFetchResponse(req.ReqID, from, floor, blocks, req.SigsOnly))
}

// marshalFetchResponse encodes a fetchResponse carrying blocks, each
// written straight into the one buffer the response is sent in: a block's
// exact size is the length prefix of its field. With sigsOnly a block
// keeps its header and signatures only; the header (and thus the signed
// digest) is untouched, so the requester can match by header hash.
func marshalFetchResponse(reqID, from, floor uint64, blocks []*fabric.Block, sigsOnly bool) []byte {
	sent := func(b *fabric.Block) fabric.Block {
		v := *b
		if sigsOnly {
			v.Envelopes = nil
		}
		return v
	}
	size := 24 + wire.UvarintSize(uint64(len(blocks)))
	for _, b := range blocks {
		v := sent(b)
		size += wire.BytesSize(v.MarshaledSize())
	}
	w := wire.NewWriter(size)
	w.PutUint64(reqID)
	w.PutUint64(from)
	w.PutUint64(floor)
	w.PutUvarint(uint64(len(blocks)))
	for _, b := range blocks {
		v := sent(b)
		w.PutUvarint(uint64(v.MarshaledSize()))
		v.MarshalInto(w)
	}
	return w.Bytes()
}

// replayKey names one frontend's replay of one channel.
type replayKey struct {
	frontend transport.Addr
	channel  string
}

// replay sends a re-registering frontend the channel's blocks from `from` up
// to the height the first window saw, as ordinary MsgBlock frames, on a
// background task at most one of which runs per (frontend, channel). The
// frontend joined the live set before that read, so the live push carries
// every later block.
func (s *blockSync) replay(frontend transport.Addr, channel string, from uint64) {
	key := replayKey{frontend, channel}
	s.taskMu.Lock()
	defer s.taskMu.Unlock()
	if s.stopped || s.replaying[key] {
		return
	}
	s.replaying[key] = true
	s.tasks.Add(1)
	go func() {
		defer s.tasks.Done()
		for end := uint64(math.MaxUint64); from < end; {
			blocks, height, err := s.window(channel, from, end)
			if err != nil || len(blocks) == 0 {
				break
			}
			for _, b := range blocks {
				s.conn.Send(frontend, MsgBlock, marshalBlockMsg(channel, b))
			}
			from, end = from+uint64(len(blocks)), min(end, height)
		}
		s.taskMu.Lock()
		delete(s.replaying, key)
		s.taskMu.Unlock()
	}()
}

// forgedChain is a ForgeHistory node's fabricated history of one channel:
// internally hash-linked from a zero genesis anchor, deterministic in
// content, every block carrying only the forger's (genuine) signature. It
// passes every per-range hash check, so only a threshold that f forgers
// cannot reach — f+1 signatures, f+1 serving nodes — or a trusted anchor
// rejects it; f+1 forgers serve identical headers and do reach it.
type forgedChain []*fabric.Block

func (c forgedChain) Height() uint64 { return uint64(len(c)) }

func (c forgedChain) Range(from, to uint64) ([]*fabric.Block, error) {
	to = min(to, c.Height())
	if from >= to {
		return nil, nil
	}
	return c[from:to], nil
}

// forgedChain returns this node's forged history for a channel, grown to
// at least height blocks.
func (s *blockSync) forgedChain(channel string, height uint64) forgedChain {
	n := s.node
	if n.cfg.Key == nil {
		return nil
	}
	s.forgedMu.Lock()
	defer s.forgedMu.Unlock()
	chain := s.forged[channel]
	for uint64(len(chain)) < height {
		num := uint64(len(chain))
		var prev cryptoutil.Digest
		if num > 0 {
			prev = chain[num-1].Header.Hash()
		}
		envs := [][]byte{[]byte("forged:" + channel + ":" + strconv.FormatUint(num, 10))}
		fb := fabric.NewBlock(num, prev, envs)
		sig, err := n.cfg.Key.Sign(fb.Header.Hash().Bytes())
		if err != nil {
			break
		}
		fb.Signatures = []fabric.BlockSignature{{SignerID: string(n.ID().Addr()), Signature: sig}}
		chain = append(chain, fb)
	}
	s.forged[channel] = chain
	return chain
}

// ---- node: scrub repair --------------------------------------------------------

// repair is the scrubber's repair callback: replace one corrupt durable
// block record with a copy fetched from the other replicas. The intact
// successor's PrevHash, when readable, is the anchor; adjacent corrupt
// records then heal top-down across scrub passes, each repaired block
// becoming the next-lower one's anchor. A node without verification keys
// can gain no proof from a peer's copy, so it first takes its own
// in-memory one. Called off the consensus event loop.
func (s *blockSync) repair(channel string, num uint64) error {
	n := s.node
	led := n.Ledger(channel)
	if led == nil {
		return fmt.Errorf("scrub repair: no ledger for channel %q", channel)
	}
	if s.registry == nil {
		if b, err := led.Block(num); err == nil {
			// The durable record is corrupt, so a read-through to disk would
			// have failed — a successful read means this copy came from the
			// in-memory window, where it was hash-link-checked at append.
			return n.storage.RepairBlock(channel, b)
		}
	}
	var anchor *cryptoutil.Digest
	if next, err := led.Block(num + 1); err == nil {
		anchor = &next.Header.PrevHash
	}
	blocks, err := s.proven(n.done, channel, num, num+1, anchor)
	if err != nil {
		return fmt.Errorf("scrub repair: fetching %s/%d: %w", channel, num, err)
	}
	return n.storage.RepairBlock(channel, blocks[0])
}

// ---- node: parked blocks and back-fill ----------------------------------------

// chainGap is a channel whose decided chain state runs ahead of its
// durable ledger: blocks [ledger height, to) are missing, and anchor is
// the header hash of block to-1.
type chainGap struct {
	channel string
	to      uint64
	anchor  cryptoutil.Digest
}

// gaps lists the channels a state transfer (or a crash right after one)
// jumped past the local ledger height. The caller must own chains.
func (s *blockSync) gaps(chains map[string]*chainState) []chainGap {
	if s.node.storage == nil {
		return nil
	}
	var out []chainGap
	for channel, chain := range chains {
		if s.node.ledger(channel).Height() < chain.nextNumber {
			out = append(out, chainGap{channel, chain.nextNumber, chain.prevHash})
		}
	}
	return out
}

// fill starts a back-fill for every gap.
func (s *blockSync) fill(gaps []chainGap) {
	for _, g := range gaps {
		s.backfill(g.channel, g.to, g.anchor)
	}
}

// park holds a block sealed above the ledger height until the back-fill
// closes the gap beneath it, so the durable chain stays contiguous. The
// back-fill is re-armed on every parked block (a no-op while one is
// already running): if an earlier attempt exhausted its retries, the gap
// would otherwise persist — and parked blocks accumulate — for the node's
// lifetime. The lowest parked block pins the gap's upper bound and
// anchor. Called with ledgerMu held.
func (s *blockSync) park(channel string, block *fabric.Block) {
	parked, ok := s.parked[channel]
	if !ok {
		parked = make(map[uint64]*fabric.Block)
		s.parked[channel] = parked
	}
	parked[block.Header.Number] = block
	low, _ := lowestParked(parked)
	s.backfill(channel, low, parked[low].Header.PrevHash)
}

// lowestParked returns the smallest parked block number.
func lowestParked(parked map[uint64]*fabric.Block) (uint64, bool) {
	lowest, found := uint64(0), false
	for num := range parked {
		if !found || num < lowest {
			lowest = num
			found = true
		}
	}
	return lowest, found
}

// backfill starts (at most one per channel) a background task that
// fetches the blocks from the ledger height up to `to` from peers and
// appends them to the channel's durable ledger, verified against the
// post-jump anchor (the PrevHash of block to).
func (s *blockSync) backfill(channel string, to uint64, anchor cryptoutil.Digest) {
	s.taskMu.Lock()
	if s.stopped || s.filling[channel] {
		s.taskMu.Unlock()
		return
	}
	s.filling[channel] = true
	// The Add happens under taskMu, which stop also takes before its Wait,
	// so a task can never be added after the node began waiting.
	s.tasks.Add(1)
	s.taskMu.Unlock()
	go func() {
		defer s.tasks.Done()
		s.runBackfill(channel, to, anchor)
		s.taskMu.Lock()
		delete(s.filling, channel)
		s.taskMu.Unlock()
		// A block may have parked between the final drain and the flag
		// clearing (or the fill may have failed): re-arm until the chain
		// is contiguous, so no gap outlives its retry budget silently.
		n := s.node
		n.ledgerMu.Lock()
		parked := s.parked[channel]
		low, found := lowestParked(parked)
		rearm := found && n.ledgers[channel].Height() < low
		n.ledgerMu.Unlock()
		if rearm {
			s.backfill(channel, low, parked[low].Header.PrevHash)
		}
	}()
}

// stop refuses new back-fill and replay tasks and waits out the running
// ones (the node's done channel, closed first, aborts back-fill fetches; a
// replay ends at the height it read).
func (s *blockSync) stop() {
	s.taskMu.Lock()
	s.stopped = true
	s.taskMu.Unlock()
	s.tasks.Wait()
}

// runBackfill closes one gap, then drains any blocks that parked above it
// while it ran. The durable ledger wants the proof kept: blocks land with
// the f+1 merged signature set the fetch accumulated instead of just the
// serving peer's own signature.
//
// When f+1 peers answer that the bottom of the gap fell below their
// retention floors, those blocks no longer exist anywhere trustworthy:
// the node takes the snapshot jump instead — it re-fetches from the
// cluster's floor, verifies the suffix into its trusted anchor, and
// rebases its durable chain at the floor (manifest first, so a crash
// mid-jump recovers the rebased chain). Disk usage then tracks the
// retained window, not how long the node was down.
func (s *blockSync) runBackfill(channel string, to uint64, anchor cryptoutil.Digest) {
	n := s.node
	led := n.ledger(channel)
	log := s.log.With("channel", channel)
	for {
		// Follow the cluster's retention floor upward: each time f+1 peers
		// report the bottom of the remaining range pruned, restart at the
		// reported floor (strictly increasing, so a moving floor —
		// compaction racing the fetch — cannot loop this). A start above
		// from means the blocks below it are gone cluster-wide; a start of
		// `to` means the whole gap is.
		from := led.Height()
		start := from
		var blocks []*fabric.Block
		for start < to {
			var err error
			if blocks, err = s.proven(n.done, channel, start, to, &anchor); err == nil {
				break
			}
			var pe *fabric.PrunedError
			if !errors.As(err, &pe) || pe.Floor <= start {
				log.Warn("back-fill fetch failed", "from", start, "to", to-1, "err", err)
				return
			}
			start = min(pe.Floor, to)
		}
		if start > from {
			// The fetched suffix (or, for an empty suffix, the parked
			// block at `to`) links into the trusted anchor, so its first
			// PrevHash is a trusted stand-in for the pruned prefix.
			rebaseAnchor := anchor
			if len(blocks) > 0 {
				rebaseAnchor = blocks[0].Header.PrevHash
			}
			n.ledgerMu.Lock()
			err := led.Rebase(start, rebaseAnchor)
			n.ledgerMu.Unlock()
			if err != nil {
				log.Error("rebase over pruned blocks failed", "from", from, "to", start-1, "err", err)
				return
			}
			log.Info("blocks pruned cluster-wide; rebased at snapshot floor", "from", from, "to", start-1, "floor", start)
		}
		// Enqueue the fetched gap plus every parked block directly above
		// it as one run: puts commit in call order, so the run's last
		// token proves the durable prefix reaches the ledger height. (Only
		// enqueues happen under ledgerMu — the pipeline's persist path
		// shares it — never an fsync.)
		n.ledgerMu.Lock()
		parked := s.parked[channel]
		top := led.Height()
		if len(blocks) > 0 {
			top = max(top, blocks[len(blocks)-1].Header.Number+1)
		}
		for b, ok := parked[top]; ok; b, ok = parked[top] {
			blocks = append(blocks, b)
			delete(parked, top)
			top++
		}
		var last fabric.DurableToken
		for _, b := range blocks {
			if b.Header.Number < led.Height() {
				continue // raced with a replay duplicate
			}
			tok, err := led.AppendSealedAsync(b)
			if err != nil {
				n.ledgerMu.Unlock()
				log.Error("back-fill append failed", "block", b.Header.Number, "err", err)
				return
			}
			last = tok
		}
		// A second state-transfer jump during the fetch leaves a fresh gap
		// below the blocks still parked: fill it in the next pass.
		low, again := lowestParked(parked)
		if again {
			to, anchor = low, parked[low].Header.PrevHash
		}
		height := led.Height()
		n.ledgerMu.Unlock()
		if n.retention != nil {
			n.retention.MaybeCompact()
		}
		// Without this the watermark stays frozen at the recovery height
		// whenever the gap closes after traffic stops — the drain only
		// advances it on newly sealed blocks.
		n.pipe.markDurable(channel, height, last, true)
		if !again {
			return
		}
	}
}
