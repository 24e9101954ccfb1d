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
// replays) from the durable ledger, the client that asks, the one rule that
// decides when a fetched range may be believed (fetch), and the two
// node-side users of that rule — the back-fill that closes the gap a
// state-transfer jump left in the durable chain, and the scrubber's repair
// callback.
//
// A single peer is never trusted. A Byzantine server can stall a fetch but
// never feed a forged history: every range handed to a caller passed one
// of three proofs, each of which ties it to at least one correct node.
//
//   - link: the top of the range hashes to an anchor the caller already
//     trusts (a quorum-released block for frontends, the post-jump chain
//     state or an intact successor record for nodes). Every header embeds
//     its predecessor's hash, so the link authenticates the whole range.
//   - signatures: every block carries f+1 valid signatures of distinct
//     ordering nodes, so the range proves itself with no prior chain state
//     and keeps proving itself wherever it is stored. Nodes persist (at
//     least) their own signature with every block they seal, so one peer's
//     copy rarely carries f+1: the signature sets of identical blocks
//     served by further peers are merged until it does.
//   - copies: f+1 peers serve a range with the same top header. This is
//     the only anchorless rule for a deployment that distributes no
//     verification keys (cmd/ordernode), and for blocks that carry no
//     signatures — sealed with DisableSigning, or re-sealed from the
//     decision log by a crash recovery.
//
// The first two compose: a caller with no anchor that keeps no proof (a
// Deliver replay below a frontend's window) needs f+1 signatures on the
// top block only, which then is the anchor the link proves the rest from.
// A correct node signs only a header it sealed on the decided chain, so
// one of the f+1 signers vouches that the top header is the decided block
// to-1; every header below it is then fixed by the PrevHash chain, and
// every block's envelopes by its data hash — a forged interior under a
// genuine top takes a SHA-256 collision. A caller that keeps the proof
// gets f+1 signatures on every block instead, so a stored block proves
// itself on its own, wherever it is served from next.

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
// frontend uses only the client half (fetch, head); an ordering node also
// serves requests, back-fills its durable chain and repairs scrubbed
// records. handleResponse must be wired into the owner's receive path.
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

// errPeerLacks reports a peer answering that it holds none of a range that
// its retention floor does not explain.
var errPeerLacks = errors.New("fetch: the peer cannot serve the range")

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
			return nil, fmt.Errorf("%w: peer %s, block %d", errPeerLacks, p.peer, q.From)
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

// head returns a block f+1 peers agree is (part of) the chain's head
// region: each peer nominates its newest block, and the first header hash
// reaching f+1 votes is trusted (at least one voter is correct). f+1 peers
// are asked at once, and one further peer each time an answer fails or
// disagrees so that no version can reach f+1 votes any more from the
// answers still awaited. The returned block may trail the true head —
// callers replay up to it and let the live stream's gap fill cover the
// rest.
func (s *blockSync) head(done <-chan struct{}, channel string) (*fabric.Block, error) {
	peers, f := s.group()
	answers := make(chan answer, len(peers))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	votes := make(map[cryptoutil.Digest]int)
	asked, awaited, best := 0, 0, 0
	for {
		for ; awaited+best < f+1 && asked < len(peers); asked++ {
			p := s.send(peers[asked], channel, fetchHeadProbe, fetchHeadProbe, false)
			awaited++
			wg.Add(1)
			go func() {
				defer wg.Done()
				blocks, err := s.await(p, stop)
				answers <- answer{blocks, err}
			}()
		}
		if awaited == 0 {
			return nil, fmt.Errorf("%w: no f+1 quorum on %s's head", ErrFetchFailed, channel)
		}
		var a answer
		select {
		case a = <-answers:
			awaited--
		case <-done:
			return nil, ErrFetchFailed
		}
		if a.err != nil || len(a.blocks) != 1 || a.blocks[0].CheckIntegrity() != nil {
			continue
		}
		h := a.blocks[0].Header.Hash()
		votes[h]++
		if votes[h] >= f+1 {
			return a.blocks[0], nil
		}
		best = max(best, votes[h])
	}
}

// ---- client: the trust rule ------------------------------------------------

// refusals tallies the distinct peers that definitively refused a range:
// pruned below their retention floor, or holding none of it where the
// range may not exist (lacking is nil where it must). f+1 refusing alike
// settle it (one of them is honest), and the fetch ends at once.
type refusals struct {
	f               int
	pruned, lacking map[transport.Addr]bool
	minFloor        uint64
}

// note records peer's answer err if it is a refusal. Once f+1 peers refused
// alike it returns the error the fetch ends with: the typed pruned error
// with the smallest floor reported, or ErrFetchFailed; until then, nil.
func (t *refusals) note(peer transport.Addr, channel string, err error) error {
	var pp *errPeerPruned
	switch {
	case errors.As(err, &pp):
		if !t.pruned[peer] && (len(t.pruned) == 0 || pp.floor < t.minFloor) {
			t.minFloor = pp.floor
		}
		if t.pruned[peer] = true; len(t.pruned) >= t.f+1 {
			return &fabric.PrunedError{Channel: channel, Floor: t.minFloor}
		}
	case t.lacking != nil && errors.Is(err, errPeerLacks):
		if t.lacking[peer] = true; len(t.lacking) >= t.f+1 {
			return fmt.Errorf("%w: %d peers cannot serve %s: %v", ErrFetchFailed, len(t.lacking), channel, err)
		}
	}
	return nil
}

// rangeCandidate is one well-formed version of a requested range,
// identified by its top header hash (the hash chain makes it cover the
// whole range), accumulating across the peers that vouch for it the peers
// themselves and the verified signatures on its counted blocks: the top
// len(digests) of blocks — all of them when the caller keeps the proof,
// the top one alone otherwise.
type rangeCandidate struct {
	blocks  []*fabric.Block
	digests []cryptoutil.Digest     // header hash per counted block
	signers []map[string]bool       // distinct verified signers per counted block
	short   int                     // counted blocks still below f+1 signatures
	peers   map[transport.Addr]bool // peers whose copy has this top
}

// newRangeCandidate makes a candidate of a verified copy whose top counted
// blocks must gather f+1 signatures.
func newRangeCandidate(blocks []*fabric.Block, counted int) *rangeCandidate {
	c := &rangeCandidate{
		blocks:  blocks,
		digests: make([]cryptoutil.Digest, 0, counted),
		signers: make([]map[string]bool, 0, counted),
		short:   counted,
		peers:   make(map[transport.Addr]bool),
	}
	for _, b := range blocks[len(blocks)-counted:] {
		c.digests = append(c.digests, b.Header.Hash())
		c.signers = append(c.signers, make(map[string]bool))
	}
	return c
}

// vouch merges one peer's copy — full, envelope-stripped, or of the top
// block alone: consecutive blocks from at most the first counted one
// through the range's top — into the candidate, counted block by counted
// block where the header hashes agree, and reports whether the tops did: a
// copy with another top is another version, however much of the interior
// it shares. Matching by header hash is safe without re-verifying the
// copy's chain: every signature is checked against the candidate's own
// header digest, so a copy can contribute valid signatures or nothing.
// Newly verified signatures are appended to the candidate's blocks, so
// what is handed on carries its own proof. verify is nil where the
// signature proof does not apply.
func (c *rangeCandidate) vouch(peer transport.Addr, theirs []*fabric.Block, verify *cryptoutil.Registry, need int) (sameTop bool) {
	base := len(c.blocks) - len(c.digests)                              // c.blocks index of counted block 0
	skew := int(c.blocks[base].Header.Number - theirs[0].Header.Number) // theirs index of it
	for i, digest := range c.digests {
		b, t := c.blocks[base+i], theirs[skew+i]
		if t != b && t.Header.Hash() != digest {
			continue // diverging copy: its signatures prove nothing here
		}
		if i == len(c.digests)-1 {
			c.peers[peer] = true
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

// fetch retrieves blocks [from, to) of a channel from the peers and hands
// them over only once a proof holds (see the top of this file). The caller
// states what it already trusts — anchor, the header hash of block to-1,
// or nil — and whether the result must prove itself to whoever reads it
// next (proof: the durable ledger and FetchVerified keep the merged f+1
// signature set of every block; a Deliver replay does not need it). From
// that, in this one place:
//
//   - An anchor and no wish for proof: link alone. Each peer in turn is
//     asked for a full copy and the first that links wins; no signature is
//     checked.
//   - Verification keys and a wish for proof: signatures on every block.
//     Every well-formed version of the range is its own candidate, so a
//     Byzantine peer that answers first with a forged but internally
//     consistent chain cannot lock honest copies out — the honest version
//     gathers its quorum independently and wins. Once a full copy is in
//     hand, further peers are asked for the range's headers and
//     signatures only; one whose top matches no candidate's holds a
//     different version and is re-asked for a full copy. With an anchor,
//     only versions that link into it are candidates at all.
//   - Verification keys, no anchor, no wish for proof: signatures on the
//     tip, then link. Gathered the same way, except that only the top
//     block's signatures are verified and further peers are asked for the
//     header and signatures of block to-1 alone; the full copy was already
//     checked against its own top, so once that top is proven the link
//     proves the rest. The first f further peers are asked for it at the
//     same moment as the first peer's full copy, so a range whose first
//     f+1 peers are honest takes one copy's transfer time.
//   - Neither keys nor anchor: copies, gathered like the tip (one full
//     copy, then block to-1 alone from further peers, the first f of them
//     at once) and counted per peer.
//
// When the signatures cannot be completed after every pass — unsigned
// blocks — the weaker proof the caller can accept decides: the link into
// its anchor, or else f+1 copies if it asked for no proof.
//
// When f+1 distinct peers answer that the range fell below their retention
// floor, it is authoritatively pruned (at least one of them is honest) and
// the call fails at once with a typed *fabric.PrunedError carrying the
// smallest reported floor — callers surface it (NOT_FOUND) or restart
// their read from the floor. For a replay (no anchor, no proof kept), when
// f+1 distinct peers answer that they hold none of it — a stop beyond the
// chain — the call fails at once with ErrFetchFailed, without the pauses
// between passes.
func (s *blockSync) fetch(done <-chan struct{}, channel string, from, to uint64, anchor *cryptoutil.Digest, proof bool) ([]*fabric.Block, error) {
	if to <= from {
		return nil, nil
	}
	peers, f := s.group()
	need := f + 1
	verify := s.registry
	if anchor != nil && !proof {
		verify = nil
	}
	if verify == nil && anchor == nil && proof {
		return nil, fmt.Errorf("%w: no verification keys to prove %s blocks %d..%d", ErrUnverifiedRange, channel, from, to-1)
	}
	// Further peers vouch for what must gather f+1 signatures or copies:
	// every block when the proof is kept, otherwise the top one.
	vouchFrom := to - 1
	if proof {
		vouchFrom = from
	}
	// accepted reports whether a candidate may be handed over now; final
	// is set once the passes are exhausted and the fallback proofs apply.
	accepted := func(c *rangeCandidate, final bool) bool {
		switch {
		case verify != nil && c.short == 0:
			return true
		case verify != nil && !final:
			return false
		case anchor != nil:
			return true // only versions that link into the anchor are candidates
		}
		return !proof && len(c.peers) >= need
	}

	var candidates []*rangeCandidate
	var lastErr error = ErrFetchFailed
	// Only a replay may ask for blocks beyond the chain: every other caller
	// asks for blocks that exist, and a peer without them is only behind.
	refused := &refusals{f: f, pruned: make(map[transport.Addr]bool)}
	if anchor == nil && !proof {
		refused.lacking = make(map[transport.Addr]bool)
	}
	// full downloads one peer's complete copy and folds it into the
	// candidate set; it returns the candidate the copy belongs to.
	full := func(peer transport.Addr) *rangeCandidate {
		blocks, err := s.fromPeer(peer, channel, from, to, false, done)
		if err != nil {
			lastErr = err
			return nil
		}
		top := blocks[len(blocks)-1].Header.Hash()
		want := top
		if anchor != nil {
			want = *anchor
		}
		if err := fabric.VerifyRangeLinks(blocks, from, to, want); err != nil {
			lastErr = fmt.Errorf("fetch: peer %s served an unverifiable range: %w", peer, err)
			return nil
		}
		var cand *rangeCandidate
		for _, c := range candidates {
			if c.digests[len(c.digests)-1] == top {
				cand = c
			}
		}
		if cand == nil {
			cand = newRangeCandidate(blocks, int(to-vouchFrom))
			candidates = append(candidates, cand)
		}
		cand.vouch(peer, blocks, verify, need)
		return cand
	}

	// A caller with no anchor that keeps no proof needs, besides one full
	// copy, the top block of f further peers: those are asked for it
	// together with the first peer's full copy, and the first pass takes
	// each answer where it would have asked. Only when one fails or
	// disagrees does that pass go on to ask the peers after them, one by
	// one.
	var tips map[transport.Addr]chan answer
	if anchor == nil && !proof {
		tips = make(map[transport.Addr]chan answer, f)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		defer func() {
			close(stop)
			wg.Wait()
		}()
		for _, peer := range peers[min(1, len(peers)):min(need, len(peers))] {
			p, ch := s.send(peer, channel, to-1, to, true), make(chan answer, 1)
			tips[peer] = ch
			wg.Add(1)
			go func() {
				defer wg.Done()
				blocks, err := s.land(p, stop)
				ch <- answer{blocks, err}
			}()
		}
	}

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
			tip, asked := tips[peer]
			delete(tips, peer)
			known := false // the peer's version is already a candidate
			if len(candidates) > 0 && (verify != nil || anchor == nil) {
				var stripped []*fabric.Block
				var err error
				if asked {
					select {
					case a := <-tip:
						stripped, err = a.blocks, a.err
					case <-done:
						return nil, ErrFetchFailed
					}
				} else {
					stripped, err = s.fromPeer(peer, channel, vouchFrom, to, true, done)
				}
				if err != nil {
					lastErr = err
					if err := refused.note(peer, channel, err); err != nil {
						return nil, err
					}
					continue
				}
				for _, c := range candidates {
					if c.vouch(peer, stripped, verify, need) {
						known = true
					}
					if accepted(c, false) {
						return c.blocks, nil
					}
				}
			}
			if known {
				continue
			}
			c := full(peer)
			if c == nil {
				if err := refused.note(peer, channel, lastErr); err != nil {
					return nil, err
				}
			} else if accepted(c, false) {
				return c.blocks, nil
			}
		}
	}
	for _, c := range candidates {
		if accepted(c, true) {
			return c.blocks, nil
		}
	}
	if len(candidates) > 0 && verify != nil {
		return nil, fmt.Errorf("%w: %s blocks %d..%d", ErrUnverifiedRange, channel, from, to-1)
	}
	return nil, fmt.Errorf("%w: %s blocks %d..%d: %v", ErrFetchFailed, channel, from, to-1, lastErr)
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
// cannot reach — f+1 signatures, f+1 copies — or a trusted anchor rejects
// it; f+1 forgers serve identical headers and do reach it.
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
	blocks, err := s.fetch(n.done, channel, num, num+1, anchor, true)
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
			if blocks, err = s.fetch(n.done, channel, start, to, &anchor, true); err == nil {
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
