package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/fabric"
	"repro/internal/transport"
	"repro/internal/wire"
)

// This file implements the FetchBlocks RPC: a requester (a frontend
// serving a historical Deliver seek, or a restarted node back-filling the
// gap a peer-checkpoint jump left in its durable chain) asks a peer for a
// range of sealed blocks, and the peer serves them from its durable
// ledger. A single peer is never trusted: every fetched range must link,
// hash over hash, into an anchor the requester already trusts (a
// quorum-released block for frontends, the post-jump chain state for
// nodes), so a Byzantine server can stall a fetch but never feed a forged
// history.

// maxFetchBlocks caps the blocks served per response; requesters ask for
// the next window until the range is covered.
const maxFetchBlocks = 128

// Fetch tuning.
const (
	// fetchWindowTimeout bounds one request/response round trip (the
	// per-peer deadline of a fetch pass).
	fetchWindowTimeout = 2 * time.Second
	// fetchRounds is how many passes over the peer set a range fetch makes
	// before giving up. Peers are rotated within each pass; the pauses
	// between passes follow fetchRetryPolicy.
	fetchRounds = 3
	// fetchRetryDelay is the initial pause between passes (peers may still
	// be recovering); subsequent pauses grow per fetchRetryPolicy.
	fetchRetryDelay = 250 * time.Millisecond
)

// fetchRetryPolicy spaces consecutive passes over the peer set: jittered
// exponential backoff (shared transport.RetryPolicy semantics), so a
// cluster of recovering nodes does not hammer the same peers in lockstep.
var fetchRetryPolicy = transport.RetryPolicy{
	Initial: fetchRetryDelay,
	Max:     2 * time.Second,
}

// ErrFetchFailed reports that no peer could serve a verifiable block range.
var ErrFetchFailed = errors.New("core: block fetch failed")

// Fetch request flags.
const (
	// fetchFlagSigsOnly asks the server to strip envelopes from each served
	// block, leaving header + signatures. Used once a full copy of a range
	// is already in hand: further peers only contribute signatures, so
	// re-downloading every payload wastes the bandwidth the signature
	// threshold was meant to amortize.
	fetchFlagSigsOnly = 1 << 0
)

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
// below it and was compacted away.
type fetchResponse struct {
	ReqID  uint64
	From   uint64
	Floor  uint64
	Blocks [][]byte
}

func (p fetchResponse) marshal() []byte {
	size := 32
	for _, b := range p.Blocks {
		size += len(b) + 4
	}
	w := wire.NewWriter(size)
	w.PutUint64(p.ReqID)
	w.PutUint64(p.From)
	w.PutUint64(p.Floor)
	w.PutBytesSlice(p.Blocks)
	return w.Bytes()
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

// fetchHeadProbe is the sentinel From/To of a head probe: the server
// answers with its single newest block (From set to that block's number).
const fetchHeadProbe = ^uint64(0)

// blockFetcher issues FetchBlocks requests over a transport connection and
// routes responses back to the waiting call by request id. HandleResponse
// must be wired into the owner's receive path.
type blockFetcher struct {
	conn transport.Conn

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]*pendingFetch
}

// pendingFetch is one in-flight request: only a response from the peer it
// was sent to may answer it. Without the sender check, any single
// Byzantine replica could spray responses at guessed sequential request
// ids, occupy the reply slot before the honest peer answers, and thereby
// cast the "vote" of every peer a quorum fetch queries.
type pendingFetch struct {
	peer transport.Addr
	ch   chan fetchResponse
}

func newBlockFetcher(conn transport.Conn) *blockFetcher {
	return &blockFetcher{conn: conn, pending: make(map[uint64]*pendingFetch)}
}

// HandleResponse routes one MsgFetchResponse payload to its waiting call.
// Responses from the wrong sender, and unknown or late responses, are
// dropped.
func (bf *blockFetcher) HandleResponse(from transport.Addr, payload []byte) {
	resp, err := unmarshalFetchResponse(payload)
	if err != nil {
		return
	}
	bf.mu.Lock()
	p := bf.pending[resp.ReqID]
	bf.mu.Unlock()
	if p == nil || p.peer != from {
		return
	}
	select {
	case p.ch <- resp:
	default: // already answered
	}
}

// request sends one fetch request to a peer and awaits its response.
func (bf *blockFetcher) request(peer transport.Addr, channel string, from, to uint64, sigsOnly bool, done <-chan struct{}) (fetchResponse, error) {
	bf.mu.Lock()
	bf.nextID++
	id := bf.nextID
	p := &pendingFetch{peer: peer, ch: make(chan fetchResponse, 1)}
	bf.pending[id] = p
	bf.mu.Unlock()
	defer func() {
		bf.mu.Lock()
		delete(bf.pending, id)
		bf.mu.Unlock()
	}()

	req := fetchRequest{ReqID: id, Channel: channel, From: from, To: to, SigsOnly: sigsOnly}
	bf.conn.Send(peer, MsgFetchRequest, req.marshal())

	timer := time.NewTimer(fetchWindowTimeout)
	defer timer.Stop()
	select {
	case resp := <-p.ch:
		return resp, nil
	case <-timer.C:
		return fetchResponse{}, fmt.Errorf("fetch: peer %s timed out", peer)
	case <-done:
		return fetchResponse{}, ErrFetchFailed
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

// fetchWindow asks one peer for blocks [from, to) and returns the decoded
// prefix it served (possibly shorter than the window). A peer that
// compacted the range away answers with its floor, surfaced as
// *errPeerPruned.
func (bf *blockFetcher) fetchWindow(peer transport.Addr, channel string, from, to uint64, done <-chan struct{}) ([]*fabric.Block, error) {
	return bf.fetchWindowFlags(peer, channel, from, to, false, done)
}

func (bf *blockFetcher) fetchWindowFlags(peer transport.Addr, channel string, from, to uint64, sigsOnly bool, done <-chan struct{}) ([]*fabric.Block, error) {
	resp, err := bf.request(peer, channel, from, to, sigsOnly, done)
	if err != nil {
		return nil, err
	}
	if len(resp.Blocks) == 0 && resp.Floor > from {
		return nil, &errPeerPruned{peer: peer, floor: resp.Floor}
	}
	if resp.From != from {
		return nil, fmt.Errorf("fetch: peer %s answered from block %d, want %d", peer, resp.From, from)
	}
	blocks := make([]*fabric.Block, 0, len(resp.Blocks))
	for i, raw := range resp.Blocks {
		b, err := fabric.UnmarshalBlock(raw)
		if err != nil {
			return nil, fmt.Errorf("fetch: peer %s block %d: %w", peer, from+uint64(i), err)
		}
		blocks = append(blocks, b)
	}
	return blocks, nil
}

// probeHead asks one peer for its newest block.
func (bf *blockFetcher) probeHead(peer transport.Addr, channel string, done <-chan struct{}) (*fabric.Block, error) {
	resp, err := bf.request(peer, channel, fetchHeadProbe, fetchHeadProbe, false, done)
	if err != nil {
		return nil, err
	}
	if len(resp.Blocks) != 1 {
		return nil, fmt.Errorf("fetch: peer %s has no head for the channel", peer)
	}
	b, err := fabric.UnmarshalBlock(resp.Blocks[0])
	if err != nil {
		return nil, fmt.Errorf("fetch: peer %s head: %w", peer, err)
	}
	if b.Header.Number != resp.From || b.CheckIntegrity() != nil {
		return nil, fmt.Errorf("fetch: peer %s served a malformed head", peer)
	}
	return b, nil
}

// QuorumHead returns a block f+1 peers agree is (part of) the chain's
// head region: each peer nominates its newest block, and the first header
// hash reaching f+1 votes is trusted (at least one voter is correct).
// The returned block may trail the true head — callers replay up to it
// and let the live stream's gap fill cover the rest.
func (bf *blockFetcher) QuorumHead(done <-chan struct{}, peers []transport.Addr, channel string, f int) (*fabric.Block, error) {
	votes := make(map[cryptoutil.Digest]int)
	blocks := make(map[cryptoutil.Digest]*fabric.Block)
	for _, peer := range peers {
		b, err := bf.probeHead(peer, channel, done)
		if err != nil {
			select {
			case <-done:
				return nil, ErrFetchFailed
			default:
			}
			continue
		}
		h := b.Header.Hash()
		votes[h]++
		blocks[h] = b
		if votes[h] >= f+1 {
			return blocks[h], nil
		}
	}
	return nil, fmt.Errorf("%w: no f+1 quorum on %s's head", ErrFetchFailed, channel)
}

// FetchRange retrieves blocks [from, to) of a channel, trying each peer in
// turn, and authenticates the whole range against the trusted anchor:
// anchorPrev must equal the header hash of block to-1 (i.e. the PrevHash
// of the first block the requester already trusts above the range). The
// range is fetched window by window from a single peer, so a forged
// response is discarded wholesale rather than partially applied.
//
// f is the fault threshold: when f+1 distinct peers answer that the range
// fell below their retention floor, the range is authoritatively pruned
// (at least one of them is honest) and the call fails with a typed
// *fabric.PrunedError carrying the smallest reported floor — callers
// either surface it (NOT_FOUND) or restart their read from the floor.
func (bf *blockFetcher) FetchRange(done <-chan struct{}, peers []transport.Addr, channel string, from, to uint64, anchorPrev cryptoutil.Digest, f int) ([]*fabric.Block, error) {
	if to <= from {
		return nil, nil
	}
	var lastErr error = ErrFetchFailed
	pruned := newPrunedTally(f)
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for round := 0; round < fetchRounds; round++ {
		for _, peer := range peers {
			blocks, err := bf.fetchRangeFromPeer(peer, channel, from, to, done)
			if err != nil {
				lastErr = err
				if pe := pruned.note(channel, err); pe != nil {
					return nil, pe
				}
				select {
				case <-done:
					return nil, ErrFetchFailed
				default:
				}
				continue
			}
			if err := fabric.VerifyRange(blocks, from, to, anchorPrev); err != nil {
				lastErr = fmt.Errorf("fetch: peer %s served an unverifiable range: %w", peer, err)
				continue
			}
			return blocks, nil
		}
		if round == fetchRounds-1 {
			break
		}
		select {
		case <-done:
			return nil, ErrFetchFailed
		case <-time.After(fetchRetryPolicy.Delay(round, rng)):
		}
	}
	return nil, fmt.Errorf("%w: %s blocks %d..%d: %v", ErrFetchFailed, channel, from, to-1, lastErr)
}

// prunedTally accumulates per-peer pruned answers until f+1 distinct
// peers agree the range is gone.
type prunedTally struct {
	f        int
	peers    map[transport.Addr]struct{}
	minFloor uint64
}

func newPrunedTally(f int) *prunedTally {
	return &prunedTally{f: f, peers: make(map[transport.Addr]struct{})}
}

// note records err if it is a peer-pruned answer and returns the typed
// pruned error once f+1 distinct peers reported one.
func (t *prunedTally) note(channel string, err error) *fabric.PrunedError {
	var pp *errPeerPruned
	if !errors.As(err, &pp) {
		return nil
	}
	if _, seen := t.peers[pp.peer]; !seen {
		t.peers[pp.peer] = struct{}{}
		if len(t.peers) == 1 || pp.floor < t.minFloor {
			t.minFloor = pp.floor
		}
	}
	if len(t.peers) >= t.f+1 {
		return &fabric.PrunedError{Channel: channel, Floor: t.minFloor}
	}
	return nil
}

// FetchRangeQuorum retrieves blocks [from, to) authenticated by quorum
// agreement instead of a locally trusted anchor: f+1 peers must serve
// identical copies of the top block to-1 (at least one of them is
// correct), and the full range must then chain into that agreed hash.
// Used for bounded historical seeks issued before any live block has
// anchored the chain; fails when fewer than f+1 peers hold the top block
// (e.g. it is not sealed yet).
func (bf *blockFetcher) FetchRangeQuorum(done <-chan struct{}, peers []transport.Addr, channel string, from, to uint64, f int) ([]*fabric.Block, error) {
	if to <= from {
		return nil, nil
	}
	votes := make(map[cryptoutil.Digest]int)
	pruned := newPrunedTally(f)
	var anchorPrev cryptoutil.Digest
	agreed := false
	for _, peer := range peers {
		blocks, err := bf.fetchWindow(peer, channel, to-1, to, done)
		if err != nil || len(blocks) != 1 || blocks[0].Header.Number != to-1 {
			if err != nil {
				if pe := pruned.note(channel, err); pe != nil {
					return nil, pe
				}
			}
			select {
			case <-done:
				return nil, ErrFetchFailed
			default:
			}
			continue
		}
		h := blocks[0].Header.Hash()
		votes[h]++
		if votes[h] >= f+1 {
			anchorPrev = h
			agreed = true
			break
		}
	}
	if !agreed {
		return nil, fmt.Errorf("%w: no f+1 quorum on %s block %d", ErrFetchFailed, channel, to-1)
	}
	return bf.FetchRange(done, peers, channel, from, to, anchorPrev, f)
}

// disableFetchVerification artificially drops FetchRangeVerified's f+1
// signature threshold to zero. It exists solely so the chaos harness can
// prove its forged-history invariant has teeth: with verification disabled
// the invariant MUST trip against a forging peer. Never set outside tests.
var disableFetchVerification atomic.Bool

// SetFetchVerificationDisabled toggles the teeth-test switch (see
// disableFetchVerification). Test instrumentation only.
func SetFetchVerificationDisabled(v bool) { disableFetchVerification.Store(v) }

// rangeCandidate is one internally hash-linked version of a requested
// range, identified by its last block's header hash, accumulating verified
// signatures across the peers that served a matching copy.
type rangeCandidate struct {
	blocks   []*fabric.Block
	verified []map[string]bool
	short    int // blocks still below the signature threshold
}

// FetchRangeVerified retrieves blocks [from, to) authenticated by node
// signatures instead of a trusted anchor: every block must carry f+1
// valid signatures from distinct ordering nodes (at least one of which
// is honest), which makes a fetched range independently verifiable with
// no prior chain state at all. Nodes persist (at least) their own
// signature with every block they seal, so one peer's copy rarely
// carries f+1 on its own; the fetcher merges the signature sets of
// identical blocks served by further peers until the threshold is met.
//
// Every well-formed version of the range is tracked as its own candidate
// (identity: the last block's header hash — the hash chain makes it cover
// the whole range), so a byzantine peer that answers first with a forged
// but internally consistent chain cannot lock honest copies out: the
// honest version accumulates its quorum independently and wins. Blocks
// that carry no signatures — sealed with DisableSigning, or re-sealed
// from the decision log by a crash recovery — cannot reach the threshold
// and fail with ErrUnverifiedRange: callers then apply the other live
// verification rule, hash-chain anchoring (FetchRange) or f+1 matching
// copies (FetchRangeQuorum), which is also the only rule a deployment
// without a verification-key registry (cmd/ordernode distributes none)
// ever runs.
//
// Once a full copy is in hand, further peers are asked for signatures
// only (fetchFlagSigsOnly): envelope-stripped blocks whose signatures are
// merged per index by header-hash match. Matching by header hash is safe
// without re-verifying the chain — every signature is checked against the
// candidate's own header digest, so a stripped response can contribute
// valid signatures or nothing. A peer whose signature response matches no
// candidate index holds a different version of the range; it is re-asked
// for a full copy so an honest alternative can form its own candidate.
// The peer set is swept up to fetchRounds times with jittered backoff in
// between, so one pass of transient loss does not strand a joining node.
func (bf *blockFetcher) FetchRangeVerified(done <-chan struct{}, peers []transport.Addr, channel string, from, to uint64, registry *cryptoutil.Registry, f int) ([]*fabric.Block, error) {
	if to <= from {
		return nil, nil
	}
	need := f + 1
	if disableFetchVerification.Load() {
		need = 0
	}
	pruned := newPrunedTally(f)
	var candidates []*rangeCandidate
	var lastErr error = ErrFetchFailed
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))

	// absorbFull fetches a full copy from one peer and folds it into the
	// candidate set. It returns the candidate the copy completed, if any.
	absorbFull := func(peer transport.Addr) *rangeCandidate {
		blocks, err := bf.fetchRangeFromPeer(peer, channel, from, to, done)
		if err != nil {
			lastErr = err
			return nil
		}
		if uint64(len(blocks)) != to-from || blocks[0].Header.Number != from ||
			fabric.VerifyChain(blocks) != nil {
			lastErr = fmt.Errorf("fetch: peer %s served a malformed range", peer)
			return nil
		}
		key := blocks[len(blocks)-1].Header.Hash()
		var cand *rangeCandidate
		for _, c := range candidates {
			if c.blocks[len(c.blocks)-1].Header.Hash() == key {
				cand = c
				break
			}
		}
		if cand == nil {
			cand = &rangeCandidate{blocks: blocks, short: len(blocks)}
			for _, b := range blocks {
				signers := countVerified(registry, b, b)
				cand.verified = append(cand.verified, signers)
				if len(signers) >= need {
					cand.short--
				}
			}
			candidates = append(candidates, cand)
		} else {
			// Merge this peer's signatures into the matching candidate.
			for i, b := range cand.blocks {
				if len(cand.verified[i]) >= need {
					continue
				}
				if blocks[i].Header.Hash() != b.Header.Hash() {
					continue // diverging copy: its signatures prove nothing here
				}
				before := len(cand.verified[i])
				mergeVerified(registry, b, blocks[i], cand.verified[i])
				if before < need && len(cand.verified[i]) >= need {
					cand.short--
				}
			}
		}
		if cand.short <= 0 {
			return cand
		}
		return nil
	}

	for round := 0; round < fetchRounds; round++ {
		for _, peer := range peers {
			select {
			case <-done:
				return nil, ErrFetchFailed
			default:
			}
			if len(candidates) == 0 {
				if cand := absorbFull(peer); cand != nil {
					return cand.blocks, nil
				}
				if pe := pruned.note(channel, lastErr); pe != nil {
					return nil, pe
				}
				continue
			}
			sigBlocks, err := bf.fetchSigsFromPeer(peer, channel, from, to, done)
			if err != nil {
				lastErr = err
				if pe := pruned.note(channel, err); pe != nil {
					return nil, pe
				}
				continue
			}
			matched := 0
			for _, cand := range candidates {
				for i, b := range cand.blocks {
					if i >= len(sigBlocks) || sigBlocks[i] == nil {
						continue
					}
					if sigBlocks[i].Header.Hash() != b.Header.Hash() {
						continue
					}
					matched++
					if len(cand.verified[i]) >= need {
						continue
					}
					before := len(cand.verified[i])
					mergeVerified(registry, b, sigBlocks[i], cand.verified[i])
					if before < need && len(cand.verified[i]) >= need {
						cand.short--
					}
				}
				if cand.short <= 0 {
					return cand.blocks, nil
				}
			}
			if matched == 0 {
				// This peer holds a version of the range no candidate
				// matches: download it in full so an honest alternative to
				// a byzantine first responder can form its own candidate.
				if cand := absorbFull(peer); cand != nil {
					return cand.blocks, nil
				}
			}
		}
		if round == fetchRounds-1 {
			break
		}
		select {
		case <-done:
			return nil, ErrFetchFailed
		case <-time.After(fetchRetryPolicy.Delay(round, rng)):
		}
	}
	if len(candidates) > 0 {
		return nil, fmt.Errorf("%w: %s blocks %d..%d", ErrUnverifiedRange, channel, from, to-1)
	}
	return nil, fmt.Errorf("%w: %s blocks %d..%d: %v", ErrFetchFailed, channel, from, to-1, lastErr)
}

// fetchSigsFromPeer accumulates envelope-stripped copies of [from, to)
// from one peer, window by window. The result is positional: index i
// holds the peer's copy of block from+i (header + signatures only), and
// callers must match by header hash before trusting anything in it.
func (bf *blockFetcher) fetchSigsFromPeer(peer transport.Addr, channel string, from, to uint64, done <-chan struct{}) ([]*fabric.Block, error) {
	out := make([]*fabric.Block, 0, to-from)
	for next := from; next < to; {
		blocks, err := bf.fetchWindowFlags(peer, channel, next, to, true, done)
		if err != nil {
			return nil, err
		}
		if len(blocks) == 0 {
			return nil, fmt.Errorf("fetch: peer %s cannot serve block %d", peer, next)
		}
		for i, b := range blocks {
			if b.Header.Number != next+uint64(i) {
				return nil, fmt.Errorf("fetch: peer %s served out-of-order signatures", peer)
			}
		}
		out = append(out, blocks...)
		next += uint64(len(blocks))
	}
	return out, nil
}

// ErrUnverifiedRange reports a fetched range that could not accumulate
// f+1 valid signatures per block (typically history persisted before
// signature retention).
var ErrUnverifiedRange = errors.New("core: fetched range lacks f+1 signatures")

// countVerified returns the set of distinct signers of src whose
// signatures over dst's header verify, merging into a fresh set.
func countVerified(registry *cryptoutil.Registry, dst, src *fabric.Block) map[string]bool {
	signers := make(map[string]bool)
	mergeVerified(registry, dst, src, signers)
	return signers
}

// mergeVerified adds src's valid signatures over dst's header to the
// signer set, appending newly seen ones to dst so the caller hands on a
// block that carries its own proof.
func mergeVerified(registry *cryptoutil.Registry, dst, src *fabric.Block, signers map[string]bool) {
	digest := dst.Header.Hash()
	for _, sig := range src.Signatures {
		if signers[sig.SignerID] {
			continue
		}
		if !registry.Verify(sig.SignerID, digest.Bytes(), sig.Signature) {
			continue
		}
		signers[sig.SignerID] = true
		if dst != src {
			dst.Signatures = append(dst.Signatures, sig)
		}
	}
}

// fetchRangeFromPeer accumulates [from, to) from one peer, window by
// window.
func (bf *blockFetcher) fetchRangeFromPeer(peer transport.Addr, channel string, from, to uint64, done <-chan struct{}) ([]*fabric.Block, error) {
	out := make([]*fabric.Block, 0, to-from)
	for next := from; next < to; {
		blocks, err := bf.fetchWindow(peer, channel, next, to, done)
		if err != nil {
			return nil, err
		}
		if len(blocks) == 0 {
			return nil, fmt.Errorf("fetch: peer %s cannot serve block %d", peer, next)
		}
		out = append(out, blocks...)
		next += uint64(len(blocks))
	}
	return out, nil
}
