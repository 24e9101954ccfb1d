package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/fabric"
	"repro/internal/transport"
)

// peerKind scripts how one in-proc peer answers FetchBlocks requests.
type peerKind int

const (
	honest   peerKind = iota // the real chain, each block signed by this peer
	unsigned                 // the real chain, no signatures
	short                    // the real chain without its top block
	forging                  // a forged chain (same numbering), signed by this peer
	pruned                   // "below my floor" to every range, floor = arg
	silent                   // never answers
	// proxied never answers itself: the next peer (a forger) answers the
	// request on its behalf — right request id, wrong sender.
	proxied
	// splicing serves the genuine top block over a forged interior; the
	// top carries its own signature and the next peer's, copied: f+1.
	splicing
	// tipForger serves the genuine interior under a forged top block
	// (same for every tipForger), each block signed by this peer.
	tipForger
	// tipSigned holds the real chain with its signature on the top block
	// only.
	tipSigned
	// holding serves the real chain, but holds its first answer back
	// until a second request has arrived.
	holding
	// tampered serves the real headers, each over a body that does not
	// hash to it.
	tampered
)

type peerScript struct {
	kind peerKind
	arg  uint64
	// mangle, when set, rewrites each answer before it is sent.
	mangle func(req fetchRequest, resp *fetchResponse)
}

// syncWorld is a blockSync client over an in-proc network of scripted
// peers, recording every request each peer receives.
type syncWorld struct {
	sync         *blockSync
	net          *transport.InProcNetwork
	real, forged []*fabric.Block
	registry     *cryptoutil.Registry

	mu    sync.Mutex
	asked [][]fetchRequest // per peer, in arrival order
}

// asks describes the requests peer i received for a fetch of [from, to):
// "full" for a window of a full copy, "tip" for the header and signatures
// of block to-1 alone, "sigs" for any other envelope-stripped window.
func (w *syncWorld) asks(i int, to uint64) string {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []string
	for _, q := range w.asked[i] {
		switch {
		case !q.SigsOnly:
			out = append(out, "full")
		case q.From == to-1 && q.To == to:
			out = append(out, "tip")
		default:
			out = append(out, "sigs")
		}
	}
	return strings.Join(out, " ")
}

func mkChain(n int, tag string) []*fabric.Block {
	chain := make([]*fabric.Block, n)
	var prev cryptoutil.Digest
	for i := range chain {
		chain[i] = fabric.NewBlock(uint64(i), prev, [][]byte{[]byte(fmt.Sprintf("%s-%d", tag, i))})
		prev = chain[i].Header.Hash()
	}
	return chain
}

func newSyncWorld(t *testing.T, scripts []peerScript, height int, withRegistry bool) *syncWorld {
	t.Helper()
	net := transport.NewInProcNetwork(transport.InProcConfig{})
	t.Cleanup(func() { net.Close() })
	w := &syncWorld{
		net:      net,
		real:     mkChain(height, "real"),
		forged:   mkChain(height, "forged"),
		registry: cryptoutil.NewRegistry(),
		asked:    make([][]fetchRequest, len(scripts)),
	}
	forgedTop := fabric.NewBlock(uint64(height-1), w.real[height-2].Header.Hash(), [][]byte{[]byte("forged-top")})

	peers := make([]transport.Addr, len(scripts))
	conns := make([]transport.Conn, len(scripts))
	keys := make([]*cryptoutil.KeyPair, len(scripts))
	for i := range scripts {
		peers[i] = transport.Addr(fmt.Sprintf("peer-%d", i))
		conn, err := net.Join(peers[i])
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = conn
		if keys[i], err = cryptoutil.GenerateKeyPair(); err != nil {
			t.Fatal(err)
		}
		w.registry.Register(string(peers[i]), keys[i].Public())
	}
	sign := func(signer int, b *fabric.Block) fabric.BlockSignature {
		sig, err := keys[signer].Sign(b.Header.Hash().Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return fabric.BlockSignature{SignerID: string(peers[signer]), Signature: sig}
	}
	for i, script := range scripts {
		chain := w.real
		switch script.kind {
		case forging:
			chain = w.forged
		case short:
			chain = w.real[:height-1]
		case splicing:
			chain = append(w.forged[:height-1:height-1], w.real[height-1])
		case tipForger:
			chain = append(w.real[:height-1:height-1], forgedTop)
		}
		// Each peer holds its own copy, carrying its own signature.
		own := make([]*fabric.Block, len(chain))
		for j, b := range chain {
			own[j] = &fabric.Block{Header: b.Header, Envelopes: b.Envelopes}
			if script.kind == tampered {
				own[j].Envelopes = [][]byte{[]byte(fmt.Sprintf("tampered-%d", j))}
			}
			top := j == len(chain)-1
			if script.kind != unsigned && (script.kind != tipSigned || top) {
				own[j].Signatures = []fabric.BlockSignature{sign(i, b)}
			}
			if script.kind == splicing && top {
				own[j].Signatures = append(own[j].Signatures, sign((i+1)%len(scripts), b))
			}
		}
		go func(i int, script peerScript) {
			var held []byte // a holding peer's first answer
			for m := range conns[i].Inbox() {
				req, err := unmarshalFetchRequest(m.Payload)
				if m.Type != MsgFetchRequest || err != nil {
					continue
				}
				w.mu.Lock()
				w.asked[i] = append(w.asked[i], req)
				requests := len(w.asked[i])
				w.mu.Unlock()
				if script.kind == silent {
					continue
				}
				if script.kind == proxied {
					conns[i+1].Send(m.From, MsgFetchResponse, forgedAnswer(w.forged, req))
					continue
				}
				resp := fetchResponse{ReqID: req.ReqID, From: req.From}
				if script.kind == pruned {
					resp.Floor = script.arg
				} else {
					from, to := req.From, min(req.To, uint64(len(own)))
					if from == fetchHeadProbe && len(own) > 0 {
						from, to = uint64(len(own))-1, uint64(len(own))
						resp.From = from
					}
					for n := from; n < to && n < from+maxFetchBlocks; n++ {
						b := own[n]
						if req.SigsOnly {
							b = &fabric.Block{Header: b.Header, Signatures: b.Signatures}
						}
						resp.Blocks = append(resp.Blocks, b.Marshal())
					}
				}
				if script.mangle != nil {
					script.mangle(req, &resp)
				}
				if script.kind == holding && requests == 1 {
					held = resp.marshal()
					continue
				}
				if held != nil {
					conns[i].Send(m.From, MsgFetchResponse, held)
					held = nil
				}
				conns[i].Send(m.From, MsgFetchResponse, resp.marshal())
			}
		}(i, script)
	}

	conn, err := net.Join("client")
	if err != nil {
		t.Fatal(err)
	}
	var registry *cryptoutil.Registry
	if withRegistry {
		registry = w.registry
	}
	f := (len(scripts) - 1) / 3
	w.sync = newBlockSync(conn, registry, func() ([]transport.Addr, int) { return peers, f })
	go func() {
		for m := range conn.Inbox() {
			if m.Type == MsgFetchResponse {
				w.sync.handleResponse(m.From, m.Payload)
			}
		}
	}()
	return w
}

// forgedAnswer builds the response a forger gives to someone else's
// request: unsigned forged blocks under the victim's request id.
func forgedAnswer(forged []*fabric.Block, req fetchRequest) []byte {
	resp := fetchResponse{ReqID: req.ReqID, From: req.From}
	for n := req.From; n < req.To && n < uint64(len(forged)); n++ {
		b := forged[n]
		if req.SigsOnly {
			b = &fabric.Block{Header: b.Header}
		}
		resp.Blocks = append(resp.Blocks, b.Marshal())
	}
	return resp.marshal()
}

// TestBlockSyncFetchRule drives the one fetch rule against scripted
// peers: which proof applies to which caller, and what each must reject.
func TestBlockSyncFetchRule(t *testing.T) {
	const height = 10
	type anchorKind int
	const (
		noAnchor anchorKind = iota
		realTop
		bogus
	)
	cases := []struct {
		name     string
		peers    []peerScript
		height   int // 0 = height
		registry bool
		anchor   anchorKind
		proof    bool
		from, to uint64 // to == 0 means the whole chain
		abort    time.Duration

		wantForged  bool
		wantErr     error  // errors.Is target
		wantFloor   uint64 // with wantErr == fabric.ErrPruned
		wantSigs    int    // distinct valid signatures on every block
		wantTipSigs int    // distinct valid signatures on the top block
		wantAsks    []string
		within      time.Duration
	}{
		{
			name:     "forged first responder loses to the honest candidate, result carries f+1 signatures",
			peers:    []peerScript{{kind: forging}, {kind: honest}, {kind: honest}, {kind: honest}},
			registry: true, proof: true, wantSigs: 2,
		},
		{
			name:     "f+1 forgers reach the signature threshold: the threshold is what protects",
			peers:    []peerScript{{kind: forging}, {kind: forging}, {kind: honest}, {kind: honest}},
			registry: true, proof: true, wantForged: true, wantSigs: 2,
		},
		{
			name:  "a response from the wrong sender cannot answer a pending request",
			peers: []peerScript{{kind: proxied}, {kind: forging}, {kind: honest}, {kind: honest}},
			// Copies count peers: were the proxied answer accepted, peers 0
			// and 1 would be two votes for the forged top.
		},
		{
			name:     "f+1 pruned answers are authoritative, smallest floor wins",
			peers:    []peerScript{{kind: pruned, arg: 7}, {kind: pruned, arg: 5}, {kind: honest}, {kind: honest}},
			registry: true, wantErr: fabric.ErrPruned, wantFloor: 5,
		},
		{
			name:     "f pruned answers are not",
			peers:    []peerScript{{kind: pruned, arg: 7}, {kind: honest}, {kind: honest}, {kind: honest}},
			registry: true, proof: true, wantSigs: 2,
		},
		{
			name:     "unsigned range: signatures fail, matching copies succeed",
			peers:    []peerScript{{kind: unsigned}, {kind: unsigned}, {kind: unsigned}, {kind: unsigned}},
			registry: true,
		},
		{
			name:     "unsigned range cannot satisfy a caller that needs proof",
			peers:    []peerScript{{kind: unsigned}, {kind: unsigned}, {kind: unsigned}, {kind: unsigned}},
			registry: true, proof: true, wantErr: ErrUnverifiedRange,
		},
		{
			name:     "unsigned range links into a back-fill's anchor",
			peers:    []peerScript{{kind: unsigned}, {kind: unsigned}, {kind: unsigned}, {kind: unsigned}},
			registry: true, anchor: realTop, proof: true,
		},
		{
			name:  "no keys, no anchor: f+1 copies, and a lone forger has one",
			peers: []peerScript{{kind: forging}, {kind: honest}, {kind: honest}, {kind: silent}},
		},
		{
			name:  "no keys and proof wanted: nothing can prove it",
			peers: []peerScript{{kind: honest}, {kind: honest}, {kind: honest}, {kind: honest}},
			proof: true, wantErr: ErrUnverifiedRange,
		},
		{
			name:   "anchored fetch takes the first copy that links, checks no signature",
			peers:  []peerScript{{kind: forging}, {kind: unsigned}, {kind: silent}, {kind: silent}},
			anchor: realTop, registry: true,
		},
		{
			name:   "anchored fetch rejects every range whose top does not hash to the anchor",
			peers:  []peerScript{{kind: honest}, {kind: honest}, {kind: honest}, {kind: honest}},
			anchor: bogus, wantErr: ErrFetchFailed,
		},
		{
			name:     "a peer without the top block is passed over",
			peers:    []peerScript{{kind: short}, {kind: honest}, {kind: honest}, {kind: honest}},
			registry: true, proof: true, wantSigs: 2,
		},
		{
			name:     "several windows, top window first",
			peers:    []peerScript{{kind: honest}, {kind: honest}, {kind: honest}, {kind: honest}},
			height:   2*maxFetchBlocks + 40,
			registry: true, proof: true, from: 3, wantSigs: 2,
		},
		{
			// f+1 peers that hold none of it end the fetch at once, before
			// the first pause between passes.
			name:     "a stop far beyond the chain fails without downloading it",
			peers:    []peerScript{{kind: honest}, {kind: honest}, {kind: honest}, {kind: honest}},
			registry: true, to: 1 << 62, wantErr: ErrFetchFailed, within: fetchRetryPolicy.Initial,
		},
		{
			name:     "done aborts within one window timeout",
			peers:    []peerScript{{kind: silent}, {kind: silent}, {kind: silent}, {kind: silent}},
			registry: true, abort: 100 * time.Millisecond, wantErr: ErrFetchFailed, within: fetchWindowTimeout,
		},
		// The request patterns below: a full copy of 200 blocks is seven
		// windows (six of windowBlocks and one of 8); a range of 10 is one.
		// Peer 1 (the f further peers) is asked for the top block together
		// with peer 0's full copy, before that copy is known to be good.
		{
			name:     "no proof kept: each further peer is asked for the top block once",
			peers:    []peerScript{{kind: honest}, {kind: honest}, {kind: honest}, {kind: honest}},
			height:   200,
			registry: true, wantTipSigs: 2,
			wantAsks: []string{"full full full full full full full", "tip", "", ""},
		},
		{
			name:     "no keys, no proof kept: copies are counted on the top block alone",
			peers:    []peerScript{{kind: honest}, {kind: honest}, {kind: honest}, {kind: honest}},
			height:   200,
			wantAsks: []string{"full full full full full full full", "tip", "", ""},
		},
		{
			// Peer 0's copy fails on the link, so the pass asks peer 1 for a
			// full copy after all; its early tip goes unused.
			name:     "a genuine top with f+1 signatures over a forged interior fails on the link",
			peers:    []peerScript{{kind: splicing}, {kind: honest}, {kind: honest}, {kind: honest}},
			registry: true, wantTipSigs: 2,
			wantAsks: []string{"full", "tip full", "tip", ""},
		},
		{
			name:     "a forged top over the genuine interior stays one signature short",
			peers:    []peerScript{{kind: tipForger}, {kind: honest}, {kind: honest}, {kind: honest}},
			registry: true, wantTipSigs: 2,
			wantAsks: []string{"full", "tip full", "tip", ""},
		},
		{
			name:     "a forged top cannot hide the honest version from a caller that keeps the proof",
			peers:    []peerScript{{kind: tipForger}, {kind: honest}, {kind: honest}, {kind: honest}},
			registry: true, proof: true, wantSigs: 2,
		},
		{
			// Peer 0's copy fails its data hashes as it lands, so the pass
			// asks peer 1 for a full copy after all.
			name:     "a body that does not hash to its header is rejected",
			peers:    []peerScript{{kind: tampered}, {kind: honest}, {kind: honest}, {kind: honest}},
			registry: true, wantTipSigs: 2,
			wantAsks: []string{"full", "tip full", "tip", ""},
		},
		{
			name:   "anchored fetch rejects a body that does not hash to its header",
			peers:  []peerScript{{kind: tampered}, {kind: tampered}, {kind: honest}, {kind: silent}},
			anchor: realTop, registry: true,
		},
		{
			name:     "signatures on the top block alone prove the range in the first pass",
			peers:    []peerScript{{kind: tipSigned}, {kind: tipSigned}, {kind: tipSigned}, {kind: tipSigned}},
			registry: true, wantTipSigs: 2,
			wantAsks: []string{"full", "tip", "", ""},
		},
		{
			name:     "signatures on the top block alone cannot satisfy a caller that keeps the proof",
			peers:    []peerScript{{kind: tipSigned}, {kind: tipSigned}, {kind: tipSigned}, {kind: tipSigned}},
			registry: true, proof: true, wantErr: ErrUnverifiedRange,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if tc.height == 0 {
				tc.height = height
			}
			if tc.to == 0 {
				tc.to = uint64(tc.height)
			}
			w := newSyncWorld(t, tc.peers, tc.height, tc.registry)
			var anchor *cryptoutil.Digest
			switch tc.anchor {
			case realTop:
				h := w.real[tc.to-1].Header.Hash()
				anchor = &h
			case bogus:
				anchor = &cryptoutil.Digest{1}
			}
			done := make(chan struct{})
			if tc.abort > 0 {
				time.AfterFunc(tc.abort, func() { close(done) })
			}
			start := time.Now()
			blocks, err := w.sync.fetch(done, "ch", tc.from, tc.to, anchor, tc.proof)
			if tc.within > 0 && time.Since(start) > tc.within {
				t.Errorf("fetch took %v, want under %v", time.Since(start), tc.within)
			}
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("fetch: %v, want %v", err, tc.wantErr)
				}
				var pe *fabric.PrunedError
				if errors.As(err, &pe) && pe.Floor != tc.wantFloor {
					t.Fatalf("pruned floor %d, want %d", pe.Floor, tc.wantFloor)
				}
				return
			}
			if err != nil {
				t.Fatalf("fetch: %v", err)
			}
			want := w.real
			if tc.wantForged {
				want = w.forged
			}
			if uint64(len(blocks)) != tc.to-tc.from {
				t.Fatalf("%d blocks for [%d,%d)", len(blocks), tc.from, tc.to)
			}
			for i, b := range blocks {
				digest := want[tc.from+uint64(i)].Header.Hash()
				if b.Header.Hash() != digest {
					t.Fatalf("block %d is not the expected copy", b.Header.Number)
				}
				if err := b.CheckIntegrity(); err != nil {
					t.Fatalf("block %d: %v", b.Header.Number, err)
				}
				signers := make(map[string]bool)
				for _, sig := range b.Signatures {
					if w.registry.Verify(sig.SignerID, digest.Bytes(), sig.Signature) {
						signers[sig.SignerID] = true
					}
				}
				if len(signers) < tc.wantSigs {
					t.Fatalf("block %d carries %d valid signatures, want >= %d", b.Header.Number, len(signers), tc.wantSigs)
				}
				if i == len(blocks)-1 && len(signers) < tc.wantTipSigs {
					t.Fatalf("top block %d carries %d valid signatures, want >= %d", b.Header.Number, len(signers), tc.wantTipSigs)
				}
			}
			for i, want := range tc.wantAsks {
				if got := w.asks(i, tc.to); got != want {
					t.Errorf("peer %d was asked for %q, want %q", i, got, want)
				}
			}
		})
	}
}

// TestBlockSyncHeadQuorum: the head probe trusts a block only once f+1
// peers nominate it, and asks f+1 peers at once.
func TestBlockSyncHeadQuorum(t *testing.T) {
	w := newSyncWorld(t, []peerScript{{kind: forging}, {kind: honest}, {kind: short}, {kind: honest}}, 6, false)
	head, err := w.sync.head(nil, "ch")
	if err != nil {
		t.Fatalf("head: %v", err)
	}
	if head.Header.Hash() != w.real[5].Header.Hash() {
		t.Fatalf("head is block %d, not the honest top", head.Header.Number)
	}
	w = newSyncWorld(t, []peerScript{{kind: forging}, {kind: honest}, {kind: short}, {kind: silent}}, 6, false)
	if _, err := w.sync.head(nil, "ch"); !errors.Is(err, ErrFetchFailed) {
		t.Fatalf("head with no two peers agreeing: %v, want ErrFetchFailed", err)
	}
	// With every hop 100 ms, f+1 agreeing nominations cost one round trip.
	w = newSyncWorld(t, []peerScript{{kind: honest}, {kind: honest}, {kind: honest}, {kind: honest}}, 6, false)
	w.net.SetLatency(transport.FixedLatency(100 * time.Millisecond))
	start := time.Now()
	if _, err := w.sync.head(nil, "ch"); err != nil {
		t.Fatalf("head: %v", err)
	}
	if took := time.Since(start); took >= 300*time.Millisecond {
		t.Fatalf("head took %v, want one 200 ms round trip", took)
	}
}

// TestBlockSyncAsksTheNextWindowBeforeTheFirstLands: a peer that answers
// nothing until a second request is outstanding still serves a
// multi-window copy, because the requester asks for the next windows
// while the first is on the wire instead of after it landed.
func TestBlockSyncAsksTheNextWindowBeforeTheFirstLands(t *testing.T) {
	const height = 3*windowBlocks + 4
	w := newSyncWorld(t, []peerScript{{kind: holding}, {kind: honest}, {kind: honest}, {kind: honest}}, height, true)
	blocks, err := w.sync.fromPeer("peer-0", "ch", 0, height, false, nil)
	if err != nil {
		t.Fatalf("fromPeer: %v", err)
	}
	if err := fabric.VerifyRange(blocks, 0, height, w.real[height-1].Header.Hash()); err != nil {
		t.Fatalf("assembled copy: %v", err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, q := range w.asked[0] { // top window first, then downwards
		if want := uint64(height - (i+1)*windowBlocks); i < 3 && q.From != want {
			t.Errorf("request %d asks from block %d, want %d", i, q.From, want)
		}
	}
}

// TestBlockSyncFarStopCostsAtMostFourRequests: windows are made as earlier
// ones land, so a copy whose stop lies 2^40 blocks beyond the peer's chain
// costs that peer at most windowsInFlight requests and the requester no
// memory by the range's length.
func TestBlockSyncFarStopCostsAtMostFourRequests(t *testing.T) {
	const height = 10
	w := newSyncWorld(t, []peerScript{{kind: honest}, {kind: honest}, {kind: honest}, {kind: honest}}, height, true)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := w.sync.fromPeer("peer-0", "ch", 0, height+1<<40, false, nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("fromPeer served a range beyond the peer's chain")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("fromPeer allocated %d bytes", alloc)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if n := len(w.asked[0]); n > windowsInFlight {
		t.Errorf("peer 0 was sent %d requests, want at most %d", n, windowsInFlight)
	}
}

// TestBlockSyncCancelledReplayLeavesNothing: cancelling a Deliver stream
// in the middle of a fetch unregisters every pending request and ends
// every goroutine the fetch started, well within one window timeout.
func TestBlockSyncCancelledReplayLeavesNothing(t *testing.T) {
	net := transport.NewInProcNetwork(transport.InProcConfig{})
	defer net.Close()
	newFakeNodes(t, net, 4, nil) // never answer: every window stays on the wire
	fe, err := NewFrontend(FrontendConfig{ID: "fe", Replicas: ids4()}, net)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	defer fe.Close()
	pending := func() int {
		fe.sync.mu.Lock()
		defer fe.sync.mu.Unlock()
		return len(fe.sync.pending)
	}
	goroutines := runtime.NumGoroutine()

	stream, err := fe.Deliver("ch", fabric.DeliverFrom(0).Through(10*windowBlocks-1))
	if err != nil {
		t.Fatalf("deliver: %v", err)
	}
	// Peer 0's windows and peer 1's request for the top block.
	waitUntil(t, fetchWindowTimeout/4, func() bool { return pending() == windowsInFlight+1 })
	stream.Cancel()
	waitUntil(t, fetchWindowTimeout/4, func() bool {
		return pending() == 0 && runtime.NumGoroutine() <= goroutines
	})
}

// waitUntil polls cond until it holds, failing the test after within.
func waitUntil(t *testing.T, within time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition not reached within %v", within)
		}
		time.Sleep(time.Millisecond)
	}
}

// FuzzFetchWindows drives fetch against four scripted peers — honest,
// forging, forging the top block or unsigned, as the input chooses — each
// of whose answers the input may rewrite: cut short, reversed, shifted,
// pruned, one block longer than asked, or with a block's bytes replaced or
// one of them flipped. The caller's anchor, proof and range come from the
// input too. Every request is answered, so no wait may reach its timeout.
// Properties: no panic; fetch returns within one window timeout; and it
// either fails or returns exactly [from, to), hash-linked into its anchor —
// the caller's, or else its own top — with, for a caller that keeps the
// proof and has no anchor, f+1 valid signatures on every block.
func FuzzFetchWindows(f *testing.F) {
	const height = 2*windowBlocks + 6
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		mode, kinds, script := in[0], in[1], in[2:]
		scripts := make([]peerScript, 4)
		for i := range scripts {
			scripts[i] = peerScript{
				kind:   [...]peerKind{honest, forging, tipForger, unsigned}[kinds>>(2*i)&3],
				mangle: fuzzMangle(i, script),
			}
		}
		w := newSyncWorld(t, scripts, height, true)
		from, to := uint64(mode>>2)%height, uint64(height)
		var anchor *cryptoutil.Digest
		if mode&1 != 0 {
			h := w.real[to-1].Header.Hash()
			anchor = &h
		}
		proof := mode&2 != 0

		start := time.Now()
		blocks, err := w.sync.fetch(nil, "ch", from, to, anchor, proof)
		if took := time.Since(start); took > fetchWindowTimeout {
			t.Fatalf("fetch took %v", took)
		}
		if err != nil {
			return
		}
		if len(blocks) == 0 {
			t.Fatalf("fetch of %d..%d returned no blocks and no error", from, to-1)
		}
		want := blocks[len(blocks)-1].Header.Hash()
		if anchor != nil {
			want = *anchor
		}
		if err := fabric.VerifyRange(blocks, from, to, want); err != nil {
			t.Fatalf("fetch returned a range that fails its proof: %v", err)
		}
		if proof && anchor == nil {
			for _, b := range blocks {
				if n := b.VerifySignatures(w.registry); n < 2 {
					t.Fatalf("block %d carries %d valid signatures, want 2", b.Header.Number, n)
				}
			}
		}
	})
}

// fuzzMangle returns peer i's rewrite of its answers. Which rewrite, if
// any, is read from script at a place the request determines, so an input
// replays the same way whatever order the requests arrive in.
func fuzzMangle(i int, script []byte) func(fetchRequest, *fetchResponse) {
	return func(req fetchRequest, resp *fetchResponse) {
		if len(script) == 0 {
			return
		}
		h := (uint64(i)+1)*0x9e3779b97f4a7c15 ^ req.From*0xbf58476d1ce4e5b9 ^ req.To*0x94d049bb133111eb
		if req.SigsOnly {
			h = ^h
		}
		at := int(h % uint64(len(script)))
		op, arg := script[at], int(script[(at+1)%len(script)])
		n := len(resp.Blocks)
		switch op % 8 {
		case 1: // a short run
			resp.Blocks = resp.Blocks[:arg%(n+1)]
		case 2: // out of order
			slices.Reverse(resp.Blocks)
		case 3: // from a neighbouring block
			resp.From += uint64(arg%3) - 1
		case 4: // arbitrary bytes for a block
			if n > 0 {
				resp.Blocks[arg%n] = script[at:]
			}
		case 5: // one block more than asked
			resp.Blocks = append(resp.Blocks, script[at:])
		case 6: // pruned
			resp.Blocks, resp.Floor = nil, req.From+uint64(arg%4)
		case 7: // one byte of a block flipped
			if n > 0 {
				b := resp.Blocks[arg%n]
				b[(arg*131)%len(b)] ^= 1 << (arg % 8)
			}
		}
	}
}
