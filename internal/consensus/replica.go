package consensus

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Application is the replicated state machine driven by a replica. The
// ordering service's implementation turns ordered envelopes into signed
// blocks; tests use simple counter/log applications.
//
// All methods are invoked from the replica's event loop, never concurrently.
type Application interface {
	// Execute delivers the totally ordered operations of decided consensus
	// instance seq. No later call undoes it. ops is valid only during the
	// call (the replica reuses it for the next instance); its entries are
	// views the application may keep.
	Execute(seq int64, ops [][]byte)
	// Snapshot serializes the application state after the last Execute.
	Snapshot() []byte
	// Restore replaces the application state with a snapshot taken at seq.
	Restore(snapshot []byte, seq int64)
}

// Cutter is an optional capability of an Application whose output comes in
// units of several operations, as the ordering service's blocks do. It lets
// the leader propose the request that completes a unit without waiting for
// the open instance to be delivered (see proposeDue). The answer only
// schedules proposals: a wrong one costs an instance or a wait, never the
// order.
type Cutter interface {
	// OpsToCut reports how many more operations complete the next output
	// unit once inflight further entries — proposed and not yet executed —
	// have executed: 0 when those already complete one (or the application
	// cannot tell). It is called on the event loop and must not allocate.
	OpsToCut(inflight int) int
}

// Behavior injects Byzantine faults for testing. The zero value is honest.
type Behavior struct {
	// Mute drops every outgoing protocol message (fail-silent).
	Mute bool
	// CorruptPropose makes the leader propose a batch that does not read.
	CorruptPropose bool
	// Equivocate makes the leader send conflicting proposals to different
	// replicas.
	Equivocate bool
}

// Option customizes a replica.
type Option func(*Replica)

// WithoutClientReplies does nothing: replicas send clients no replies (the
// ordering service returns blocks instead, Section 5.1).
//
// Deprecated: drop the call; the option is to be removed.
func WithoutClientReplies() Option {
	return func(*Replica) {}
}

// WithCheckpointObserver registers a callback invoked on the event loop each
// time the replica takes a checkpoint at seq (before any log truncation the
// durability backend performs for it). The ordering layer uses it to record
// which blocks a checkpoint implies, so that checkpoint persistence can be
// gated on those blocks being durable.
func WithCheckpointObserver(f func(seq int64)) Option {
	return func(r *Replica) { r.ckptObserver = f }
}

// WithMembershipObserver registers a callback invoked on the event loop each
// time the membership epoch advances (an ordered ReconfigOp was applied, or
// a recovered/transferred snapshot installed a newer view). The ordering
// layer uses it to persist the membership record so a node that crashes
// after applying a reconfig recovers into the new group, not its static
// config. The callback receives a private copy it may retain.
func WithMembershipObserver(f func(view MembershipView)) Option {
	return func(r *Replica) { r.membershipObserver = f }
}

// WithExtraMessageHandler installs a handler for transport messages whose
// type the consensus layer does not own (anything >= 64). The ordering node
// uses it to accept frontend registrations on the replica's endpoint. The
// handler runs on the event loop and must not block.
func WithExtraMessageHandler(h func(transport.Message)) Option {
	return func(r *Replica) { r.extraHandler = h }
}

// maxPendingRequests bounds the request pool; beyond it new requests are
// dropped (the client retries). Keeps open-loop overload from exhausting
// memory.
const maxPendingRequests = 100_000

// instanceWindow bounds how far beyond the last delivered instance a
// replica participates; anything farther triggers state transfer instead.
const instanceWindow = 128

// stateGapThreshold is the lag (in instances) beyond which a replica stops
// trying to catch up vote-by-vote and requests a state transfer.
const stateGapThreshold = 64

// PipelineDepth bounds how many consensus instances a leader keeps open —
// proposed and not yet delivered — at once. Instances still execute strictly
// in sequence order; the window only lets the network steps of consecutive
// instances overlap, which is what a wide-area deployment needs (an instance
// takes several one-way delays; a request should not also wait out the
// previous instance). It is a constant, not a setting: how much of the
// window is actually used follows from the measured instance latency (see
// proposeDue). It is deep enough not to cap that: on the paper's WAN an
// instance takes about 50 batch timeouts, so about 50 stay open.
const PipelineDepth = 60

// The depth leans on two other constants; an edit that breaks either
// relation fails to compile (a negative constant does not convert to uint).
// A follower asks for state transfer when it sees a PROPOSE stateGapThreshold
// ahead of its delivery point, so a full window alone never sends a follower
// that merely decides a little later into state transfer; and votes are only
// counted within instanceWindow. The first relation does not keep every
// follower within stateGapThreshold: a quorum that leaves a slow follower out
// decides without it and the leader moves on. That is why onPropose still
// registers (and votes for) a PROPOSE anywhere within instanceWindow, and
// state transfer only runs beside it.
const (
	_ = uint(stateGapThreshold - 1 - PipelineDepth) // PipelineDepth < stateGapThreshold
	_ = uint(instanceWindow/2 - PipelineDepth)      // PipelineDepth <= instanceWindow/2
)

// tickInterval drives the paced PROPOSEs of an open window, request
// timeouts, state-transfer retries and sync-phase escalation. An idle leader
// does not wait for it: it proposes as soon as a request is pooled.
const tickInterval = 2 * time.Millisecond

// latencyWeight is the weight of a new sample in the instance-latency EWMA
// (1/8, the smoothing TCP uses for its round-trip estimate).
const latencyWeight = 8

// vote is one replica's WRITE or ACCEPT for a digest.
type vote struct {
	voter  ReplicaID
	digest cryptoutil.Digest
}

// inlineVoters is how many votes a tally holds inside its instance: every
// member of the paper's n = 3f+1 = 4 group. Larger groups spill to the heap.
const inlineVoters = 4

// tally is one kind of vote (WRITE or ACCEPT) of an instance, in the newest
// regency it has votes of: only the current regency's votes can form a
// quorum, and a replica's regency only grows. A voter counts once per
// regency (a second, different vote can only be a Byzantine replica's), so a
// tally never outgrows the membership.
type tally struct {
	regency int32
	votes   []vote // backed by inline until it outgrows it: a tally must not be copied
	inline  [inlineVoters]vote
}

// add records voter's vote for digest in regency.
func (t *tally) add(regency int32, voter ReplicaID, digest cryptoutil.Digest) {
	if t.votes == nil {
		t.votes = t.inline[:0]
	}
	if regency != t.regency {
		if regency < t.regency {
			return
		}
		t.regency, t.votes = regency, t.votes[:0]
	}
	for i := range t.votes {
		if t.votes[i].voter == voter {
			return
		}
	}
	t.votes = append(t.votes, vote{voter: voter, digest: digest})
}

// quorum returns the digest whose votes in regency weigh a quorum, if one
// does (two cannot: quorums intersect).
func (t *tally) quorum(regency int32, qt *quorumTracker) (cryptoutil.Digest, bool) {
	if t.regency != regency {
		return cryptoutil.Digest{}, false
	}
	for i := range t.votes {
		digest, weight := t.votes[i].digest, 0
		for j := range t.votes {
			if t.votes[j].digest == digest {
				if j < i {
					break // summed at the first vote for digest
				}
				weight += qt.weightOf(t.votes[j].voter)
			}
		}
		if weight >= qt.quorumWeight {
			return digest, true
		}
	}
	return cryptoutil.Digest{}, false
}

// emptied clears s and returns it with length 0 and its storage. Every
// reused slice of views is emptied before it is refilled, so it holds zero
// values past its length.
func emptied[S ~[]E, E any](s S) S {
	clear(s)
	return s[:0]
}

// sized returns s emptied and grown to length n, its storage reused when it
// holds n.
func sized[S ~[]E, E any](s S, n int) S {
	return slices.Grow(emptied(s), n)[:n]
}

// instance is the per-consensus-instance protocol state.
type instance struct {
	seq     int64
	regency int32 // regency of the registered proposal
	// reqs is the registered proposal's batch, nil until a proposal
	// registers. Collected by the leader or resolved by a follower, it is
	// held in store; registered from a SYNC, a state transfer or the
	// decision log, it is decoded from the message or record.
	reqs []request
	// store is storage for the batch, kept across seqs (see recycle). Its
	// operations are views (of request frames and PROPOSE payloads), never
	// bytes of its own, and it is emptied before it is reused: what it held
	// no longer pins the frames those views are into.
	store        []request
	digest       cryptoutil.Digest
	haveProposal bool
	writes       tally
	accepts      tally
	writeSent    bool
	acceptSent   bool
	// writeCertified is set once a WRITE quorum formed for certDigest; the
	// pair is the evidence carried through leader changes.
	writeCertified bool
	certDigest     cryptoutil.Digest
	certRegency    int32
	decided        bool
	decidedDigest  cryptoutil.Digest
	// proposedAt is when this replica, as leader of the current regency,
	// sent the instance's PROPOSE (zero otherwise): the start of the
	// instance-latency sample taken when the instance is delivered.
	proposedAt time.Time
	// parked is the payload of a PROPOSE of the current regency that named
	// requests this follower has not pooled, or pooled with other
	// operations than the leader's; parkedAt is when it arrived, and asked
	// is set once the leader was asked for its batch inline (see
	// onPropose). A payload is immutable, so the PROPOSE is decoded from it
	// again when it is retried, and parking one copies nothing.
	parked   []byte
	parkedAt time.Time
	asked    bool
	// answered lists the followers this leader sent the instance's batch
	// inline to: each gets it once.
	answered []ReplicaID
}

// recycle retires an instance a checkpoint covers, to be reused for a later
// seq (see Replica.instance). It drops what keeps the batch alive and
// nothing else: until it is reused it still reads as the decided instance
// it was, for a caller further up the stack that holds it. The store's
// views are cleared and its storage kept, for the proposal of the seq the
// instance serves next. A checkpoint retires an instance only once nothing
// else holds views of its store: its decision-log entry is deleted first,
// a parked PROPOSE is held as its own payload, and the batch an answer to
// a fetch carried was encoded when it was sent.
func (inst *instance) recycle() {
	inst.store = emptied(inst.store)
	inst.reqs = nil
	inst.parked, inst.answered = nil, nil
}

// reuse readies a recycled instance for seq, keeping only the storage of its
// tallies and of its batch.
func (inst *instance) reuse(seq int64) {
	writes, accepts, store := inst.writes.votes[:0], inst.accepts.votes[:0], inst.store
	*inst = instance{seq: seq, store: store}
	inst.writes.votes, inst.accepts.votes = writes, accepts
}

// proposalStore returns the storage a new proposal of the instance is
// collected or resolved into: the instance's own, unless a proposal of an
// earlier regency is registered there, which stays intact until the new one
// replaces it. The new one then gets storage a checkpoint does not keep.
func (inst *instance) proposalStore() *[]request {
	if inst.haveProposal {
		return new([]request)
	}
	return &inst.store
}

// register makes reqs the instance's proposal of regency.
func (inst *instance) register(regency int32, reqs []request, digest cryptoutil.Digest) {
	inst.reqs, inst.digest = reqs, digest
	inst.haveProposal, inst.regency = true, regency
}

// bufferedStopData holds a STOPDATA that arrived before this replica
// installed its regency.
type bufferedStopData struct {
	from ReplicaID
	msg  *stopDataMsg
}

// bufferedSync holds a SYNC that arrived before this replica installed its
// regency.
type bufferedSync struct {
	from ReplicaID
	msg  *syncMsg
}

// Stats is a snapshot of replica progress counters.
type Stats struct {
	Regency       int32
	Members       int32
	Epoch         uint64
	LastDelivered int64 // -1 until the first instance is delivered
	DeliveredOps  uint64
	// Decided counts the instances this replica holds as decided: by its
	// own ACCEPT quorum, from its decision log at recovery, or from a state
	// transfer's f+1 matching replies. Only a checkpoint jump delivers
	// instances it does not count.
	Decided       int64
	LeaderChanges int64
	DroppedReqs   uint64
	// OpenInstances is the leader's window occupancy: instances it proposed
	// that are not yet delivered (0 on a follower, at most PipelineDepth).
	OpenInstances int64
	// InstanceLatency is the leader's moving average of the time from its
	// PROPOSE to the instance's delivery, which is the clock its proposals
	// are paced by (0 on a follower and until a regency's first instance is
	// delivered).
	InstanceLatency time.Duration
	// ProposeFetches counts the PROPOSEs this follower asked the leader to
	// send again with its batch inline, because it could not resolve
	// their references from its pool.
	ProposeFetches uint64
}

// Replica is one member of the BFT-SMaRt replication group. Create with
// NewReplica, then Start. All protocol state is owned by the event-loop
// goroutine.
type Replica struct {
	cfg  Config
	app  Application
	conn transport.Conn
	// cutter is app's Cutter capability, nil when it has none.
	cutter Cutter

	membership []ReplicaID
	qt         *quorumTracker
	// addrs and ids map members to addresses and back (see publishMembership).
	addrs map[ReplicaID]transport.Addr
	ids   map[transport.Addr]ReplicaID
	// epoch counts ordered membership operations (every ReconfigOp bumps
	// it, including no-ops, so replicas that saw the op as a no-op — e.g. a
	// joiner whose static config already lists itself — stay in step with
	// the rest of the group). Event-loop owned; liveMembership mirrors it.
	epoch uint64
	// liveMembership is a lock-free snapshot of (epoch, members, f, weights)
	// readable from any goroutine, even before Start (Inspect would block).
	liveMembership atomic.Pointer[MembershipView]
	// membershipObserver, when set, is told about each membership epoch
	// transition on the event loop (see WithMembershipObserver).
	membershipObserver func(view MembershipView)

	// Normal-case protocol state.
	regency   int32
	instances map[int64]*instance
	// spare holds instances checkpoints retired, for reuse.
	spare []*instance
	// prop is the message every PROPOSE received, or retried from its
	// parked payload, is decoded into, its slices reused from one to the
	// next: what outlives the decode is resolved into its instance's
	// storage.
	prop *proposeMsg
	// ops is the operations buffer execute hands the application, emptied
	// after each call.
	ops          [][]byte
	lastProposed int64
	// lastDelivered is the one watermark: every instance up to it is
	// decided, logged, executed and kept in decidedLog (until a checkpoint
	// covers it), and none above it is executed.
	lastDelivered int64

	// Request pool and exact per-client at-most-once (see window.go). queue
	// lists the pooled requests in arrival order (and executed ones until it
	// is compacted); pending counts the pooled requests, and pooled those
	// that are not part of an open proposal — what the next batch can draw
	// on — so the scheduler decides without walking the queue. spilled
	// counts the requests pooled outside their client's window.
	clients map[string]*clientRecord
	queue   []queued
	pending int
	pooled  int
	spilled uint64

	// parked lists the instances with a parked PROPOSE, in the order they
	// were parked (an instance whose PROPOSE resolved since is skipped and
	// dropped by the next walk).
	parked []int64

	// lastProposeAt is when this leader's previous PROPOSE went out; with
	// instanceLatency (below, among the counters Stats reads) it paces the
	// next one (see proposeDue).
	lastProposeAt time.Time

	// Decision log and checkpointing (Section 5.2).
	decidedLog     map[int64][]request
	checkpointSeq  int64
	checkpointSnap []byte

	// Durable storage (optional): decisions are enqueued on the backend's
	// log, in order, before execution, and checkpoints persisted as
	// taken. durableSeq is the newest seq covered on disk or enqueued
	// for the log's next group commit (by log record or checkpoint).
	durable      Durability
	durableSeq   int64
	recoverState *DurableState
	// lastDecisionTok is the newest enqueued decision's durability token
	// (event-loop confined); logDecision polls it so a poisoned log is
	// reported from the loop, once.
	lastDecisionTok      DecisionToken
	durableFailureLogged bool
	// logged is the batch logDecision hands the backend: a field, so that
	// handing it over allocates nothing.
	logged Batch

	// Synchronization phase (leader change).
	syncInProgress bool
	syncStarted    time.Time
	// peerRegency tracks the highest regency observed per peer; f+1 peers
	// beyond ours prove the group moved on (a restarted replica catches
	// up to the current view this way).
	peerRegency    map[ReplicaID]int32
	stopVotes      map[int32]map[ReplicaID]struct{}
	stopSent       map[int32]bool
	stopData       map[ReplicaID]*stopDataMsg
	futureStopData []bufferedStopData
	futureSync     *bufferedSync

	// State transfer.
	fetching     bool
	fetchStarted time.Time
	stateReplies map[ReplicaID]*stateReplyMsg

	// extraHandler receives non-consensus messages (types >= 64).
	extraHandler func(transport.Message)

	// ckptObserver, when set, is told about each checkpoint taken (event
	// loop; see WithCheckpointObserver).
	ckptObserver func(seq int64)

	behavior atomic.Pointer[Behavior]

	// Progress counters (read by Stats from other goroutines).
	statRegency   atomic.Int32
	statLeader    atomic.Int32
	statMembers   atomic.Int32
	statDelivered atomic.Int64
	statOps       atomic.Uint64
	statDecided   atomic.Int64
	statLC        atomic.Int64
	statDropped   atomic.Uint64
	statOpen      atomic.Int64
	statFetches   atomic.Uint64
	// instanceLatency is the moving average of this leader's own
	// PROPOSE→delivery time, in nanoseconds; written on the event loop only.
	instanceLatency atomic.Int64

	started atomic.Bool
	done    chan struct{}
	wg      sync.WaitGroup

	// inspectCh runs closures on the event loop (race-free introspection
	// for tests and debugging).
	inspectCh chan func()
}

// NewReplica validates the configuration and creates a replica attached to
// the given transport endpoint.
func NewReplica(cfg Config, app Application, conn transport.Conn, opts ...Option) (*Replica, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if app == nil {
		return nil, fmt.Errorf("consensus: nil application")
	}
	if conn == nil {
		return nil, fmt.Errorf("consensus: nil transport connection")
	}
	membership := make([]ReplicaID, len(cfg.Replicas))
	copy(membership, cfg.Replicas)
	sort.Slice(membership, func(i, j int) bool { return membership[i] < membership[j] })

	r := &Replica{
		cfg:           cfg,
		app:           app,
		conn:          conn,
		membership:    membership,
		qt:            newQuorumTracker(membership, cfg.Weights, cfg.F),
		instances:     make(map[int64]*instance),
		prop:          new(proposeMsg),
		lastProposed:  -1,
		lastDelivered: -1,
		clients:       make(map[string]*clientRecord),
		decidedLog:    make(map[int64][]request),
		checkpointSeq: -1,
		durableSeq:    -1,
		peerRegency:   make(map[ReplicaID]int32),
		stopVotes:     make(map[int32]map[ReplicaID]struct{}),
		stopSent:      make(map[int32]bool),
		stopData:      make(map[ReplicaID]*stopDataMsg),
		stateReplies:  make(map[ReplicaID]*stateReplyMsg),
		done:          make(chan struct{}),
		inspectCh:     make(chan func()),
	}
	r.cutter, _ = app.(Cutter)
	r.behavior.Store(&Behavior{})
	r.statMembers.Store(int32(len(membership)))
	r.statDelivered.Store(-1) // nothing delivered, as lastDelivered says
	r.publishMembership()
	for _, opt := range opts {
		opt(r)
	}
	if r.recoverState != nil {
		st := r.recoverState
		r.recoverState = nil
		if err := r.restoreDurable(st); err != nil {
			return nil, err
		}
	}
	r.refreshLeaderStat()
	return r, nil
}

// ID returns the replica's identity.
func (r *Replica) ID() ReplicaID { return r.cfg.SelfID }

// SetBehavior installs a (possibly Byzantine) behavior. Safe to call while
// the replica runs.
func (r *Replica) SetBehavior(b Behavior) { r.behavior.Store(&b) }

// refreshLeaderStat publishes the current leader for CurrentLeader. Called
// from the event loop (or before Start) whenever regency or membership
// changes.
func (r *Replica) refreshLeaderStat() {
	r.statLeader.Store(int32(r.leaderOf(r.regency)))
}

// CurrentLeader returns the id of the leader of the replica's current
// regency. Safe to call from any goroutine; the chaos invariants use it to
// observe leader changes without stopping the replica.
func (r *Replica) CurrentLeader() ReplicaID {
	return ReplicaID(r.statLeader.Load())
}

// Stats returns progress counters. Safe to call from any goroutine.
func (r *Replica) Stats() Stats {
	view := r.MembershipView()
	return Stats{
		Regency:       r.statRegency.Load(),
		Members:       r.statMembers.Load(),
		Epoch:         view.Epoch,
		LastDelivered: r.statDelivered.Load(),
		DeliveredOps:  r.statOps.Load(),
		Decided:       r.statDecided.Load(),
		LeaderChanges: r.statLC.Load(),
		DroppedReqs:   r.statDropped.Load(),

		OpenInstances:   r.statOpen.Load(),
		InstanceLatency: time.Duration(r.instanceLatency.Load()),
		ProposeFetches:  r.statFetches.Load(),
	}
}

// Start launches the event loop. It must be called exactly once.
func (r *Replica) Start() {
	if r.started.Swap(true) {
		return
	}
	r.wg.Add(1)
	go r.run()
}

// Stop terminates the event loop and waits for it to exit. The transport
// connection is left open (the caller owns it).
func (r *Replica) Stop() {
	if !r.started.Load() {
		return
	}
	select {
	case <-r.done:
		return // already stopped
	default:
	}
	close(r.done)
	r.wg.Wait()
}

func (r *Replica) run() {
	defer r.wg.Done()
	ticker := time.NewTicker(tickInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.done:
			return
		case m, ok := <-r.conn.Inbox():
			if !ok {
				return
			}
			r.dispatch(m)
		case f := <-r.inspectCh:
			f()
		case <-ticker.C:
			r.onTick()
		}
	}
}

// DebugSnapshot renders a replica's protocol state for diagnostics.
func DebugSnapshot(r *Replica) string {
	out := "stopped"
	r.Inspect(func() { out = r.debugState() })
	return out
}

// debugState is DebugSnapshot's text, read on the event loop.
func (r *Replica) debugState() string {
	next := r.lastDelivered + 1
	instInfo := "none"
	if inst, ok := r.instances[next]; ok {
		instInfo = fmt.Sprintf("prop=%v writeSent=%v acceptSent=%v cert=%v decided=%v writes=%d accepts=%d",
			inst.haveProposal, inst.writeSent, inst.acceptSent,
			inst.writeCertified, inst.decided, len(inst.writes.votes), len(inst.accepts.votes))
	}
	parked := 0
	for _, seq := range r.parked {
		if inst, ok := r.instances[seq]; ok && inst.parked != nil {
			parked++
		}
	}
	pooling := 0
	for _, c := range r.clients {
		if c.pending() > 0 {
			pooling++
		}
	}
	return fmt.Sprintf("regency=%d pending=%d pooled=%d queue=%d clients=%d spilled=%d lastProposed=%d lastDelivered=%d sync=%v fetch=%v parked=%d fetches=%d inst[%d]: %s",
		r.regency, r.pending, r.pooled, len(r.queue), pooling, r.spilled, r.lastProposed,
		r.lastDelivered, r.syncInProgress, r.fetching, parked,
		r.statFetches.Load(), next, instInfo)
}

// Inspect runs f on the event-loop goroutine and waits for it to complete,
// giving race-free access to protocol state. It returns false if the
// replica is stopped.
func (r *Replica) Inspect(f func()) bool {
	donech := make(chan struct{})
	select {
	case r.inspectCh <- func() { f(); close(donech) }:
		<-donech
		return true
	case <-r.done:
		return false
	}
}

// dispatch routes one transport message to its protocol handler.
func (r *Replica) dispatch(m transport.Message) {
	if m.Type >= 64 {
		if r.extraHandler != nil {
			r.extraHandler(m)
		}
		return
	}
	from, isReplica := r.senderID(m.From)
	switch m.Type {
	case msgRequest:
		r.onRequests(m.From, m.Payload)
	case msgPropose:
		if !isReplica {
			return
		}
		if err := unmarshalPropose(m.Payload, r.prop, r.cfg.BatchSize); err == nil {
			r.onPropose(from, r.prop, nil)
		}
	case msgProposeFetch:
		if !isReplica {
			return
		}
		if fm, err := unmarshalProposeFetch(m.Payload); err == nil {
			r.onProposeFetch(from, fm)
		}
	case msgWrite:
		if !isReplica {
			return
		}
		if vm, err := unmarshalVote(m.Payload); err == nil {
			r.onVote(from, vm, true)
		}
	case msgAccept:
		if !isReplica {
			return
		}
		if vm, err := unmarshalVote(m.Payload); err == nil {
			r.onVote(from, vm, false)
		}
	case msgStop:
		if !isReplica {
			return
		}
		if sm, err := unmarshalStop(m.Payload); err == nil {
			r.onStop(from, sm)
		}
	case msgStopData:
		if !isReplica {
			return
		}
		if sd, err := unmarshalStopData(m.Payload); err == nil {
			r.onStopData(from, sd)
		}
	case msgSync:
		if !isReplica {
			return
		}
		if sy, err := unmarshalSync(m.Payload); err == nil {
			r.onSync(from, sy)
		}
	case msgStateRequest:
		if !isReplica {
			return
		}
		if sr, err := unmarshalStateRequest(m.Payload); err == nil {
			r.onStateRequest(from, sr)
		}
	case msgStateReply:
		if !isReplica {
			return
		}
		if sp, err := unmarshalStateReply(m.Payload); err == nil {
			r.onStateReply(from, sp)
		}
	}
}

// senderID resolves a transport address to a member replica id.
func (r *Replica) senderID(addr transport.Addr) (ReplicaID, bool) {
	id, ok := r.ids[addr]
	return id, ok
}

func (r *Replica) leaderOf(regency int32) ReplicaID {
	n := int32(len(r.membership))
	idx := regency % n
	if idx < 0 {
		idx += n
	}
	return r.membership[idx]
}

func (r *Replica) isLeader() bool {
	return r.leaderOf(r.regency) == r.cfg.SelfID
}

// broadcast sends a protocol message to every other member and then
// processes it locally (self-delivery without touching the network).
func (r *Replica) broadcast(msgType uint16, payload []byte) {
	r.multicast(msgType, payload)
	r.sendTo(r.cfg.SelfID, msgType, payload)
}

// multicast sends a protocol message to every other member.
func (r *Replica) multicast(msgType uint16, payload []byte) {
	if r.behavior.Load().Mute {
		return
	}
	for _, id := range r.membership {
		if id != r.cfg.SelfID {
			r.conn.Send(r.addrs[id], msgType, payload)
		}
	}
}

// sendTo sends a protocol message to one member (or processes it locally).
func (r *Replica) sendTo(id ReplicaID, msgType uint16, payload []byte) {
	addr := r.addrs[id]
	if id == r.cfg.SelfID {
		r.dispatch(transport.Message{From: addr, To: addr, Type: msgType, Payload: payload})
		return
	}
	if r.behavior.Load().Mute {
		return
	}
	r.conn.Send(addr, msgType, payload)
}

// ---- Request handling ------------------------------------------------

// onRequests pools the requests of one frame (see EncodeRequest), each
// operation as a view of the frame. The parked PROPOSEs are retried and the
// proposal rule runs once the whole frame is pooled, so an idle leader's
// next PROPOSE carries all of it. A frame pools only whole, and only under
// the client that sent it: one that names another client, or does not read
// as exactly one run, pools nothing, so an endpoint can neither take
// another client's sequence numbers nor move its dedup floor. The client's
// record is looked up once per frame.
func (r *Replica) onRequests(from transport.Addr, frame []byte) {
	rd := wire.NewReader(frame)
	rn, err := readRun(rd, false, 0)
	if err != nil || rd.Finish() != nil || string(rn.client) != string(from) {
		return
	}
	now, pooled := time.Now(), false
	rec := r.clients[string(rn.client)]
	ops := wire.NewReader(rn.ops)
	for i := 0; i < rn.n; i++ {
		op := ops.Bytes()
		seq := rn.first + uint64(i)
		if seq == 0 || rec != nil && (rec.contains(seq) || rec.find(seq) != nil) {
			continue // already executed (0 is below every floor), or a duplicate
		}
		if r.pending >= maxPendingRequests {
			r.statDropped.Add(1)
			continue
		}
		if rec == nil {
			rec = r.record(string(rn.client))
		}
		r.pool(rec, pendingReq{req: request{ClientID: rec.client, Seq: seq, Op: op}, arrived: now})
		pooled = true
	}
	if pooled {
		r.retryParked()
		r.maybePropose(now)
	}
}

// releaseInFlight ends a regency's proposal state: every request of an open
// proposal returns to the pool (the new leader re-runs the instances from
// certificates, or from fresh batches), the request-timeout clocks restart
// so the new leader gets a full RequestTimeout before being indicted in
// turn, and the self-clock forgets the old leader's instance latency.
func (r *Replica) releaseInFlight() {
	now := time.Now()
	r.eachPooled(func(p *pendingReq) {
		p.inFlight = false
		p.arrived = now
	})
	r.pooled = r.pending
	for _, inst := range r.instances {
		inst.proposedAt = time.Time{}
	}
	r.dropParked()
	r.instanceLatency.Store(0)
	r.publishWindow()
}

// openInstances is the leader's window occupancy: instances proposed and
// not yet delivered.
func (r *Replica) openInstances() int64 {
	if open := r.lastProposed - r.lastDelivered; open > 0 {
		return open
	}
	return 0
}

// publishWindow refreshes the OpenInstances gauge after either end of the
// window moved.
func (r *Replica) publishWindow() {
	open := int64(0)
	if r.isLeader() {
		open = r.openInstances()
	}
	r.statOpen.Store(open)
}

// proposeDue is the one scheduling rule: whether the leader opens the next
// consensus instance now. It is evaluated on every request arrival, every
// delivery and every tick, and reads counters only — the queue is walked
// after the answer is yes.
//
// With nothing open, whatever is pooled goes at once, as BFT-SMaRt's leader
// starts the next consensus as soon as the previous one ended and a request
// is pending: requests that arrive while an instance runs form the next
// batch.
//
// With instances open, the leader overlaps as many as the measured latency
// warrants: k = min(PipelineDepth, L/BatchTimeout), L being its moving
// average of the time from PROPOSE to delivery. Below k open instances a
// full batch goes at once, and a partial batch once L/k has passed since
// the previous PROPOSE (never less than BatchTimeout, then). Opening the
// window without that clock only clumps: all instances leave together,
// decide together, and the first one has taken every pooled request.
//
// That makes the behaviour a function of the link, not of a setting. Where
// an instance is delivered within two batch timeouts (a LAN), and until a
// regency's first instance has been delivered at all, k is at most 1:
// instances never overlap and batches are as large as with one instance at
// a time — with one exception, see completesUnit. Where delivery takes
// hundreds of milliseconds (a WAN) about L/BatchTimeout instances stay
// evenly spaced in flight, one BatchTimeout or a little more apart, and a
// request no longer waits for the previous instance to decide.
func (r *Replica) proposeDue(now time.Time) bool {
	if r.pooled == 0 || r.syncInProgress || r.fetching || !r.isLeader() {
		return false
	}
	open := r.openInstances()
	if open == 0 {
		return true
	}
	latency := time.Duration(r.instanceLatency.Load())
	k := min(int64(latency/r.cfg.BatchTimeout), PipelineDepth)
	if open >= k {
		return open == 1 && r.completesUnit()
	}
	return r.pooled >= r.cfg.BatchSize || now.Sub(r.lastProposeAt) >= latency/time.Duration(k)
}

// completesUnit is the exception to one instance at a time: whether the
// pool holds the requests that complete the application's next output unit
// (a block) while the one open instance does not already complete one.
// Those requests go at once: the unit is released only once its last
// request is delivered, and waiting for the open instance would add its
// whole latency to every request of the unit. An instance that completes a
// unit is not joined by another, so at saturation, where every instance
// completes one, nothing changes; an Application without the Cutter
// capability keeps one instance at a time.
func (r *Replica) completesUnit() bool {
	if r.cutter == nil {
		return false
	}
	inst, ok := r.instances[r.lastProposed]
	if !ok {
		return false
	}
	need := r.cutter.OpsToCut(len(inst.reqs))
	return need > 0 && r.pooled >= need
}

// maybePropose opens the next consensus instance if one is due.
func (r *Replica) maybePropose(now time.Time) {
	if !r.proposeDue(now) {
		return
	}
	// State transfer moves the delivery point, not lastProposed: numbering
	// from lastProposed alone would propose an instance already delivered,
	// which every replica drops as stale, stranding its batch in flight.
	seq := max(r.lastProposed, r.lastDelivered) + 1
	inst := r.instance(seq)
	reqs := r.collectBatch(inst.proposalStore())
	r.lastProposed = seq
	r.lastProposeAt = now
	inst.proposedAt = now
	r.publishWindow()
	r.propose(seq, reqs)
}

// collectBatch takes up to BatchSize pooled requests, in arrival order,
// into a proposal held in into (marking them in flight). It also compacts
// the arrival queue.
func (r *Replica) collectBatch(into *[]request) []request {
	size := r.pooled
	if size > r.cfg.BatchSize {
		size = r.cfg.BatchSize
	}
	reqs := slices.Grow(emptied(*into), size)
	compacted := r.queue[:0]
	for _, q := range r.queue {
		p := q.find()
		if p == nil {
			continue // executed or dropped
		}
		compacted = append(compacted, q)
		if !p.inFlight && len(reqs) < size {
			p.inFlight = true
			reqs = append(reqs, p.req)
		}
	}
	clear(r.queue[len(compacted):])
	r.queue = compacted
	r.pooled -= len(reqs)
	*into = reqs
	return reqs
}

func (r *Replica) propose(seq int64, reqs []request) {
	b := r.behavior.Load()
	pm := &proposeMsg{Regency: r.regency, Seq: seq, Digest: batchDigest(seq, reqs), Batch: reqs}
	if b.CorruptPropose {
		// A batch cut short: every replica refuses the PROPOSE at decode.
		payload := pm.marshal()
		r.multicast(msgPropose, payload[:len(payload)-1])
		return
	}
	if b.Equivocate {
		// Split the other replicas between two conflicting batches so
		// that neither digest can reach a WRITE quorum (the leader's own
		// vote plus a minority is below ceil((n+f+1)/2)): honest replicas
		// time out and run the synchronization phase.
		half := len(reqs) / 2
		alt := &proposeMsg{Regency: r.regency, Seq: seq, Digest: batchDigest(seq, reqs[:half]), Batch: reqs[:half]}
		payload, altPayload := pm.marshalRefs(), alt.marshalRefs()
		sent := 0
		for _, id := range r.membership {
			if id == r.cfg.SelfID {
				continue
			}
			p := payload
			if sent < len(r.membership)/2 {
				p = altPayload
			}
			sent++
			r.conn.Send(r.addrs[id], msgPropose, p)
		}
	} else {
		// Every request travels as a reference: the followers pooled it too.
		r.multicast(msgPropose, pm.marshalRefs())
	}
	// The leader's own copy skips the wire: it is the pooled requests.
	r.onPropose(r.cfg.SelfID, pm, reqs)
}

// ---- Normal-case consensus -------------------------------------------

// admitPropose is the one admission rule for a PROPOSE, whatever form its
// runs take: from the leader of this replica's regency, outside a
// synchronization phase, for an instance not yet delivered and at most
// instanceWindow ahead. A PROPOSE is checked before its references are
// resolved, so one that cannot be resolved is parked only if it would have
// been registered.
//
// There are two thresholds because they answer two questions.
// stateGapThreshold is how far behind a replica may fall before it stops
// catching up vote by vote and asks for state transfer; instanceWindow is
// how far ahead it still registers proposals and counts votes. Between the
// two it does both: the leader sends a PROPOSE once, so one dropped there
// would strand its instance until a leader change
// (TestProposeBeyondStateGapIsNotStranded), and a follower that clients do
// not yet send to — a joiner — learns here that it is behind. One threshold
// at 64 drops those PROPOSEs; one at 128 leaves a lagging replica waiting
// for votes twice as long before it asks for the state it lacks.
func (r *Replica) admitPropose(from ReplicaID, regency int32, seq int64) bool {
	r.noteRegency(from, regency)
	if r.syncInProgress || regency != r.regency || r.leaderOf(regency) != from {
		return false
	}
	if seq <= r.lastDelivered {
		return false // stale
	}
	if seq > r.lastDelivered+stateGapThreshold {
		r.requestStateTransfer()
	}
	return seq <= r.lastDelivered+instanceWindow
}

// onPropose handles a PROPOSE. reqs is m's batch when the caller has that:
// the leader's own PROPOSE, whose Digest it computed. Otherwise the runs
// are resolved from the pool into the instance's storage (see resolve), and
// a PROPOSE that cannot be resolved yet is parked on its instance (see
// unresolved).
func (r *Replica) onPropose(from ReplicaID, m *proposeMsg, reqs []request) {
	if !r.admitPropose(from, m.Regency, m.Seq) {
		return
	}
	inst := r.instance(m.Seq)
	if inst.haveProposal && inst.regency == m.Regency {
		return // first proposal wins within a regency (equivocation defense)
	}
	digest := m.Digest
	if reqs == nil {
		into := inst.proposalStore()
		var st resolution
		if digest, st = r.resolve(m, into); st != resolved {
			r.unresolved(inst, m, st)
			return
		}
		reqs = *into
		inst.parked = nil
	}
	if !r.validateBatch(reqs) {
		return // malformed proposal: refuse to WRITE; timeout handles the leader
	}
	if inst.decided {
		r.adoptParked(inst, m.Regency, reqs, digest)
		return
	}
	if inst.haveProposal && inst.regency != m.Regency {
		// The instance restarts under a new regency: vote flags reset so
		// this replica WRITEs for the re-proposed value.
		inst.writeSent = false
		inst.acceptSent = false
	}
	inst.register(m.Regency, reqs, digest)

	if !inst.writeSent {
		inst.writeSent = true
		vm := &voteMsg{Regency: r.regency, Seq: inst.seq, Digest: inst.digest}
		r.broadcast(msgWrite, vm.marshal())
	}
	r.checkQuorums(inst)
}

// adoptParked registers the proposal of an instance its peers decided while
// the proposal waited here for its requests, and delivers it, if it is the
// decided value. If it is not, only the peers have the decided batch.
func (r *Replica) adoptParked(inst *instance, regency int32, reqs []request, digest cryptoutil.Digest) {
	if inst.haveProposal {
		return
	}
	if digest != inst.decidedDigest {
		r.requestStateTransfer()
		return
	}
	inst.register(regency, reqs, digest)
	r.deliverContiguous()
	r.maybePropose(time.Now())
}

// resolution is what resolve made of a PROPOSE's runs.
type resolution int

const (
	resolved    resolution = iota
	missing                // a referenced request is not pooled here (yet)
	conflicting            // the references resolved, but not to the leader's batch
)

// resolve completes a received PROPOSE's batch into the storage into: a run
// by reference becomes the requests this replica pooled, and an inline run
// the requests it carries, under the client id this replica's record of
// the client holds. m is only read. It returns the batch's digest.
// Resolved references must hash to the leader's digest, or the client sent
// one (client, seq) with different operations to the leader and to this
// replica. A batch sent inline is its own evidence: the replica votes for
// the digest of what it received, as ever.
func (r *Replica) resolve(m *proposeMsg, into *[]request) (cryptoutil.Digest, resolution) {
	n := 0
	for i := range m.runs {
		n += m.runs[i].n
	}
	reqs := slices.Grow(emptied(*into), n)
	if !m.byRef {
		*into = appendRuns(reqs, m.runs, r.clients)
		return batchDigest(m.Seq, *into), resolved
	}
	for i := range m.runs {
		rn := &m.runs[i]
		rec := r.clients[string(rn.client)]
		for s := 0; s < rn.n; s++ {
			var p *pendingReq
			if rec != nil {
				p = rec.find(rn.first + uint64(s))
			}
			if p == nil {
				*into = reqs
				return cryptoutil.Digest{}, missing
			}
			reqs = append(reqs, p.req)
		}
	}
	*into = reqs
	if digest := batchDigest(m.Seq, reqs); digest != m.Digest {
		return digest, conflicting
	}
	return m.Digest, resolved
}

// unresolved handles a PROPOSE that resolve could not complete: it is
// parked on its instance (the first one; a follower keeps it while
// waiting) and retried whenever a request frame is pooled: the client sent
// this replica the same frame as the leader, so the requests it names are
// usually just behind it. One still parked a full tick after it arrived is
// fetched from the leader (askParked); one that resolved to other
// operations than the leader's is fetched at once.
func (r *Replica) unresolved(inst *instance, m *proposeMsg, st resolution) {
	if inst.parked == nil {
		inst.parked, inst.parkedAt = m.payload, time.Now()
		r.parked = append(r.parked, inst.seq)
	}
	if st == conflicting {
		r.askLeader(inst)
	}
}

// retryParked resolves the parked PROPOSEs again after a request frame was
// pooled. A PROPOSE still unresolved stays parked since its arrival.
func (r *Replica) retryParked() {
	seqs := r.parked
	r.parked = nil
	for _, seq := range seqs {
		inst, ok := r.instances[seq]
		if !ok || inst.parked == nil {
			continue
		}
		payload, at := inst.parked, inst.parkedAt
		inst.parked = nil
		if unmarshalPropose(payload, r.prop, r.cfg.BatchSize) == nil { // it decoded when it arrived
			r.onPropose(r.leaderOf(r.prop.Regency), r.prop, nil)
		}
		if inst.parked != nil { // parked again: only this PROPOSE could be
			inst.parkedAt = at
		}
	}
}

// askParked runs on every tick: it asks the leader for each PROPOSE parked
// for a full tickInterval (one asked sooner would be fetched on the
// follower a client's frame reaches last, instead of resolving from that
// frame). An instance decided while its PROPOSE stays parked for a
// RequestTimeout — the leader never answered — is fetched by state
// transfer.
func (r *Replica) askParked(now time.Time) {
	kept := r.parked[:0]
	for _, seq := range r.parked {
		inst, ok := r.instances[seq]
		if !ok || inst.parked == nil {
			continue
		}
		kept = append(kept, seq)
		waited := now.Sub(inst.parkedAt)
		if waited >= tickInterval {
			r.askLeader(inst)
		}
		if inst.decided && waited > r.cfg.RequestTimeout {
			r.requestStateTransfer()
		}
	}
	r.parked = kept
}

// askLeader asks the leader, once per instance, for the parked PROPOSE with
// its batch inline.
func (r *Replica) askLeader(inst *instance) {
	if inst.asked {
		return
	}
	inst.asked = true
	r.statFetches.Add(1)
	// A parked PROPOSE is of the current regency: a regency change drops
	// them all (dropParked).
	fm := &proposeFetchMsg{Regency: r.regency, Seq: inst.seq}
	r.sendTo(r.leaderOf(fm.Regency), msgProposeFetch, fm.marshal())
}

// dropParked forgets the parked PROPOSEs when the regency changes: they
// can no longer be registered. An instance decided meanwhile is fetched by
// state transfer, since no SYNC re-runs a decided instance.
func (r *Replica) dropParked() {
	for _, seq := range r.parked {
		if inst, ok := r.instances[seq]; ok && inst.parked != nil {
			inst.parked, inst.asked = nil, false
			if inst.decided && !inst.haveProposal {
				r.requestStateTransfer()
			}
		}
	}
	r.parked = nil
}

// onProposeFetch answers a follower that could not resolve this leader's
// PROPOSE: the batch goes to it inline, once per follower and instance, and
// only while this leader still holds the batch (a checkpoint retires it).
func (r *Replica) onProposeFetch(from ReplicaID, m proposeFetchMsg) {
	if m.Regency != r.regency || r.syncInProgress || !r.isLeader() {
		return
	}
	inst, ok := r.instances[m.Seq]
	if !ok || !inst.haveProposal || inst.regency != m.Regency || len(inst.reqs) == 0 ||
		slices.Contains(inst.answered, from) {
		return
	}
	inst.answered = append(inst.answered, from)
	pm := &proposeMsg{Regency: m.Regency, Seq: m.Seq, Digest: inst.digest, Batch: inst.reqs}
	r.sendTo(from, msgPropose, pm.marshal())
}

// validateBatch vets a proposed batch.
func (r *Replica) validateBatch(reqs []request) bool {
	if len(reqs) > r.cfg.BatchSize {
		return false
	}
	if r.cfg.ValidateRequest != nil {
		for i := range reqs {
			if err := r.cfg.ValidateRequest(reqs[i].Op); err != nil {
				return false
			}
		}
	}
	return true
}

// decodeDecided decodes the batch of the decision logged for seq, whose
// entries are its runs, as views of them. An entry that does not read as a
// run, or that continues the run before it, is an error: the batch replayed
// must be the batch that was decided.
func (r *Replica) decodeDecided(seq int64, entries [][]byte) ([]request, error) {
	runs := make([]run, len(entries))
	for i, entry := range entries {
		rd := wire.NewReader(entry)
		var err error
		if runs[i], err = readRun(rd, false, 0); err == nil {
			err = rd.Finish()
		}
		if err == nil && i > 0 && continues(&runs[i-1], &runs[i]) {
			err = fmt.Errorf("run continues the one before it")
		}
		if err != nil {
			return nil, fmt.Errorf("consensus: decision log entry %d of seq %d: %w", i, seq, err)
		}
	}
	return appendRuns(nil, runs, r.clients), nil
}

// adoptDecided registers a batch that reached this replica already decided
// (state transfer, decision-log replay) on its instance.
func (r *Replica) adoptDecided(inst *instance, reqs []request) {
	if !inst.decided {
		r.statDecided.Add(1)
	}
	inst.parked = nil
	inst.register(inst.regency, reqs, batchDigest(inst.seq, reqs))
	inst.decided = true
	inst.decidedDigest = inst.digest
}

func (r *Replica) instance(seq int64) *instance {
	inst, ok := r.instances[seq]
	if !ok {
		if n := len(r.spare); n > 0 {
			inst = r.spare[n-1]
			r.spare = r.spare[:n-1]
			inst.reuse(seq)
		} else {
			inst = &instance{seq: seq}
		}
		r.instances[seq] = inst
	}
	return inst
}

func (r *Replica) onVote(from ReplicaID, m voteMsg, isWrite bool) {
	r.noteRegency(from, m.Regency)
	if m.Regency != r.regency || r.syncInProgress {
		return
	}
	if m.Seq <= r.lastDelivered {
		// The instance is already delivered locally; late votes are noise
		// unless we have fallen behind (handled via propose/state paths).
		return
	}
	if m.Seq > r.lastDelivered+instanceWindow {
		r.requestStateTransfer()
		return
	}
	inst := r.instance(m.Seq)
	votes := &inst.writes
	if !isWrite {
		votes = &inst.accepts
	}
	votes.add(m.Regency, from, m.Digest)
	r.checkQuorums(inst)
}

// checkQuorums advances an instance through WRITE-quorum (accept vote +
// leader-change certificate) and ACCEPT-quorum (decision).
func (r *Replica) checkQuorums(inst *instance) {
	if inst.decided {
		return
	}
	// WRITE quorum: send ACCEPT for the certified digest.
	if digest, ok := inst.writes.quorum(r.regency, r.qt); ok {
		if !inst.writeCertified || inst.certRegency < r.regency {
			inst.writeCertified = true
			inst.certDigest = digest
			inst.certRegency = r.regency
		}
		if !inst.acceptSent {
			inst.acceptSent = true
			vm := &voteMsg{Regency: r.regency, Seq: inst.seq, Digest: digest}
			r.broadcast(msgAccept, vm.marshal())
		}
	}
	// ACCEPT quorum: decide.
	if digest, ok := inst.accepts.quorum(r.regency, r.qt); ok {
		r.decide(inst, digest)
	}
}

func (r *Replica) decide(inst *instance, digest cryptoutil.Digest) {
	if inst.decided {
		return
	}
	inst.decided = true
	inst.decidedDigest = digest
	r.statDecided.Add(1)

	if !inst.haveProposal || inst.digest != digest {
		// Decided by quorum evidence without (or with a conflicting) local
		// proposal: fetch the decided batches from peers. A proposal parked
		// here is delivered once it resolves (adoptParked), unless the
		// instance sits above a gap, which only state transfer fills.
		inst.haveProposal = false
		if inst.parked == nil || inst.seq > r.lastDelivered+1 {
			r.requestStateTransfer()
		}
		return
	}
	r.deliverContiguous()
	if inst.seq > r.lastDelivered+1 {
		// Decided ahead of a gap (e.g. a joining replica that missed the
		// prefix): catch up through state transfer rather than waiting for
		// votes that will never come.
		r.requestStateTransfer()
	}
	r.maybePropose(time.Now())
}

// deliverContiguous delivers every decided instance of the contiguous
// prefix whose decided batch is registered here.
func (r *Replica) deliverContiguous() {
	for {
		inst, ok := r.instances[r.lastDelivered+1]
		if !ok || !inst.haveProposal || !inst.decided || inst.digest != inst.decidedDigest {
			return
		}
		r.deliver(inst)
		r.leftWindow(inst)
		if (inst.seq+1)%r.cfg.CheckpointInterval == 0 {
			// Checkpoint boundaries are absolute (every interval-th
			// instance) so that all replicas produce byte-identical
			// checkpoints, which the f+1 matching rule of state transfer
			// depends on.
			r.checkpointAt(inst.seq)
		}
	}
}

// deliver executes inst, the decided instance right above the watermark,
// and moves the watermark over it. The batch stays in decidedLog, for state
// transfer and leader changes, until a checkpoint covers it.
func (r *Replica) deliver(inst *instance) {
	r.execute(inst)
	r.decidedLog[inst.seq] = inst.reqs
	r.lastDelivered = inst.seq
	r.statDelivered.Store(inst.seq)
}

// leftWindow accounts for a delivered instance at the leader that proposed
// it: the window has room again, and the time since its PROPOSE is one
// sample for the clock the proposals are paced by.
func (r *Replica) leftWindow(inst *instance) {
	r.publishWindow()
	if inst.proposedAt.IsZero() {
		return
	}
	sample := int64(time.Since(inst.proposedAt))
	if avg := r.instanceLatency.Load(); avg != 0 {
		sample = avg + (sample-avg)/latencyWeight
	}
	r.instanceLatency.Store(sample)
}

// execute delivers one instance's batch to the application, with
// deduplication. Every replica executes the same batches, so every replica
// marks the same sequences and checkpoints stay identical.
func (r *Replica) execute(inst *instance) {
	// Write-ahead: the decision must be on disk before its effects (sealed
	// blocks, dissemination) become visible.
	r.logDecision(inst.seq, inst.reqs)
	ops := r.ops
	var rec *clientRecord
	for i := range inst.reqs {
		rq := &inst.reqs[i]
		if rec == nil || rec.client != rq.ClientID {
			rec = r.record(rq.ClientID)
			rec.replicated = true
		}
		r.unpool(rec, rq.Seq)
		if rec.contains(rq.Seq) {
			continue // duplicate of an already executed request
		}
		rec.mark(rq.Seq)
		if rc, isReconfig := decodeReconfigOp(rq.Op); isReconfig {
			r.applyReconfig(rc)
			continue // membership changes are consumed by the replica layer
		}
		ops = append(ops, rq.Op)
	}
	r.app.Execute(inst.seq, ops)
	r.statOps.Add(uint64(len(ops)))
	r.ops = emptied(ops)
}

// checkpointAt snapshots the application at seq and truncates the decision
// log (Section 5.2: the tiny state makes frequent checkpoints cheap).
func (r *Replica) checkpointAt(seq int64) {
	if seq <= r.checkpointSeq {
		return
	}
	r.checkpointSeq = seq
	r.checkpointSnap = r.wrapSnapshot()
	r.releaseIdleWindows()
	if r.ckptObserver != nil {
		r.ckptObserver(seq)
	}
	r.logCheckpoint(seq, r.checkpointSnap)
	for s := range r.decidedLog {
		if s <= seq {
			delete(r.decidedLog, s)
		}
	}
	for s, inst := range r.instances {
		if s <= seq {
			delete(r.instances, s)
			inst.recycle()
			r.spare = append(r.spare, inst)
		}
	}
}

func (r *Replica) onTick() {
	now := time.Now()
	r.maybePropose(now)
	r.askParked(now)
	if r.fetching && now.Sub(r.fetchStarted) > r.cfg.RequestTimeout {
		// Retry the state transfer.
		r.fetching = false
		r.requestStateTransfer()
	}
	if r.syncInProgress {
		if now.Sub(r.syncStarted) > r.cfg.RequestTimeout {
			r.triggerLeaderChange(r.regency + 1)
		}
		return
	}
	r.trimQueue()
	// Request-timeout watchdog: a pending request older than the timeout
	// indicts the current leader. The queue is in arrival order, so the
	// head is the oldest.
	if len(r.queue) > 0 && now.Sub(r.queue[0].find().arrived) > r.cfg.RequestTimeout {
		r.triggerLeaderChange(r.regency + 1)
	}
}

// trimQueue drops the executed requests at the head of the arrival queue,
// so that the watchdog inspects the oldest request still pending, and
// compacts the whole queue once executed requests make up most of it
// (followers never run collectBatch, which is where the leader compacts).
// Both move the entries down in place: a queue re-sliced at its head loses
// capacity, and the append that pools the next request then copies it all
// to a new array.
func (r *Replica) trimQueue() {
	head := 0
	for head < len(r.queue) && r.queue[head].find() == nil {
		head++
	}
	kept := r.queue[:0]
	switch {
	case len(r.queue)-head > 4*r.pending+1024:
		for _, q := range r.queue[head:] {
			if q.find() != nil {
				kept = append(kept, q)
			}
		}
	case head > 0:
		kept = r.queue[:copy(r.queue, r.queue[head:])]
	default:
		return
	}
	clear(r.queue[len(kept):])
	r.queue = kept
}
