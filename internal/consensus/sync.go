package consensus

import (
	"sort"
	"time"

	"repro/internal/cryptoutil"
)

// This file implements Mod-SMaRt's synchronization phase (Section 4 of the
// paper; protocol details in Sousa & Bessani, EDCC 2012): when the current
// leader stalls or misbehaves, replicas STOP the current regency, the next
// regency's leader collects signed STOPDATA progress reports from n-f
// replicas, and a SYNC message carries every write-certified open value
// into the new regency so that nothing decided is lost.

// triggerLeaderChange votes to move to the given regency. Idempotent per
// target regency.
func (r *Replica) triggerLeaderChange(target int32) {
	if target <= r.regency || r.stopSent[target] {
		return
	}
	r.stopSent[target] = true
	sm := &stopMsg{NextRegency: target}
	r.broadcast(msgStop, sm.marshal())
}

// noteRegency records that a peer sent normal-case traffic for a regency
// beyond ours. A replica that rejoins after a crash (durable restart) may
// find the group several leader changes ahead; once f+1 distinct peers —
// at least one of them correct — demonstrate a higher regency, it adopts
// the highest regency that f+1 peers support and rejoins the current view
// (the PBFT view catch-up rule). No STOPDATA/SYNC round is needed: the
// group already completed it, and ordinary gap detection plus state
// transfer recover whatever was decided meanwhile.
func (r *Replica) noteRegency(from ReplicaID, regency int32) {
	if regency <= r.regency || from == r.cfg.SelfID {
		return
	}
	if r.peerRegency[from] >= regency {
		return
	}
	r.peerRegency[from] = regency

	ahead := make([]int32, 0, len(r.peerRegency))
	for _, reg := range r.peerRegency {
		if reg > r.regency {
			ahead = append(ahead, reg)
		}
	}
	if len(ahead) < r.qt.f+1 {
		return
	}
	sort.Slice(ahead, func(i, j int) bool { return ahead[i] > ahead[j] })
	target := ahead[r.qt.f] // highest regency f+1 peers are at or beyond
	if target <= r.regency {
		return
	}
	r.adoptRegency(target)
}

// adoptRegency jumps straight into an already-installed view: the group
// finished its synchronization phase without us, so there is no STOPDATA
// to send — just follow the view's leader and let requests re-propose.
func (r *Replica) adoptRegency(target int32) {
	r.regency = target
	r.statRegency.Store(target)
	r.statLC.Add(1)
	r.refreshLeaderStat()
	r.syncInProgress = false
	r.stopData = make(map[ReplicaID]*stopDataMsg)
	for reg := range r.stopVotes {
		if reg <= target {
			delete(r.stopVotes, reg)
		}
	}
	for id, reg := range r.peerRegency {
		if reg <= target {
			delete(r.peerRegency, id)
		}
	}
	r.releaseInFlight()
}

func (r *Replica) onStop(from ReplicaID, m *stopMsg) {
	if m.NextRegency <= r.regency {
		return
	}
	votes, ok := r.stopVotes[m.NextRegency]
	if !ok {
		votes = make(map[ReplicaID]struct{})
		r.stopVotes[m.NextRegency] = votes
	}
	votes[from] = struct{}{}

	// Amplification: join the change once f+1 distinct replicas ask for it
	// (at least one of them is correct).
	if len(votes) >= r.qt.f+1 && !r.stopSent[m.NextRegency] {
		r.triggerLeaderChange(m.NextRegency)
	}
	// Installation: 2f+1 STOPs install the new regency.
	if len(votes) >= r.qt.stopQuorum() {
		r.installRegency(m.NextRegency)
	}
}

// installRegency moves to a new regency and sends this replica's STOPDATA
// to the new leader.
func (r *Replica) installRegency(target int32) {
	if target <= r.regency {
		return
	}
	r.regency = target
	r.statRegency.Store(target)
	r.statLC.Add(1)
	r.refreshLeaderStat()
	r.syncInProgress = true
	r.syncStarted = time.Now()
	r.stopData = make(map[ReplicaID]*stopDataMsg)
	// Regencies below the installed one can never gather again.
	for reg := range r.stopVotes {
		if reg <= target {
			delete(r.stopVotes, reg)
		}
	}
	// In-flight proposals die with the old regency.
	r.releaseInFlight()

	sd := &stopDataMsg{
		Regency:     target,
		LastDecided: r.lastDelivered,
		Certs:       r.openCerts(),
	}
	if r.cfg.Key != nil {
		if sig, err := r.cfg.Key.Sign(cryptoutil.Hash(sd.signedBytes()).Bytes()); err == nil {
			sd.Signature = sig
		}
	}
	r.sendTo(r.leaderOf(target), msgStopData, sd.marshal())

	// Replay any STOPDATA/SYNC that arrived before we installed the
	// regency.
	buffered := r.futureStopData
	r.futureStopData = nil
	for _, b := range buffered {
		r.onStopData(b.from, b.msg)
	}
	if fs := r.futureSync; fs != nil {
		r.futureSync = nil
		r.onSync(fs.from, fs.msg)
	}
}

// openCerts returns write certificates for every instance above the
// delivery watermark.
func (r *Replica) openCerts() []writeCert {
	var certs []writeCert
	for seq, inst := range r.instances {
		if seq <= r.lastDelivered || !inst.writeCertified {
			continue
		}
		cert := writeCert{
			Seq:     seq,
			Regency: inst.certRegency,
			Digest:  inst.certDigest,
		}
		if inst.haveProposal && inst.digest == inst.certDigest {
			cert.Batch = inst.reqs
		}
		certs = append(certs, cert)
	}
	sort.Slice(certs, func(i, j int) bool { return certs[i].Seq < certs[j].Seq })
	return certs
}

func (r *Replica) onStopData(from ReplicaID, m *stopDataMsg) {
	if m.Regency > r.regency {
		// The sender installed the regency before us (it saw 2f+1 STOPs
		// first). Buffer and replay after our own installation.
		r.futureStopData = append(r.futureStopData, bufferedStopData{from: from, msg: m})
		return
	}
	if m.Regency != r.regency || !r.syncInProgress {
		return
	}
	if r.leaderOf(m.Regency) != r.cfg.SelfID {
		return // only the new leader collects STOPDATA
	}
	if !r.verifyStopData(from, m) {
		return
	}
	r.stopData[from] = m
	if len(r.stopData) < r.qt.stopDataQuorum() {
		return
	}
	r.computeSync()
}

// verifyStopData checks the sender's signature when a registry is
// configured. Without keys the report is accepted as-is (crash-fault
// deployments).
func (r *Replica) verifyStopData(from ReplicaID, m *stopDataMsg) bool {
	if r.cfg.Registry == nil {
		return true
	}
	digest := cryptoutil.Hash(m.signedBytes())
	return r.cfg.Registry.Verify(replicaIdentity(from), digest.Bytes(), m.Signature)
}

// replicaIdentity names a replica in the identity registry.
func replicaIdentity(id ReplicaID) string { return string(id.Addr()) }

// computeSync resolves the open instances from the collected STOPDATA and
// broadcasts the SYNC message that resumes normal operation.
//
// Decisions cover every instance above the LOWEST delivered prefix any
// reporter claims: replicas that fell behind re-run the instances they
// missed from the write certificates of their peers (any decided instance
// has a certificate inside the n-f collected STOPDATAs, because the accept
// quorum that decided it intersects every n-f subset in a correct
// replica). Replicas that already decided an instance simply skip its
// decision, so nothing decided is ever overridden.
func (r *Replica) computeSync() {
	lowest, highest := r.lastDelivered, r.lastDelivered
	for _, sd := range r.stopData {
		if sd.LastDecided > highest {
			highest = sd.LastDecided
		}
		if sd.LastDecided < lowest {
			lowest = sd.LastDecided
		}
	}
	// Gather the best certificate per open instance: highest cert regency
	// wins (it supersedes older write quorums, as in PBFT view changes).
	best := make(map[int64]*writeCert)
	maxSeq := highest
	consider := func(c *writeCert) {
		if c.Seq <= lowest {
			return
		}
		cur, ok := best[c.Seq]
		if !ok || c.Regency > cur.Regency || (c.Regency == cur.Regency && len(c.Batch) > len(cur.Batch)) {
			best[c.Seq] = c
		}
		if c.Seq > maxSeq {
			maxSeq = c.Seq
		}
	}
	for _, sd := range r.stopData {
		for i := range sd.Certs {
			consider(&sd.Certs[i])
		}
	}
	// Local certificates participate too (the leader is one of the n-f).
	local := r.openCerts()
	for i := range local {
		consider(&local[i])
	}
	// The leader's own decided log also provides batches for instances some
	// reporters missed.
	for seq := lowest + 1; seq <= r.lastDelivered; seq++ {
		if batch, ok := r.decidedLog[seq]; ok {
			if _, have := best[seq]; !have || len(best[seq].Batch) == 0 {
				best[seq] = &writeCert{Seq: seq, Regency: r.regency, Batch: batch}
			}
		}
	}

	decisions := make([]syncDecision, 0, maxSeq-lowest)
	for seq := lowest + 1; seq <= maxSeq; seq++ {
		d := syncDecision{Seq: seq}
		if cert, ok := best[seq]; ok && len(cert.Batch) > 0 {
			d.HasCert = true
			d.Batch = cert.Batch
		} else if seq <= highest {
			// A decided instance whose batch no reporter supplied: do not
			// emit a conflicting no-op; the lagging replicas fall back to
			// state transfer for this prefix.
			continue
		}
		// Instances without a certified batch beyond the decided prefix
		// restart as no-ops to keep the sequence contiguous.
		decisions = append(decisions, d)
	}
	sy := &syncMsg{Regency: r.regency, Decisions: decisions}
	r.broadcast(msgSync, sy.marshal())
}

func (r *Replica) onSync(from ReplicaID, m *syncMsg) {
	if m.Regency > r.regency {
		// We have not installed the new regency yet; keep the most recent
		// future SYNC and replay it after installation.
		r.futureSync = &bufferedSync{from: from, msg: m}
		return
	}
	if m.Regency != r.regency {
		return
	}
	if r.leaderOf(m.Regency) != from {
		return
	}
	if !r.syncInProgress {
		return
	}
	r.syncInProgress = false

	// Adopt each resolved instance as if freshly proposed in this regency,
	// then WRITE for it. Instances we already decided keep their decision.
	for i := range m.Decisions {
		d := &m.Decisions[i]
		if d.Seq <= r.lastDelivered {
			continue
		}
		inst := r.instance(d.Seq)
		if inst.decided {
			continue
		}
		if !r.validateBatch(d.Batch) {
			continue // invalid sync value; escalation will follow
		}
		inst.register(m.Regency, d.Batch, batchDigest(d.Seq, d.Batch))
		inst.writeSent = true
		inst.acceptSent = false
		vm := &voteMsg{Regency: r.regency, Seq: d.Seq, Digest: inst.digest}
		r.broadcast(msgWrite, vm.marshal())
	}

	// The new leader resumes proposing after the resolved range.
	if r.isLeader() {
		r.lastProposed = r.lastDelivered
		for i := range m.Decisions {
			if m.Decisions[i].Seq > r.lastProposed {
				r.lastProposed = m.Decisions[i].Seq
			}
		}
		r.publishWindow()
		r.maybePropose(time.Now())
	}
}
