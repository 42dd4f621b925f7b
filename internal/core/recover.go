package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"time"

	"naplet/internal/fsm"
	"naplet/internal/journal"
	"naplet/internal/obs"
	"naplet/internal/wire"
)

// This file is the fault-tolerance wiring of the controller: the
// write-ahead journal checkpoints taken at every connection lifecycle edge,
// and the crash recovery path that rebuilds controller state from the
// journal after a napletd restart and drives the stranded connections back
// through the normal resume handshake. Dead peers are detected below this
// layer: the shared transport's keepalive fails a silent connection, a
// broken one fails at once, and either way every stream on it reaches
// failLocked as ErrTransportLost. From there one chain recovers every
// failure, crash or not: SUSPENDED, startRecovery's one Resume, RES carrying
// LastSeq, a fresh stream over a fresh transport, retransmit from the send
// log.

// restartNonceSlack is added to a restored connection's send nonce. The
// journal checkpoint may predate control messages sent just before the
// crash, and the peer rejects non-increasing nonces as replays; the slack
// jumps past anything the dead process could plausibly have sent.
const restartNonceSlack = 1 << 20

// connJournalKey keys one connection endpoint in the journal. The local
// agent id participates because both endpoints of a loopback connection
// can be journaled by the same controller.
func connJournalKey(localAgent string, id wire.ConnID) string {
	return localAgent + "|" + id.String()
}

// noteRecoveredLocked closes a failure episode: if the connection carries a
// failure timestamp (set by failLocked or by a crash restore), the elapsed
// time is recorded as the recovery latency. Caller holds mu.
func (s *Socket) noteRecoveredLocked() {
	at := s.failedAt
	s.failedAt = time.Time{}
	if at.IsZero() {
		return
	}
	o := s.ctrl.obs
	o.connRecoveries.Inc()
	o.recoveryMs.ObserveDuration(time.Since(at))
	s.olog(obs.LevelInfo, "recovered %v after failure", time.Since(at).Round(time.Millisecond))
}

// ---- journal checkpoints ----

// journalRecord captures the connection as one journal record. The record
// is appended under mu: the snapshot aliases the live receive buffer and send
// log, whose pooled buffers may be recycled the moment the lock is released.
func (s *Socket) journalRecord() journal.Record {
	s.mu.Lock()
	st := s.snapshotLocked()
	data := st.appendTo(nil)
	s.mu.Unlock()
	return journal.Record{
		Kind: journal.KindConn,
		Key:  connJournalKey(s.localAgent, s.id),
		Data: data,
	}
}

// checkpointConn journals the connection's current state. Called at every
// lifecycle edge (established, suspended, resumed, restored); a crash at
// any point replays the latest checkpoint, and the sequence-numbered frame
// protocol absorbs whatever the checkpoint is behind on.
//
// Snapshot and append are one critical section per connection (ckptMu): the
// journal is latest-wins, so two writers of one key — a resume's trailing
// checkpoint and the receiver's after ReadMsg — that appended in the reverse
// of snapshot order would leave the older receive run to be replayed, and a
// consumed message delivered twice. A connection that has left the journal
// (dropConnJournal) stays out: a checkpoint finishing late must not resurrect
// one that closed or migrated away.
func (ctrl *Controller) checkpointConn(s *Socket) {
	j := ctrl.cfg.Journal
	if j == nil {
		return
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if s.unjournaled {
		return
	}
	if err := j.Append(s.journalRecord()); err != nil && !errors.Is(err, journal.ErrClosed) {
		s.olog(obs.LevelError, "journal: checkpoint: %v", err)
	}
}

// dropConnJournal removes a connection's journal entry, for good; the point
// a connection leaves this host (closed, or migrated away).
func (ctrl *Controller) dropConnJournal(s *Socket) {
	j := ctrl.cfg.Journal
	if j == nil {
		return
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	s.unjournaled = true
	j.Delete(journal.KindConn, connJournalKey(s.localAgent, s.id))
}

// CheckpointRecords hands commit journal records capturing every live
// connection of the agent, for the agent host to batch atomically with its
// own behaviour checkpoint: journaling application progress and the
// connections' send cursors in one batch is what preserves exactly-once
// delivery across a crash (neither ordering of separate writes survives a
// crash between them). The connections' checkpoint locks are held, in id
// order, until commit returns, so the batch is ordered against every other
// writer of the same keys like any single checkpoint.
func (ctrl *Controller) CheckpointRecords(agentID string, commit func([]journal.Record) error) error {
	conns := ctrl.AgentSockets(agentID)
	slices.SortFunc(conns, func(a, b *Socket) int { return bytes.Compare(a.id[:], b.id[:]) })
	var recs []journal.Record
	for _, s := range conns {
		s.ckptMu.Lock()
		defer s.ckptMu.Unlock()
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if !closed && !s.unjournaled {
			recs = append(recs, s.journalRecord())
		}
	}
	return commit(recs)
}

// ---- crash recovery ----

// buildConn rebuilds a connection endpoint from its decoded state in
// SUSPENDED (CLOSED, if the peer closed it before it travelled), without
// registering it; shared by the migration arrival path (nonceSlack 0 — the
// serialized state is exact) and the crash recovery path
// (restartNonceSlack — the checkpoint may be stale).
func (ctrl *Controller) buildConn(st *connState, nonceSlack uint64) (*Socket, error) {
	start := fsm.Suspended
	if st.PeerClosed {
		start = fsm.Closed
	}
	s, err := newSocket(ctrl, st.ID, st.LocalAgent, st.RemoteAgent, st.SessionKey, start)
	if err != nil {
		return nil, fmt.Errorf("napletsocket: restoring connection %s: %w", wire.ConnID(st.ID), err)
	}
	s.nextSendSeq = st.NextSendSeq
	s.lastEnqueued = st.LastEnqueued
	// The buffered data goes back into segments. The leftover tail of a
	// half-read message leads the receive buffer as a frame of its own,
	// under the sequence number it was first delivered under; whatever its
	// original provenance it has now crossed a migration (or restart) in
	// the buffer, like everything behind it (Fig 7's accounting).
	recv := st.RecvBuf
	if s.readTail = len(st.Leftover) > 0; s.readTail {
		tail, _ := wire.AppendFrame(nil, wire.Frame{Seq: st.LeftoverSeq, Flags: wire.FlagData, Payload: st.Leftover})
		recv = append([][]byte{tail}, recv...)
	}
	s.recvQ = packRuns(recv, true)
	for _, seg := range s.recvQ {
		s.recvHeld += cap(seg.buf)
	}
	s.sendLog = packRuns(st.SendLog, false)
	for _, seg := range s.sendLog {
		s.sendHeld += cap(seg.buf)
	}
	// Nothing is pending and no write is in flight: the log is all cut and
	// all flushed.
	s.cutSeq, s.flushedSeq = s.nextSendSeq, s.nextSendSeq-1
	s.setPeerAddrsLocked(st.PeerControlAddr, st.PeerDataAddr) // not shared yet: no lock to hold
	s.sendNonce = st.SendNonce + nonceSlack
	s.lastPeerNonce = st.LastPeerNonce
	if st.OwesSusRes {
		s.latches |= latchOwesSusRes
	}
	s.accepted = st.Accepted
	s.closed = st.PeerClosed
	if nonceSlack > 0 {
		// Crash restore: the connection has been down since (at latest) the
		// crash. It is recovered like a broken one, and the stamped episode
		// makes the resume record a recovery latency.
		s.latches |= latchFailing
		s.failedAt = time.Now()
	}
	return s, nil
}

// RecoverConns rebuilds the controller's listeners and connections from
// the journal after a process restart and kicks off their resumption
// through the normal resume handshake. Call it once, after the journal is
// open and before agents restart their traffic; it returns the number of
// connections restored.
func (ctrl *Controller) RecoverConns() (int, error) {
	j := ctrl.cfg.Journal
	if j == nil {
		return 0, nil
	}

	for agentID := range j.Entries(journal.KindListener) {
		if _, err := ctrl.ListenAs(agentID, ctrl.cfg.Guard.IssueCredential(agentID)); err != nil {
			ctrl.olog(obs.LevelWarn, "recover: restoring listener of %s: %v", agentID, err)
		}
	}

	restored := 0
	for key, data := range j.Entries(journal.KindConn) {
		st, err := decodeConnState(data)
		if errors.Is(err, errPreV1State) {
			ctrl.olog(obs.LevelWarn, "recover: connection record in pre-v1 format, skipped: %q", key)
			continue
		}
		if err != nil {
			ctrl.olog(obs.LevelWarn, "recover: undecodable conn record %q: %v", key, err)
			continue
		}
		s, err := ctrl.buildConn(&st, restartNonceSlack)
		if err != nil {
			ctrl.olog(obs.LevelWarn, "recover: %v", err)
			continue
		}
		ctrl.tab.register(s)
		// Re-checkpoint immediately with the bumped nonce, so a second crash
		// before the resume completes bumps again from here, not from the
		// pre-crash value.
		ctrl.checkpointConn(s)
		restored++
		s.startRecovery(0)
	}
	if restored > 0 || j.Replayed() > 0 {
		ctrl.olog(obs.LevelInfo, "recovered %d connections from journal (%d records replayed)",
			restored, j.Replayed())
	}
	return restored, nil
}
