package core

import (
	"context"
	"fmt"
	"time"

	"naplet/internal/fsm"
	"naplet/internal/metrics"
	"naplet/internal/obs"
	"naplet/internal/rudp"
	"naplet/internal/transport"
	"naplet/internal/wire"
)

// This file implements the connection migration operations of Sections
// 2.2–3.2 of the paper: the locally issued suspend / resume / close
// transactions, the local/remote-suspend priority rules for multiple
// connections, and serve, which carries out what the reply table (proto.go)
// decides for the corresponding control messages from the peer.

// request sends one authenticated control message to the peer controller
// and returns its verified reply: encoded once and signed in place, the reply
// verified over the bytes it came in.
func (s *Socket) request(ctx context.Context, typ wire.MsgType, build func(m *wire.ControlMsg)) (*wire.ControlReply, error) {
	s.mu.Lock()
	s.sendNonce++
	m := &wire.ControlMsg{
		Type:    typ,
		ConnID:  s.id,
		From:    s.localAgent,
		To:      s.remoteAgent,
		Nonce:   s.sendNonce,
		TraceID: s.traceSpan.Context().Trace,
		SpanID:  s.traceSpan.Context().Span,
	}
	addr := s.peerControl
	s.mu.Unlock()
	if build != nil {
		build(m)
	}
	raw, err := s.ctrl.ep.RequestTo(ctx, addr, wire.SignEncoded(m.Encode(), s.auth))
	if err != nil {
		return nil, err
	}
	reply, err := wire.DecodeControlReply(raw)
	if err != nil {
		return nil, err
	}
	if !wire.VerifyEncoded(raw, s.auth) {
		// A controller that does not know the connection (the peer agent
		// moved on, or its endpoint is travelling in a bundle) cannot sign:
		// let unsigned rejections through as advisory — the worst a forger
		// achieves is a retry, never a state change.
		if reply.Verdict == wire.VerdictReject && reply.Tag == [wire.TagSize]byte{} {
			return reply, nil
		}
		return nil, fmt.Errorf("napletsocket: unauthenticated %s reply on %s", typ, s.id)
	}
	return reply, nil
}

// reply builds a signed control reply.
func (s *Socket) reply(v wire.Verdict, mutate func(r *wire.ControlReply)) []byte {
	r := &wire.ControlReply{Verdict: v, ConnID: s.id}
	if mutate != nil {
		mutate(r)
	}
	return wire.SignEncoded(r.Encode(), s.auth)
}

// reject builds a signed rejection: code is what the peer acts on, reason
// what it logs.
func (s *Socket) reject(code wire.RejectCode, reason string) []byte {
	return s.reply(wire.VerdictReject, func(r *wire.ControlReply) { r.Code, r.Reason = code, reason })
}

// checkAuth verifies the tag of a peer control message over raw, the bytes m
// was decoded from, and m's replay nonce.
func (s *Socket) checkAuth(m *wire.ControlMsg, raw []byte) error {
	if !wire.VerifyEncoded(raw, s.auth) {
		return fmt.Errorf("napletsocket: bad tag on %s for %s", m.Type, s.id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if m.Nonce <= s.lastPeerNonce {
		return fmt.Errorf("napletsocket: replayed %s (nonce %d <= %d) on %s", m.Type, m.Nonce, s.lastPeerNonce, s.id)
	}
	s.lastPeerNonce = m.Nonce
	return nil
}

// ---- suspend ----

// Suspend suspends the connection ahead of a local migration (or under
// explicit application control, per the paper's suspend() interface). It
// returns once the connection is safely in SUSPENDED on this side — which,
// under concurrent migration, may mean waiting for the higher-priority
// peer's migration to finish (SUSPEND_WAIT).
func (s *Socket) Suspend() error {
	s.suspendOpMu.Lock()
	defer s.suspendOpMu.Unlock()
	start := time.Now()
	err := s.suspendLocked()
	o := s.ctrl.obs
	if err != nil {
		o.suspendErrors.Inc()
		s.olog(obs.LevelWarn, "suspend failed: %v", err)
		return err
	}
	elapsed := time.Since(start)
	o.suspends.Inc()
	o.suspendMs.ObserveDuration(elapsed)
	s.olog(obs.LevelInfo, "suspended in %v", elapsed.Round(time.Microsecond))
	s.ctrl.checkpointConn(s)
	return nil
}

func (s *Socket) suspendLocked() error {
	opTimeout := s.ctrl.cfg.opTimeout()
	s.mu.Lock()
	switch st := s.m.State(); st {
	case fsm.Established:
		s.step(fsm.AppSuspend) // -> SUS_SENT
		s.mu.Unlock()
		return s.suspendHandshake(opTimeout)

	case fsm.Suspended:
		if !s.remoteSuspended {
			// Already locally suspended (idempotent).
			s.mu.Unlock()
			return nil
		}
		if s.peerResumeParked || s.susResReceived {
			// The peer already parked its resume behind our migration (or
			// released us with SUS_RES): the suspend is satisfied and the
			// peer is pinned until we land.
			s.susResReceived = false
			s.mu.Unlock()
			return nil
		}
		// Section 3.2: local suspend on a remotely suspended connection.
		if s.highPriority {
			// Finish without further action; the peer's migration pinned
			// the connection and its RESUME will find us gone — it retries
			// through the location service.
			s.mu.Unlock()
			return nil
		}
		// Low priority: park until the peer's RESUME (answered with
		// RESUME_WAIT) or SUS_RES releases us.
		s.step(fsm.AppSuspendBlocked) // -> SUSPEND_WAIT
		s.mu.Unlock()
		if _, err := s.waitState(s.ctrl.cfg.parkTimeout(), fsm.Suspended); err != nil {
			return fmt.Errorf("napletsocket: parked suspend on %s: %w", s.id, err)
		}
		return nil

	case fsm.SusAcked:
		// A remote suspend is mid-drain; wait for it, then reclassify.
		s.mu.Unlock()
		if _, err := s.waitState(opTimeout, fsm.Suspended); err != nil {
			return err
		}
		return s.suspendLocked()

	case fsm.SuspendWait:
		s.mu.Unlock()
		_, err := s.waitState(s.ctrl.cfg.parkTimeout(), fsm.Suspended)
		return err

	case fsm.ResAcked, fsm.ResSent, fsm.ResumeWait:
		// A resume is in flight — possibly peer-initiated (RES_ACKED does
		// not hold the operation mutex while the handoff lands). Wait for
		// it to settle, then reclassify; dropping the connection here
		// would strand the peer on a live endpoint.
		s.mu.Unlock()
		if _, err := s.waitState(s.ctrl.cfg.parkTimeout(), fsm.Established, fsm.Suspended); err != nil {
			return err
		}
		return s.suspendLocked()

	case fsm.CloseAcked:
		// The peer's close is mid-drain: let its last frames reach the
		// buffer, so the caller sees everything the peer wrote.
		s.mu.Unlock()
		s.waitState(s.ctrl.cfg.drainTimeout(), fsm.Closed)
		return ErrClosed

	case fsm.Closed, fsm.CloseSent:
		s.mu.Unlock()
		return ErrClosed

	default:
		s.mu.Unlock()
		return fmt.Errorf("napletsocket: cannot suspend %s in state %s", s.id, st)
	}
}

// suspendHandshake runs the SUS exchange from SUS_SENT and completes the
// local teardown per the verdict. Transient rejections (the peer is mid-
// resume or mid-close on another front) are retried within the operation
// timeout.
func (s *Socket) suspendHandshake(opTimeout time.Duration) error {
	deadline := time.Now().Add(s.ctrl.cfg.parkTimeout())
	backoff := 5 * time.Millisecond
retry:
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	hsStart := time.Now()
	reply, err := s.request(ctx, wire.MsgSuspend, func(m *wire.ControlMsg) {
		m.LastSeq = s.delivered()
	})
	s.ctrl.obs.suspendBD.Add(metrics.PhaseHandshaking, time.Since(hsStart))
	if err != nil {
		// Peer unreachable: suspend ungracefully; the send log covers any
		// in-flight loss at resume time.
		s.ctrl.logf("conn %s: SUS undeliverable (%v); suspending ungracefully", s.id, err)
		s.drainToSuspended(fsm.Timeout)
		return nil
	}
	switch reply.Verdict {
	case wire.VerdictAck:
		s.drainToSuspended(fsm.RecvSuspendAck)
		return nil

	case wire.VerdictAckWait:
		// Overlapped concurrent migration, we are the low-priority side:
		// drain now, then park until the peer's SUS_RES (Fig 4(a)). The
		// SUS_RES may already have raced ahead of us — the latch catches it.
		s.drainTimed()
		deadline := time.Now().Add(s.ctrl.cfg.parkTimeout())
		parked := false
		s.mu.Lock()
		for {
			if s.closed {
				s.mu.Unlock()
				return ErrClosed
			}
			// Let a concurrently granted remote suspend finish draining.
			if s.m.State() == fsm.SusAcked {
				if !waitCond(s.cond, time.Until(deadline)) {
					s.mu.Unlock()
					return fmt.Errorf("napletsocket: waiting for SUS_RES on %s: timed out in %s", s.id, s.m.State())
				}
				continue
			}
			if s.susResReceived {
				// The peer's migration already finished.
				s.susResReceived = false
				if s.m.State() == fsm.SusSent {
					s.step(fsm.RecvSuspendAck) // -> SUSPENDED
				}
				if s.m.State() == fsm.SuspendWait {
					s.step(fsm.RecvSusRes) // -> SUSPENDED
				}
				break
			}
			switch s.m.State() {
			case fsm.SusSent:
				s.step(fsm.RecvAckWait) // -> SUSPEND_WAIT
				parked = true
			case fsm.Suspended:
				// Parked already: released by the peer's SUS_RES or RESUME.
				// Otherwise the peer's SUS was granted concurrently; park from
				// there.
				if !parked {
					s.step(fsm.RecvAckWait) // -> SUSPEND_WAIT
					parked = true
				}
			case fsm.SuspendWait:
				parked = true // already parked; wait for the release below
			}
			if s.m.State() == fsm.Suspended {
				break
			}
			if !waitCond(s.cond, time.Until(deadline)) {
				s.mu.Unlock()
				return fmt.Errorf("napletsocket: waiting for SUS_RES on %s: timed out in %s", s.id, s.m.State())
			}
		}
		s.mu.Unlock()
		return nil

	case wire.VerdictReject:
		if reply.Code == wire.RejectUnknownConn {
			// The peer's host does not know the connection — typically the
			// peer agent is itself mid-migration and its endpoint is
			// travelling in a bundle. Suspend ungracefully; our eventual
			// resume chases the peer through the location service, and the
			// send log covers anything lost in flight.
			s.drainToSuspended(fsm.Timeout)
			return nil
		}
		if reply.Code == wire.RejectRetry && time.Now().Before(deadline) {
			cancel()
			if !s.ctrl.pause(backoff) {
				return ErrClosed
			}
			if backoff < 100*time.Millisecond {
				backoff *= 2
			}
			goto retry
		}
		return fmt.Errorf("napletsocket: peer rejected suspend on %s: %s", s.id, reply.Reason)

	default:
		return fmt.Errorf("napletsocket: unexpected suspend verdict %s on %s", reply.Verdict, s.id)
	}
}

// delivered returns the receive high-water mark: every frame at or below it
// is safely in our buffer (which migrates with us).
func (s *Socket) delivered() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastEnqueued
}

// serve answers a peer's SUS, SUS_RES, RES or CLS. Which verdict, FSM step,
// latches and follow-up the message gets in the state it meets is onPeer's
// decision (proto.go); this is the one place that decision is carried out.
func (s *Socket) serve(m *wire.ControlMsg) []byte {
	s.mu.Lock()
	switch m.Type {
	case wire.MsgSuspend:
		s.trimSendLogLocked(m.LastSeq)
	case wire.MsgSusRes, wire.MsgResume:
		s.setPeerAddrsLocked(m.ControlAddr, m.DataAddr)
	}
	// The one wait on the responder path: settles says which transient
	// states the message waits out instead of being answered in, and why.
	settleDeadline := time.Now().Add(s.ctrl.cfg.drainTimeout())
	for !s.closed && settles(m.Type, s.m.State()) && waitCond(s.cond, time.Until(settleDeadline)) {
	}
	st := s.m.State()
	r := onPeer(m.Type, st, s.highPriority, s.ctrl.isMigrating(s.localAgent))
	if r.step != noStep {
		s.step(r.step)
	}
	// In latch bit order.
	for i, flag := range [...]*bool{&s.remoteSuspended, &s.owesSusRes, &s.susResReceived, &s.peerResumeParked, &s.suspending} {
		if r.set&(1<<i) != 0 {
			*flag = true
		}
	}
	sock := s.sock
	s.cond.Broadcast()
	s.mu.Unlock()

	switch r.then {
	case thenSuspended:
		go s.finishGranted(fsm.SusAcked, fsm.ExecSuspended)
	case thenClosed:
		go s.finishGranted(fsm.CloseAcked, fsm.ExecClosed)
	case thenGrantResume:
		s.grantResume(m)
	case thenFailZombie:
		if sock != nil {
			s.ctrl.tm.FailIfReconnecting(sock.TransportID(),
				fmt.Errorf("peer %s re-established connection %s", s.remoteAgent, s.id))
		}
	}
	if r.verdict == wire.VerdictReject {
		return s.reject(r.code, fmt.Sprintf("%s in state %s", m.Type, st))
	}
	return s.reply(r.verdict, func(rep *wire.ControlReply) {
		// A granted SUS or RES reports how far our buffer has got, so the
		// peer trims its send log and retransmits from there.
		if r.verdict == wire.VerdictAck && (m.Type == wire.MsgSuspend || m.Type == wire.MsgResume) {
			rep.LastSeq = s.delivered()
		}
	})
}

// finishGranted completes a suspend or close this side granted, off the
// control path: drain, so in-flight data reaches the buffer before the
// connection settles, then step from by ev (exec:suspended or exec:closed).
func (s *Socket) finishGranted(from fsm.State, ev fsm.Event) {
	s.drainAndClose()
	closing := ev == fsm.ExecClosed
	if closing {
		// The connection is over for the protocol and the journal, but what
		// the peer wrote before closing is still the application's to read:
		// the endpoint leaves the table with its last byte.
		s.ctrl.rv.disarm(connKey{id: s.id, agent: s.localAgent})
		s.ctrl.dropConnJournal(s)
	}
	s.mu.Lock()
	if s.m.State() == from {
		s.step(ev)
	}
	if closing {
		s.markClosedLocked(nil)
		s.releaseIfReadOutLocked()
	}
	s.mu.Unlock()
	if !closing {
		s.ctrl.checkpointConn(s)
	}
}

// drainToSuspended completes a local suspend the peer acked, or could not be
// asked: drain, then SUS_SENT -> SUSPENDED by ev.
func (s *Socket) drainToSuspended(ev fsm.Event) {
	s.drainTimed()
	s.mu.Lock()
	if s.m.State() == fsm.SusSent {
		s.step(ev)
	}
	s.mu.Unlock()
}

// ---- SUS_RES ----

// sendSusRes tells the parked low-priority peer that our migration is done
// (Fig 4(a)); sent from the new host with our new addresses. It retries a
// few times: a parked peer is pinned, but its host may be momentarily slow.
func (s *Socket) sendSusRes() error {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), s.ctrl.cfg.opTimeout())
		reply, err := s.request(ctx, wire.MsgSusRes, func(m *wire.ControlMsg) {
			m.ControlAddr = s.ctrl.ControlAddr()
			m.DataAddr = s.ctrl.DataAddr()
			m.LocEpoch = s.ctrl.locationEpoch(s.localAgent)
		})
		cancel()
		if err == nil && reply.Verdict == wire.VerdictAck {
			s.mu.Lock()
			s.owesSusRes = false
			s.mu.Unlock()
			return nil
		}
		if err == nil {
			err = fmt.Errorf("napletsocket: SUS_RES on %s got %s: %s", s.id, reply.Verdict, reply.Reason)
		}
		lastErr = err
		if !s.ctrl.pause(time.Duration(attempt+1) * 20 * time.Millisecond) {
			return ErrClosed
		}
	}
	return lastErr
}

// setPeerAddrsLocked records where the peer now is, as a CONNECT, SUS_RES or
// RES announced it or the location service reports it. The control address
// is parsed here, not per request; one that does not parse fails them until
// the peer is found again. Caller holds mu.
func (s *Socket) setPeerAddrsLocked(controlAddr, dataAddr string) {
	if controlAddr != "" && controlAddr != s.peerControlAddr {
		s.peerControlAddr = controlAddr
		s.peerControl, _ = rudp.ResolveAddr(controlAddr)
	}
	if dataAddr != "" {
		s.peerDataAddr = dataAddr
	}
}

// ---- resume ----

// Resume re-establishes a suspended connection, typically after the local
// agent lands on a new host. It retries through the location service when
// the peer has itself moved, and parks in RESUME_WAIT when the peer has a
// pending migration of its own (Fig 4(b)).
func (s *Socket) Resume() error {
	s.suspendOpMu.Lock()
	defer s.suspendOpMu.Unlock()
	start := time.Now()
	err := s.resumeLocked()
	o := s.ctrl.obs
	if err != nil {
		o.resumeErrors.Inc()
		s.olog(obs.LevelWarn, "resume failed: %v", err)
		return err
	}
	elapsed := time.Since(start)
	o.resumes.Inc()
	o.resumeMs.ObserveDuration(elapsed)
	s.olog(obs.LevelInfo, "resumed in %v", elapsed.Round(time.Microsecond))
	s.noteRecovered()
	s.ctrl.checkpointConn(s)
	return nil
}

func (s *Socket) resumeLocked() error {
	s.mu.Lock()
	switch st := s.m.State(); st {
	case fsm.Established:
		s.mu.Unlock()
		return nil
	case fsm.ResAcked:
		// A peer-initiated resume is mid-handoff; wait for it.
		s.mu.Unlock()
		_, err := s.waitState(s.ctrl.cfg.opTimeout(), fsm.Established)
		return err
	case fsm.Suspended:
		s.step(fsm.AppResume) // -> RES_SENT
		s.mu.Unlock()
	case fsm.Closed, fsm.CloseSent, fsm.CloseAcked:
		s.mu.Unlock()
		return ErrClosed
	default:
		s.mu.Unlock()
		return fmt.Errorf("napletsocket: cannot resume %s in state %s", s.id, st)
	}

	backoff := 10 * time.Millisecond
	deadline := time.Now().Add(s.ctrl.cfg.parkTimeout())
	for attempt := 0; ; attempt++ {
		s.mu.Lock()
		st := s.m.State()
		s.mu.Unlock()
		switch st {
		case fsm.Established:
			return nil
		case fsm.ResAcked:
			_, err := s.waitState(s.ctrl.cfg.opTimeout(), fsm.Established)
			return err
		case fsm.ResSent:
			// proceed below
		default:
			return fmt.Errorf("napletsocket: resume of %s interrupted in state %s", s.id, st)
		}
		done, err := s.resumeAttempt()
		if done || err != nil {
			return err
		}
		if time.Now().After(deadline) {
			// The peer has been unreachable (or unwilling) for the whole
			// park window: declare the connection dead so blocked readers
			// and writers fail instead of waiting forever.
			err := fmt.Errorf("%w: resume of %s timed out; peer unreachable", ErrClosed, s.id)
			s.mu.Lock()
			if s.m.State() == fsm.ResSent {
				s.step(fsm.Timeout) // back to SUSPENDED (terminal here)
			}
			s.markClosedLocked(err)
			s.mu.Unlock()
			s.ctrl.dropConn(s)
			return err
		}
		select {
		case <-s.ctrl.done:
			return ErrClosed
		default:
		}
		// Re-resolve the peer: it may have moved (or not yet landed).
		mgmtStart := time.Now()
		s.relookupPeer()
		s.ctrl.obs.resumeBD.Add(metrics.PhaseManagement, time.Since(mgmtStart))
		if !s.ctrl.pause(backoff) {
			return ErrClosed
		}
		if backoff < 200*time.Millisecond {
			backoff *= 2
		}
	}
}

// resumeAttempt sends one RES and processes the verdict. done=true means
// the operation concluded (successfully unless err is set); done=false
// asks the caller to retry.
func (s *Socket) resumeAttempt() (done bool, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), s.ctrl.cfg.opTimeout())
	defer cancel()
	hsStart := time.Now()
	reply, rerr := s.request(ctx, wire.MsgResume, func(m *wire.ControlMsg) {
		m.ControlAddr = s.ctrl.ControlAddr()
		m.DataAddr = s.ctrl.DataAddr()
		m.LastSeq = s.delivered()
		m.LocEpoch = s.ctrl.locationEpoch(s.localAgent)
	})
	s.ctrl.obs.resumeBD.Add(metrics.PhaseHandshaking, time.Since(hsStart))
	if rerr != nil {
		// Peer host unreachable (mid-migration or failed): retry.
		return false, nil
	}
	switch reply.Verdict {
	case wire.VerdictAck:
		dialStart := time.Now()
		err := s.dialAndInstall(wire.HandoffResume, reply.LastSeq)
		s.ctrl.obs.resumeBD.Add(metrics.PhaseOpenSocket, time.Since(dialStart))
		if err != nil {
			s.ctrl.logf("conn %s: resume handoff failed: %v", s.id, err)
			return false, nil
		}
		s.mu.Lock()
		s.establishLocked(fsm.ResSent, fsm.RecvResumeAck)
		s.mu.Unlock()
		return true, nil

	case wire.VerdictResumeWait:
		// Non-overlapped concurrent migration: the peer has a parked
		// suspend to finish; our resume parks until the peer's RES reaches
		// us (Fig 4(b), side A).
		s.mu.Lock()
		if s.m.State() == fsm.ResSent {
			s.step(fsm.RecvResumeWait) // -> RESUME_WAIT
		}
		s.mu.Unlock()
		if _, werr := s.waitState(s.ctrl.cfg.parkTimeout(), fsm.Established); werr != nil {
			return true, fmt.Errorf("napletsocket: parked resume on %s: %w", s.id, werr)
		}
		return true, nil

	case wire.VerdictReject:
		switch reply.Code {
		case wire.RejectResumeRace:
			// The higher-priority peer is resuming toward us; its RES will
			// land here and complete the connection.
			if _, werr := s.waitState(s.ctrl.cfg.opTimeout(), fsm.Established); werr == nil {
				return true, nil
			}
			return false, nil
		case wire.RejectUnknownConn, wire.RejectRetry:
			// The peer agent moved on (or has not landed); re-resolve and
			// chase it through the location service.
			return false, nil
		default:
			return true, fmt.Errorf("napletsocket: peer rejected resume on %s: %s", s.id, reply.Reason)
		}

	default:
		return true, fmt.Errorf("napletsocket: unexpected resume verdict %s on %s", reply.Verdict, s.id)
	}
}

// relookupPeer refreshes the peer's addresses from the location service.
// The resume loop only re-resolves after failing to reach the peer at its
// last known addresses, so the cached entry is evicted first: serving it
// back would pin the chase to the address that just failed.
func (s *Socket) relookupPeer() {
	ctx, cancel := context.WithTimeout(context.Background(), s.ctrl.cfg.opTimeout())
	defer cancel()
	s.ctrl.invalidateLocation(s.remoteAgent)
	rec, err := s.ctrl.lookupAgent(ctx, s.remoteAgent)
	if err != nil {
		return
	}
	s.mu.Lock()
	s.setPeerAddrsLocked(rec.Loc.ControlAddr, rec.Loc.DataAddr)
	s.mu.Unlock()
}

// grantResume arms the redirector rendezvous and completes establishment
// when the mover's handoff lands. The wait is a rendezvous
// callback with a timer-wheel deadline, not a parked goroutine: a
// migration wave resuming 10k connections arms 10k map entries.
func (s *Socket) grantResume(m *wire.ControlMsg) {
	peerHasUpTo := m.LastSeq
	// The redirect span covers the stationary peer's half of the resume:
	// redirector armed, the mover's handoff socket landing, and the swap to
	// ESTABLISHED. It joins the mover's migration trace via the RES stamp.
	redirect := s.ctrl.obs.tr.StartSpan(
		obs.SpanContext{Trace: obs.TraceID(m.TraceID), Span: obs.SpanID(m.SpanID)}, "redirect")
	backToSuspended := func() {
		s.mu.Lock()
		if s.m.State() == fsm.ResAcked {
			s.step(fsm.Timeout)
		}
		s.mu.Unlock()
	}
	s.ctrl.rv.armFunc(connKey{id: s.id, agent: s.localAgent}, s.ctrl.cfg.opTimeout(),
		func(sock *transport.Stream) {
			defer redirect.End()
			if s.ctrl.closing.Load() {
				sock.Close()
				return
			}
			if err := s.installSocket(sock, peerHasUpTo); err != nil {
				redirect.Annotate("install failed: " + err.Error())
				s.ctrl.logf("conn %s: installing resumed socket: %v", s.id, err)
				backToSuspended()
				return
			}
			s.mu.Lock()
			s.establishLocked(fsm.ResAcked, fsm.ExecResumed)
			s.mu.Unlock()
			s.noteRecovered()
			s.ctrl.checkpointConn(s)
		},
		func() {
			defer redirect.End()
			if !s.ctrl.closing.Load() {
				redirect.Annotate("handoff timeout")
				backToSuspended()
			}
		})
}

// ---- close ----

// Close actively closes the connection from ESTABLISHED or SUSPENDED (Fig
// 3), notifying the peer with a CLS exchange. It is idempotent.
func (s *Socket) Close() error {
	s.suspendOpMu.Lock()
	defer s.suspendOpMu.Unlock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		// A peer-closed endpoint stays resident while it holds unread data;
		// closing it abandons that data.
		s.ctrl.tab.drop(s)
		return nil
	}
	s.ctrl.obs.closes.Inc()
	switch s.m.State() {
	case fsm.Listen:
		s.step(fsm.AppClose) // -> CLOSED
		s.markClosedLocked(nil)
		s.mu.Unlock()
		return nil
	case fsm.ResAcked, fsm.ResSent, fsm.ResumeWait, fsm.SusAcked, fsm.SusSent, fsm.SuspendWait:
		// Mid-operation: let the in-flight suspend/resume settle so the
		// peer gets a proper CLS instead of a silently dead endpoint.
		s.mu.Unlock()
		s.waitState(s.ctrl.cfg.opTimeout(), fsm.Established, fsm.Suspended)
		s.mu.Lock()
	}
	if st := s.m.State(); st != fsm.Established && st != fsm.Suspended {
		// Closing or closed already, or the operation in flight never
		// settled: tear down locally.
		s.markClosedLocked(nil)
		s.mu.Unlock()
		s.ctrl.dropConn(s)
		return nil
	}
	s.step(fsm.AppClose) // -> CLOSE_SENT
	s.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), s.ctrl.cfg.opTimeout())
	defer cancel()
	reply, err := s.request(ctx, wire.MsgClose, nil)
	// Drain before finalizing: the peer acked and is draining too, so all
	// in-flight frames (ours and theirs) land in the buffers — the paper's
	// exactly-once guarantee extends through a graceful close.
	if err == nil && reply.Verdict == wire.VerdictAck {
		s.drainAndClose()
	}
	s.mu.Lock()
	if err == nil && reply.Verdict == wire.VerdictAck {
		if s.m.State() == fsm.CloseSent {
			s.step(fsm.RecvCloseAck) // -> CLOSED
		}
	} else if s.m.State() == fsm.CloseSent {
		s.step(fsm.Timeout) // close anyway
	}
	s.markClosedLocked(nil)
	s.mu.Unlock()
	s.ctrl.dropConn(s)
	s.olog(obs.LevelInfo, "closed")
	return nil
}
