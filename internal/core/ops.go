package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"naplet/internal/fsm"
	"naplet/internal/metrics"
	"naplet/internal/obs"
	"naplet/internal/rudp"
	"naplet/internal/wire"
)

// This file implements the connection migration operations of Sections
// 2.2–3.2 of the paper. Suspend, Resume and Close classify the local call
// against the connection's state (the local/remote-suspend priority rules
// for multiple connections included); what the SUS, RES, CLS or SUS_RES they
// send then gets is carried out by ask, the interpreter of the request table
// (onReply, proto.go), and what such a message from the peer gets by serve,
// the interpreter of the reply table (onPeer).

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

// ---- the requester ----

// ask sends msg and carries out what the request table (onReply) makes of
// its outcome: the one place that decision is carried out, and the one retry
// loop of the four requests, asking again while the rule says so and the
// park window lasts.
func (s *Socket) ask(msg wire.MsgType) error {
	var (
		r   replyRule // the rule the last try carried out
		err error
	)
	switch s.ctrl.retry(time.Now().Add(s.ctrl.cfg.parkTimeout()), func() bool {
		out, reply := overtaken, (*wire.ControlReply)(nil)
		if sent, ok := sentIn[msg]; !r.retry || !ok || s.State() == sent {
			if r.relookup {
				s.relookupPeer()
			}
			out, reply = s.send(msg)
		}
		r, err = s.carryOut(msg, out, reply)
		return !r.retry
	}) {
	case errExpired:
		_, err = s.carryOut(msg, expired, nil)
	case ErrClosed:
		return ErrClosed
	}
	return err
}

// breakdown is the phase breakdown a request's costs are charged to.
func (s *Socket) breakdown(msg wire.MsgType) *metrics.Breakdown {
	switch msg {
	case wire.MsgSuspend:
		return s.ctrl.obs.suspendBD
	case wire.MsgResume:
		return s.ctrl.obs.resumeBD
	}
	return nil
}

// send makes one request and reports its outcome. A message carries what
// serve acts on: LastSeq trims the peer's send log (SUS) or starts its
// retransmission (RES); our addresses and location epoch tell it where we
// now are (SUS_RES, RES).
func (s *Socket) send(msg wire.MsgType) (outcome, *wire.ControlReply) {
	ctx, cancel := context.WithTimeout(context.Background(), s.ctrl.cfg.opTimeout())
	defer cancel()
	start := time.Now()
	reply, err := s.request(ctx, msg, func(m *wire.ControlMsg) {
		if msg == wire.MsgSuspend || msg == wire.MsgResume {
			m.LastSeq = s.delivered()
		}
		if msg == wire.MsgSusRes || msg == wire.MsgResume {
			m.ControlAddr, m.DataAddr = s.ctrl.ControlAddr(), s.ctrl.DataAddr()
			m.LocEpoch = s.ctrl.locationEpoch(s.localAgent)
		}
	})
	s.breakdown(msg).Add(metrics.PhaseHandshaking, time.Since(start))
	if err != nil {
		s.olog(obs.LevelDebug, "%s undeliverable: %v", msg, err)
		return unreachable, nil
	}
	return outcomeOf(reply.Verdict, reply.Code), reply
}

// carryOut carries out onReply(msg, out), reply being the peer's if any. It
// returns the rule it ended up carrying out, whose retry says whether to ask
// again, and otherwise how the operation ended.
func (s *Socket) carryOut(msg wire.MsgType, out outcome, reply *wire.ControlReply) (replyRule, error) {
	r := onReply(msg, out)
	var err error
	bd := s.breakdown(msg)
	if r.handoff {
		if !slices.Contains(r.from, s.State()) {
			return s.carryOut(msg, overtaken, nil) // the peer's RES was granted first
		}
		start := time.Now()
		err := s.dialAndInstall(wire.HandoffResume, reply.LastSeq)
		bd.Add(metrics.PhaseOpenSocket, time.Since(start))
		if err != nil {
			s.olog(obs.LevelWarn, "resume handoff failed: %v", err)
			return s.carryOut(msg, unreachable, nil)
		}
	}
	if r.drain {
		if reply != nil { // only a granted SUS carries a cursor (serve)
			s.mu.Lock()
			s.trimSendLogLocked(reply.LastSeq)
			s.mu.Unlock()
		}
		start := time.Now()
		s.drainAndClose()
		bd.Add(metrics.PhaseDrain, time.Since(start))
	}
	s.mu.Lock()
	// A suspend we granted may still be draining: wait for the
	// exec:suspended it is about to take, and step from there.
	settleDeadline := time.Now().Add(s.ctrl.cfg.drainTimeout())
	for !s.closed && s.m.State() == fsm.SusAcked && waitCond(s.cond, time.Until(settleDeadline)) {
	}
	for i, flag := range s.latchFields() {
		if r.early&(1<<i) != 0 && *flag {
			*flag = false
			r = onReply(msg, ack) // the peer's release beat this reply here
		}
		if r.clear&(1<<i) != 0 {
			*flag = false
		}
	}
	st := s.m.State()
	if r.step != noStep && slices.Contains(r.from, st) {
		if r.handoff {
			s.establishLocked(st, r.step) // and probe the stream just installed
		} else {
			s.step(r.step)
		}
	}
	if r.fail {
		detail := fmt.Sprintf("%s on %s: %s in %s", msg, s.id, out, st)
		if reply != nil {
			detail += ": " + reply.Reason
		}
		err = fmt.Errorf("napletsocket: %s", detail)
		if r.close {
			err = fmt.Errorf("%w: %s", ErrClosed, detail)
		}
	}
	if r.close {
		s.markClosedLocked(err)
	}
	s.mu.Unlock()
	if r.close {
		s.ctrl.dropConn(s)
	}
	if r.wait != noWait {
		timeout := s.ctrl.cfg.opTimeout()
		if r.park {
			timeout = s.ctrl.cfg.parkTimeout()
		}
		switch _, werr := s.waitState(timeout, r.wait); {
		case werr == ErrClosed:
			return r, ErrClosed
		case werr != nil && r.park:
			return s.carryOut(msg, expired, nil)
		case werr != nil:
			return r, fmt.Errorf("napletsocket: %s on %s: %w", msg, s.id, werr)
		}
	}
	return r, err
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
	s.mu.Lock()
	switch st := s.m.State(); st {
	case fsm.Established:
		s.step(fsm.AppSuspend) // -> SUS_SENT
		s.mu.Unlock()
		return s.ask(wire.MsgSuspend)

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

	case fsm.SuspendWait:
		s.mu.Unlock()
		_, err := s.waitState(s.ctrl.cfg.parkTimeout(), fsm.Suspended)
		return err

	case fsm.SusAcked, fsm.ResAcked, fsm.ResSent, fsm.ResumeWait:
		// A remote suspend is mid-drain, or a resume is in flight —
		// possibly peer-initiated (RES_ACKED does not hold the operation
		// mutex while the handoff lands). Wait for it to settle, then
		// reclassify; dropping the connection here would strand the peer
		// on a live endpoint.
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

// delivered returns the receive high-water mark: every frame at or below it
// is safely in our buffer (which migrates with us).
func (s *Socket) delivered() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastEnqueued
}

// errPeerResumed is the failure a degrade rule records: the peer's RES says
// its end of the stream is gone.
var errPeerResumed = errors.New("peer resumed: its end of the stream is gone")

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
	r := onPeer(m.Type, st, s.highPriority, s.ctrl.tab.isMigrating(s.localAgent))
	if r.degrade {
		s.degradeLocked(errPeerResumed)
	}
	if r.step != noStep {
		s.step(r.step)
	}
	for i, flag := range s.latchFields() {
		if r.set&(1<<i) != 0 {
			*flag = true
		}
	}
	// The wait for the mover's handoff starts and stops under the same hold
	// of mu as the step, so no second RES can come between them. The
	// redirect span covers the stationary peer's half of the resume, up to
	// ESTABLISHED; it joins the mover's migration trace via the RES stamp.
	switch r.then {
	case thenGrantResume:
		s.awaitHandoffLocked(&handoffWait{state: fsm.ResAcked, nonce: m.Nonce, lastSeq: m.LastSeq,
			span: s.ctrl.obs.tr.StartSpan(obs.SpanContext{Trace: obs.TraceID(m.TraceID), Span: obs.SpanID(m.SpanID)}, "redirect")})
	case thenStandDown:
		s.endHandoffLocked("stood down")
	}
	s.cond.Broadcast()
	s.mu.Unlock()

	switch r.then {
	case thenSuspended:
		go s.finishGranted(fsm.SusAcked, fsm.ExecSuspended)
	case thenClosed:
		go s.finishGranted(fsm.CloseAcked, fsm.ExecClosed)
	}
	if r.verdict == wire.VerdictReject {
		return s.reject(r.code, fmt.Sprintf("%s in state %s", m.Type, st))
	}
	return s.reply(r.verdict, func(rep *wire.ControlReply) {
		// Every answer but a refusal to a SUS or RES reports how far our
		// buffer has got: a granted peer trims its log, retransmits the rest.
		if m.Type == wire.MsgSuspend || m.Type == wire.MsgResume {
			rep.LastSeq = s.delivered()
		}
	})
}

// latchFields lists the Socket flags the latch bits name, in bit order.
func (s *Socket) latchFields() [5]*bool {
	return [...]*bool{&s.remoteSuspended, &s.owesSusRes, &s.susResReceived, &s.peerResumeParked, &s.suspending}
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
	case fsm.Established, fsm.ResAcked:
		// Resumed already, or a peer-initiated resume is mid-handoff.
		s.mu.Unlock()
		_, err := s.waitState(s.ctrl.cfg.opTimeout(), fsm.Established)
		return err
	case fsm.Suspended:
		s.step(fsm.AppResume) // -> RES_SENT
		s.mu.Unlock()
		return s.ask(wire.MsgResume)
	case fsm.Closed, fsm.CloseSent, fsm.CloseAcked:
		s.mu.Unlock()
		return ErrClosed
	default:
		s.mu.Unlock()
		return fmt.Errorf("napletsocket: cannot resume %s in state %s", s.id, st)
	}
}

// relookupPeer refreshes the peer's addresses from the location service, a
// cost of the resume's management phase. A resume only re-resolves after
// failing to reach the peer at its last known addresses, so the cached entry
// is evicted first: serving it back would pin the chase to the address that
// just failed.
func (s *Socket) relookupPeer() {
	defer func(start time.Time) { s.ctrl.obs.resumeBD.Add(metrics.PhaseManagement, time.Since(start)) }(time.Now())
	ctx, cancel := context.WithTimeout(context.Background(), s.ctrl.cfg.opTimeout())
	defer cancel()
	s.ctrl.loc.Invalidate(s.remoteAgent)
	rec, err := s.ctrl.loc.Lookup(ctx, s.remoteAgent)
	if err != nil {
		return
	}
	s.mu.Lock()
	s.setPeerAddrsLocked(rec.Loc.ControlAddr, rec.Loc.DataAddr)
	s.mu.Unlock()
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
	s.ask(wire.MsgClose)
	s.olog(obs.LevelInfo, "closed")
	return nil
}
