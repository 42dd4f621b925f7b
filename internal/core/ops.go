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
// 2.2–3.2 of the paper as the interpreters of the three tables in proto.go:
// serve carries out the reply table (onPeer), what a peer's SUS, SUS_RES, RES
// or CLS gets; ask the request table (onReply), what becomes of the same four
// sent by us, and of an open's CONNECT; and local the local table (onLocal),
// what the endpoint's own calls (Suspend, Resume, Close) and events do.

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
	case wire.MsgConnect:
		return s.ctrl.obs.openBD
	case wire.MsgSuspend:
		return s.ctrl.obs.suspendBD
	case wire.MsgResume:
		return s.ctrl.obs.resumeBD
	}
	return nil
}

// send makes one request and reports its outcome: the message encoded once
// and signed in place, the reply verified over the bytes it came in. A
// message carries what serve (or handleConnect) acts on: LastSeq trims the
// peer's send log (SUS) or starts its retransmission (RES); our addresses
// tell it where we now are (CONNECT, SUS_RES, RES), with our location epoch
// (SUS_RES, RES); CONNECT names the transport whose secret keys the
// connection and which the target opens the data stream on.
func (s *Socket) send(msg wire.MsgType) (outcome, *wire.ControlReply) {
	m := &wire.ControlMsg{Type: msg, ConnID: s.id, From: s.localAgent, To: s.remoteAgent}
	if msg == wire.MsgSuspend || msg == wire.MsgResume {
		m.LastSeq = s.delivered()
	}
	if msg == wire.MsgConnect || msg == wire.MsgSusRes || msg == wire.MsgResume {
		m.ControlAddr, m.DataAddr = s.ctrl.ControlAddr(), s.ctrl.DataAddr()
	}
	if msg == wire.MsgSusRes || msg == wire.MsgResume {
		m.LocEpoch = s.ctrl.locationEpoch(s.localAgent)
	}
	s.mu.Lock()
	s.sendNonce++
	m.Nonce, m.TraceID, m.SpanID = s.sendNonce, s.traceSpan.Context().Trace, s.traceSpan.Context().Span
	if msg == wire.MsgConnect {
		m.TransportID = s.connectVia
	}
	addr := s.peerControl
	s.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), s.ctrl.cfg.opTimeout())
	defer cancel()
	start := time.Now()
	raw, err := s.ctrl.ep.RequestTo(ctx, addr, wire.SignEncoded(m.Encode(), s.auth))
	s.breakdown(msg).Add(metrics.PhaseHandshaking, time.Since(start))
	var reply *wire.ControlReply
	if err == nil {
		reply, err = wire.DecodeControlReply(raw)
	}
	// A controller that does not know the connection (the peer agent moved
	// on, or its endpoint is travelling in a bundle) cannot sign: unsigned
	// rejections pass as advisory — a forger achieves no more than a refusal
	// from the peer would.
	if err == nil && !wire.VerifyEncoded(raw, s.auth) && (reply.Verdict != wire.VerdictReject || reply.Tag != [wire.TagSize]byte{}) {
		err = fmt.Errorf("napletsocket: unauthenticated %s reply on %s", msg, s.id)
	}
	if err != nil {
		s.olog(obs.LevelDebug, "%s undeliverable: %v", msg, err)
		return unreachable, nil
	}
	return outcomeOf(reply.Verdict, reply.Code), reply
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
		err := s.dialAndInstall(reply.LastSeq)
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
	if s.latches&r.early != 0 {
		s.latches &^= r.early
		r = onReply(msg, ack) // the peer's release beat this reply here
	}
	s.latches &^= r.clear
	st := s.m.State()
	if r.step != noStep && slices.Contains(r.from, st) {
		s.step(r.step)
		if r.handoff {
			s.establishedLocked() // and probe the stream just installed
		}
	}
	if r.fail {
		var reason string
		if reply != nil {
			reason = ": " + reply.Reason
		}
		err = fmt.Errorf("napletsocket: %s on %s: %w in %s%s", msg, s.id, out, st, reason)
		if r.close {
			err = fmt.Errorf("%w (%w)", err, ErrClosed)
		}
	}
	if r.close {
		s.markClosedLocked(err)
	}
	// The wait, under the hold that classified the reply: a wait for
	// ESTABLISHED is for the peer's stream, the open-socket phase.
	parkedOut := false
	if r.wait != nil {
		timeout := s.ctrl.cfg.opTimeout()
		if r.park {
			timeout = s.ctrl.cfg.parkTimeout()
		}
		start := time.Now()
		switch werr := s.waitStateLocked(timeout, r.wait...); {
		case werr == ErrClosed:
			err = s.closedErrLocked()
		case werr != nil && r.park:
			parkedOut = true
		case werr != nil:
			err = fmt.Errorf("napletsocket: %s on %s: %w", msg, s.id, werr)
		}
		if slices.Contains(r.wait, fsm.Established) && !r.park {
			bd.Add(metrics.PhaseOpenSocket, time.Since(start))
		}
	}
	s.mu.Unlock()
	if r.close {
		s.ctrl.dropConn(s)
	}
	if parkedOut {
		return s.carryOut(msg, expired, nil)
	}
	return r, err
}

// ---- the responder ----

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
	r := onPeer(m.Type, st, s.highPriority, s.guardsLocked()&guardMigrating != 0)
	if r.degrade {
		s.degradeLocked(errPeerResumed)
	}
	if r.step != noStep {
		s.step(r.step)
	}
	s.latches |= r.set
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

// ---- the endpoint's own calls and events ----

// Suspend suspends the connection ahead of a local migration (or under
// explicit application control, per the paper's suspend() interface). It
// returns once the connection is safely in SUSPENDED on this side — which,
// under concurrent migration, may mean waiting for the higher-priority
// peer's migration to finish (SUSPEND_WAIT).
func (s *Socket) Suspend() error {
	o := s.ctrl.obs
	return s.call(callSuspend, "suspended", o.suspends, o.suspendErrors, o.suspendMs)
}

// Resume re-establishes a suspended connection, typically after the local
// agent lands on a new host. It retries through the location service when
// the peer has itself moved, and parks in RESUME_WAIT when the peer has a
// pending migration of its own (Fig 4(b)).
func (s *Socket) Resume() error {
	o := s.ctrl.obs
	return s.call(callResume, "resumed", o.resumes, o.resumeErrors, o.resumeMs)
}

// call makes a Suspend or Resume, counts its outcome and cost, and
// checkpoints what one that succeeded leaves.
func (s *Socket) call(ev localEvent, done string, ok, failed *obs.Counter, took *obs.Histogram) error {
	s.suspendOpMu.Lock()
	defer s.suspendOpMu.Unlock()
	start := time.Now()
	s.mu.Lock()
	if _, err := s.local(ev, nil); err != nil {
		failed.Inc()
		s.olog(obs.LevelWarn, "%s failed: %v", ev, err)
		return err
	}
	elapsed := time.Since(start)
	ok.Inc()
	took.ObserveDuration(elapsed)
	s.olog(obs.LevelInfo, "%s in %v", done, elapsed.Round(time.Microsecond))
	s.ctrl.checkpointConn(s)
	return nil
}

// Close actively closes the connection from ESTABLISHED or SUSPENDED (Fig
// 3), notifying the peer with a CLS exchange. It is idempotent: on an
// endpoint already closed, it lets go of what the peer wrote and the
// application has not read.
func (s *Socket) Close() error {
	s.suspendOpMu.Lock()
	defer s.suspendOpMu.Unlock()
	s.mu.Lock()
	if r, _ := s.local(callClose, nil); r.end != endForget {
		s.ctrl.obs.closes.Inc()
		if r.ask == wire.MsgClose {
			s.olog(obs.LevelInfo, "closed")
		}
	}
	return nil
}

// local carries out onLocal for ev, entered with mu held and left with it
// released. Under that hold go the step, the flags, the wait (which returns
// with mu held, so the cell it classifies anew is the state the wait ended
// on) and the end's work on the stream and the endpoint; after it, the
// request and the rest of the end. cause is the error the event carries, if
// any. It returns the last rule carried out and the call's error.
func (s *Socket) local(ev localEvent, cause error) (localRule, error) {
	var (
		st   fsm.State
		r    localRule
		werr error
	)
	for again := true; again; {
		st = s.m.State()
		r = onLocal(ev, st, s.latches, s.highPriority, s.guardsLocked())
		if r.step != noStep {
			s.step(r.step)
		}
		if s.latches = s.latches&^r.clear | r.set; r.set != 0 {
			s.cond.Broadcast() // a drain waits for latchDrained
		}
		again, werr = r.again, nil
		if r.wait != nil {
			timeout := [...]time.Duration{s.ctrl.cfg.opTimeout(), s.ctrl.cfg.parkTimeout(), s.ctrl.cfg.drainTimeout()}[r.bound]
			werr = s.waitStateLocked(timeout, r.wait...)
			again = again && werr == nil || werr == ErrClosed
		}
	}
	if werr != nil && r.end == endDone {
		s.mu.Unlock()
		return r, fmt.Errorf("napletsocket: %s on %s: %w", ev, s.id, werr)
	}
	var err error
	switch r.end {
	case endFail:
		s.failLocked(cause)
	case endEstablish:
		s.establishedLocked()
	case endDropStream:
		s.dropSockLocked()
	case endCloseHere, endGiveUp:
		s.markClosedLocked(cause)
	case endClosed:
		err = s.closedErrLocked()
	case endRefused:
		err = fmt.Errorf("napletsocket: cannot %s %s in state %s", ev, s.id, st)
	}
	s.mu.Unlock()
	if r.ask != wire.MsgInvalid {
		return r, s.ask(r.ask)
	}
	switch r.end {
	case endCloseHere:
		s.ctrl.dropConn(s)
	case endGiveUp:
		s.ctrl.dropConn(s)
		// Its outcome changes nothing here; it ends within the operation
		// timeout, or when the controller closes.
		go s.ask(wire.MsgClose)
	case endForget:
		s.ctrl.tab.drop(s)
	case endEstablish:
		s.ctrl.checkpointConn(s)
	case endResume:
		_ = s.Resume() // it logs its own failure
	}
	return r, err
}

// guardsLocked reads the guards, in their bit order: the one place that asks
// whether the endpoint is closed, the host closing or the agent migrating.
// Caller holds mu.
func (s *Socket) guardsLocked() (g guard) {
	for i, holds := range [...]bool{s.closed, s.ctrl.closing.Load(), s.ctrl.tab.isMigrating(s.localAgent)} {
		if holds {
			g |= 1 << i
		}
	}
	return g
}
