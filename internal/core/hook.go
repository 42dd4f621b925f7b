package core

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"naplet/internal/metrics"
	"naplet/internal/obs"
	"naplet/internal/wire"
)

// This file makes the Controller an agent migration hook (agent.Hook,
// satisfied structurally): before an agent departs, all of its connections
// are suspended — per the multi-connection rules of Section 3.2 — and
// serialized, including every buffered undelivered byte; after it lands,
// the connections are reconstructed and resumed from the new host.

// HookName keys the controller's blob in migration bundles.
func (ctrl *Controller) HookName() string { return "napletsocket" }

// PreDepart suspends and serializes all of the departing agent's
// connections. Connections whose suspend cannot complete are closed rather
// than blocking the migration forever.
func (ctrl *Controller) PreDepart(agentID string) ([]byte, error) {
	conns := ctrl.tab.setMigrating(agentID, true)
	ctrl.mu.Lock()
	ss := ctrl.listeners[agentID]
	ctrl.mu.Unlock()
	defer ctrl.tab.setMigrating(agentID, false)

	// Deterministic suspend order, so multi-connection concurrent
	// migrations interleave the way Section 3.2 analyzes.
	sort.Slice(conns, func(i, j int) bool {
		return bytes.Compare(conns[i].id[:], conns[j].id[:]) < 0
	})

	o := ctrl.obs
	o.departs.Inc()

	// Join the migration trace the agent layer rooted (published under the
	// agent id), or root one here when the hook is driven directly.
	var depart *obs.Span
	if tc := o.tr.Active(agentID); tc.Valid() {
		depart = o.tr.StartSpan(tc, "depart")
	} else {
		depart = o.tr.StartTrace("migrate " + agentID)
	}
	defer depart.End()

	// The blob is written as the connections suspend: each record is
	// appended under its socket's lock, straight from the segments.
	blob := beginBlob(depart.Context().Marshal())
	shipped := 0
	for _, s := range conns {
		susSp := depart.Child("suspend")
		susSp.Annotate("conn=" + s.id.String())
		s.setTraceSpan(susSp)
		if err := s.Suspend(); err != nil {
			susSp.Annotate("failed: " + err.Error())
			susSp.End()
			if err == ErrClosed {
				// What the peer wrote before closing still moves with the
				// agent (Section 3.1's guarantee covers a close, too).
				if rec, peerClosed := s.serialize(blob); peerClosed {
					blob = rec
					shipped++
					o.connsShipped.Inc()
				}
				ctrl.dropConn(s)
				continue
			}
			s.olog(obs.LevelError, "suspend for migration of %s failed (%v); dropping connection", agentID, err)
			s.Close()
			continue
		}
		susSp.End()
		ckSp := depart.Child("checkpoint")
		szStart := time.Now()
		blob, _ = s.serialize(blob)
		o.suspendBD.Add(metrics.PhaseSerialize, time.Since(szStart))
		ckSp.End()
		shipped++
		o.connsShipped.Inc()
		ctrl.dropConn(s)
	}

	listening := ss != nil && !ss.isClosed()
	var backlog [][16]byte
	if listening {
		ss.mu.Lock()
		for _, pending := range ss.queue {
			backlog = append(backlog, pending.id)
		}
		ss.mu.Unlock()
		// The listener itself stays behind only as a tombstone; remove it
		// so new CONNECTs are answered with a retry verdict until the
		// agent lands.
		ctrl.mu.Lock()
		if ctrl.listeners[agentID] == ss {
			delete(ctrl.listeners, agentID)
		}
		ctrl.mu.Unlock()
	}

	blob = sealBlob(blob, shipped, listening, backlog, time.Now())
	ctrl.olog(obs.LevelInfo, "agent %s departing with %d connections (%d bytes serialized)",
		agentID, shipped, len(blob))
	return blob, nil
}

// snapshotLocked captures the connection's full state without disturbing
// the live object — the form journaled at lifecycle edges and shipped in
// migration bundles. The state aliases the segments and the session key, so
// the caller encodes it before releasing mu. Caller holds mu.
func (s *Socket) snapshotLocked() connState {
	st := connState{
		ID:              s.id,
		LocalAgent:      s.localAgent,
		RemoteAgent:     s.remoteAgent,
		SessionKey:      s.sessionKey,
		NextSendSeq:     s.nextSendSeq,
		LastEnqueued:    s.lastEnqueued,
		PeerControlAddr: s.peerControlAddr,
		PeerDataAddr:    s.peerDataAddr,
		SendNonce:       s.sendNonce,
		LastPeerNonce:   s.lastPeerNonce,
		OwesSusRes:      s.owesSusRes,
		Accepted:        s.accepted,
	}
	if len(s.recvQ) > 0 {
		st.RecvBuf = make([][]byte, len(s.recvQ))
		for i := range s.recvQ {
			st.RecvBuf[i] = s.recvQ[i].buf[s.recvQ[i].off:]
		}
		if s.readDone > 0 || s.readTail {
			// The frame under the read cursor is half delivered: its rest
			// travels as the leftover tail, with the identity and provenance
			// of the message it belongs to.
			f, size := wire.FrameAt(st.RecvBuf[0])
			st.RecvBuf[0] = st.RecvBuf[0][size:]
			st.Leftover, st.LeftoverSeq, st.LeftoverBuf = f.Payload[s.readDone:], f.Seq, s.recvQ[0].via
		}
	}
	if len(s.sendLog) > 0 {
		st.SendLog = make([][]byte, len(s.sendLog))
		for i := range s.sendLog {
			st.SendLog[i] = s.sendLog[i].buf
		}
	}
	return st
}

// serialize appends the suspended connection's record to dst and detaches
// the local object: its segments go back to the pool and the object is
// marked with ErrMigrated, so a stray reader can neither hang on the dead
// handle nor double-deliver buffered data. It also reports whether the
// record is that of an endpoint the peer closed with data still unread.
func (s *Socket) serialize(dst []byte) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.snapshotLocked()
	st.PeerClosed = s.closed && s.closeErr == nil && len(s.recvQ) > 0
	dst = st.appendTo(dst)
	for i := range s.recvQ {
		wire.PutPayload(s.recvQ[i].buf)
	}
	s.recvQ, s.recvHeld = nil, 0
	s.readDone, s.readTail = 0, false
	s.markClosedLocked(ErrMigrated)
	s.closeErr = ErrMigrated // also on an endpoint the peer had already closed
	return dst, st.PeerClosed
}

// PostArrive reconstructs the arriving agent's connections and kicks off
// their resumption: a normal RESUME for most, a SUS_RES release for
// connections whose low-priority peer is parked behind our migration
// (overlapped concurrent migration, Fig 4(a)).
func (ctrl *Controller) PostArrive(agentID string, blob []byte) error {
	if len(blob) == 0 {
		return nil
	}
	// All or nothing: the whole blob is decoded and validated, and every
	// endpoint built, before the first one is registered or the listener
	// re-created.
	hb, err := decodeHookBlob(blob)
	if err != nil {
		return fmt.Errorf("napletsocket: restoring connections of %s: %w", agentID, err)
	}
	ctrl.obs.arrivals.Inc()
	ctrl.olog(obs.LevelInfo, "agent %s arrived with %d connections", agentID, len(hb.Conns))

	// Join the migration trace the origin sealed into the blob; arrival
	// work (restore, resume) lands under it on this host's tracer.
	var arrive *obs.Span
	if tc, ok := obs.UnmarshalSpanContext(hb.Trace); ok {
		arrive = ctrl.obs.tr.StartSpan(tc, "arrive")
		if !hb.DepartedAt.IsZero() {
			arrive.Annotate(fmt.Sprintf("in-flight=%v", time.Since(hb.DepartedAt).Round(time.Microsecond)))
		}
	}
	defer arrive.End()

	socks := make([]*Socket, len(hb.Conns))
	for i := range hb.Conns {
		restSp := arrive.Child("restore")
		socks[i], err = ctrl.buildConn(&hb.Conns[i], 0)
		restSp.End()
		if err != nil {
			return err
		}
	}
	var ss *ServerSocket
	if hb.HasListener {
		ss, err = ctrl.ListenAs(agentID, ctrl.cfg.Guard.IssueCredential(agentID))
		if err != nil {
			return fmt.Errorf("napletsocket: restoring listener of %s: %w", agentID, err)
		}
	}
	backlog := make(map[[16]byte]bool, len(hb.Backlog))
	for _, id := range hb.Backlog {
		backlog[id] = true
	}

	for i, s := range socks {
		st := &hb.Conns[i]
		ctrl.tab.register(s)
		// The connection now lives here: journal it so a crash before the
		// post-arrival resume completes still recovers it.
		if !st.PeerClosed {
			ctrl.checkpointConn(s)
		}

		if ss != nil && !st.Accepted && backlog[st.ID] {
			ss.push(s)
		}
		if st.PeerClosed {
			continue // nothing to resume: the agent reads what is left, then EOF
		}

		resSp := arrive.Child("resume")
		resSp.Annotate("conn=" + s.id.String())
		s.setTraceSpan(resSp)
		go func(s *Socket, owes bool, sp *obs.Span) {
			defer sp.End()
			defer s.setTraceSpan(nil)
			if owes {
				// Release the parked peer; it migrates next and will
				// resume toward us (Fig 4(a)).
				if err := s.ask(wire.MsgSusRes); err != nil {
					s.olog(obs.LevelWarn, "SUS_RES after migration: %v", err)
				}
				return
			}
			if err := s.Resume(); err != nil && err != ErrClosed {
				sp.Annotate("failed: " + err.Error())
				s.olog(obs.LevelWarn, "resume after migration: %v", err)
			}
		}(s, st.OwesSusRes, resSp)
	}
	return nil
}

// OnTerminate closes a finished agent's connections and listener.
func (ctrl *Controller) OnTerminate(agentID string) {
	ctrl.NoteLocationEpoch(agentID, 0)
	conns := ctrl.tab.agentSockets(agentID)
	ctrl.mu.Lock()
	ss := ctrl.listeners[agentID]
	ctrl.mu.Unlock()
	for _, s := range conns {
		s.Close()
	}
	if ss != nil {
		ss.Close()
	}
}
