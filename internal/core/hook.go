package core

import (
	"bytes"
	"encoding/gob"
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

// connState is the serialized form of one connection endpoint. The
// buffered data inside RecvBuf is the migrating NapletInputStream of
// Section 3.1 — the paper's guarantee that data in transmission moves with
// the agent.
type connState struct {
	ID                        [16]byte
	LocalAgent, RemoteAgent   string
	SessionKey                []byte
	NextSendSeq, LastEnqueued uint64
	RecvBuf                   []bufEntry
	Leftover                  []byte
	// LeftoverSeq and LeftoverBuf carry the provenance of the partially
	// read message whose tail sits in Leftover: the sequence number it was
	// delivered under and whether it had already crossed a migration in
	// the buffer. Restores preserve them so Fig 7's socket-vs-buffer
	// accounting stays correct for the tail's remaining bytes.
	LeftoverSeq              uint64
	LeftoverBuf              bool
	SendLog                  []bufEntry
	PeerControlAddr          string
	PeerDataAddr             string
	SendNonce, LastPeerNonce uint64
	OwesSusRes               bool
	Accepted                 bool
	// PeerClosed marks an endpoint the peer closed while unread data sat in
	// RecvBuf: it travels so the agent can read that data, then EOF, at its
	// new host; there is nothing left to resume.
	PeerClosed bool
}

// hookBlob is the controller's contribution to a migration bundle.
type hookBlob struct {
	Conns       []connState
	HasListener bool
	// Backlog lists queued-but-unaccepted connection ids, to repopulate
	// the restored server socket's accept queue.
	Backlog [][16]byte
	// Trace is the marshaled span context of the origin's depart span, so
	// the destination's arrival spans join the same migration trace.
	Trace []byte
	// DepartedAt is the origin's clock when the blob was sealed; the
	// arrival side uses it to attribute the in-flight gap.
	DepartedAt time.Time
}

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

	blob := hookBlob{}
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
				if st := s.serialize(); st.PeerClosed {
					blob.Conns = append(blob.Conns, st)
					o.connsShipped.Inc()
				}
				ctrl.dropConn(s)
				continue
			}
			ctrl.logf("conn %s: suspend for migration of %s failed (%v); dropping connection", s.id, agentID, err)
			s.Close()
			continue
		}
		susSp.End()
		ckSp := depart.Child("checkpoint")
		szStart := time.Now()
		st := s.serialize()
		o.suspendBD.Add(metrics.PhaseSerialize, time.Since(szStart))
		ckSp.End()
		blob.Conns = append(blob.Conns, st)
		o.connsShipped.Inc()
		ctrl.dropConn(s)
	}

	if ss != nil && !ss.isClosed() {
		blob.HasListener = true
		ss.mu.Lock()
		for _, pending := range ss.queue {
			blob.Backlog = append(blob.Backlog, pending.id)
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

	blob.Trace = depart.Context().Marshal()
	blob.DepartedAt = time.Now()
	szStart := time.Now()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&blob); err != nil {
		return nil, fmt.Errorf("napletsocket: serializing connections of %s: %w", agentID, err)
	}
	o.suspendBD.Add(metrics.PhaseSerialize, time.Since(szStart))
	ctrl.olog(obs.LevelInfo, "agent %s departing with %d connections (%d bytes serialized)",
		agentID, len(blob.Conns), buf.Len())
	return buf.Bytes(), nil
}

// snapshotLocked captures the connection's full state without disturbing
// the live object — the form journaled at lifecycle edges and shipped in
// migration bundles. Segments become the per-frame entries of the gob form;
// the payloads alias the segments, so the caller encodes (or takes the
// segments over) before releasing mu. Caller holds mu.
func (s *Socket) snapshotLocked() connState {
	st := connState{
		ID:              s.id,
		LocalAgent:      s.localAgent,
		RemoteAgent:     s.remoteAgent,
		SessionKey:      append([]byte(nil), s.sessionKey...),
		NextSendSeq:     s.nextSendSeq,
		LastEnqueued:    s.lastEnqueued,
		PeerControlAddr: s.peerControlAddr,
		PeerDataAddr:    s.peerDataAddr,
		SendNonce:       s.sendNonce,
		LastPeerNonce:   s.lastPeerNonce,
		OwesSusRes:      s.owesSusRes,
		Accepted:        s.accepted,
	}
	// Everything still in the buffer crosses the migration (or restart) in
	// the buffer: mark it so post-resume deliveries are attributed
	// correctly (Fig 7).
	for i := range s.recvQ {
		eachDataFrame(s.recvQ[i].buf[s.recvQ[i].off:], func(f wire.Frame) {
			st.RecvBuf = append(st.RecvBuf, bufEntry{Seq: f.Seq, Payload: f.Payload, ViaBuffer: true})
		})
	}
	if s.readDone > 0 || s.readTail {
		// The frame under the read cursor is half delivered: its rest
		// travels as the leftover tail, with the identity and provenance of
		// the message it belongs to.
		head := st.RecvBuf[0]
		st.RecvBuf = st.RecvBuf[1:]
		st.Leftover, st.LeftoverSeq, st.LeftoverBuf = head.Payload[s.readDone:], head.Seq, s.recvQ[0].via
	}
	for i := range s.sendLog {
		eachDataFrame(s.sendLog[i].buf, func(f wire.Frame) {
			st.SendLog = append(st.SendLog, bufEntry{Seq: f.Seq, Payload: f.Payload})
		})
	}
	return st
}

// packFrames appends entries, re-encoded, to the segment queue q: the way
// back from the gob form. Segments are sized to what is left to pack, up to
// sendSegBytes (a larger frame gets one sized for it); via marks them all.
func packFrames(q []segment, entries []bufEntry, via bool) []segment {
	left := 0
	for _, e := range entries {
		left += wire.FrameHeaderSize + len(e.Payload)
	}
	for _, e := range entries {
		need := wire.FrameHeaderSize + len(e.Payload)
		k := len(q) - 1
		if k < 0 || cap(q[k].buf)-len(q[k].buf) < need {
			buf := wire.GetPayload(max(need, min(left, sendSegBytes)))[:0]
			q = append(q, segment{buf: buf, first: e.Seq, via: via})
			k++
		}
		// Payloads come out of frames, so they are within the frame limit.
		q[k].buf, _ = wire.AppendFrame(q[k].buf, wire.Frame{Seq: e.Seq, Flags: wire.FlagData, Payload: e.Payload})
		q[k].last = e.Seq
		left -= need
	}
	return q
}

// serialize captures the suspended connection's full state and detaches
// the local object: its segments are handed over to the serialized form
// (never recycled: the entries alias them) and the object is marked with
// ErrMigrated, so a stray reader can neither hang on the dead handle nor
// double-deliver buffered data.
func (s *Socket) serialize() connState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.snapshotLocked()
	st.PeerClosed = s.closed && s.closeErr == nil && len(st.RecvBuf)+len(st.Leftover) > 0
	s.recvQ, s.recvHeld = nil, 0
	s.readDone, s.readTail = 0, false
	s.sendLog, s.sendHeld = nil, 0
	s.cutSeq, s.cutOff = s.nextSendSeq, 0
	s.markClosedLocked(ErrMigrated)
	s.closeErr = ErrMigrated // also on an endpoint the peer had already closed
	return st
}

// PostArrive reconstructs the arriving agent's connections and kicks off
// their resumption: a normal RESUME for most, a SUS_RES release for
// connections whose low-priority peer is parked behind our migration
// (overlapped concurrent migration, Fig 4(a)).
func (ctrl *Controller) PostArrive(agentID string, blob []byte) error {
	if len(blob) == 0 {
		return nil
	}
	var hb hookBlob
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&hb); err != nil {
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

	var ss *ServerSocket
	if hb.HasListener {
		var err error
		ss, err = ctrl.ListenAs(agentID, ctrl.cfg.Guard.IssueCredential(agentID))
		if err != nil {
			return fmt.Errorf("napletsocket: restoring listener of %s: %w", agentID, err)
		}
	}
	backlog := make(map[[16]byte]bool, len(hb.Backlog))
	for _, id := range hb.Backlog {
		backlog[id] = true
	}

	for _, st := range hb.Conns {
		restSp := arrive.Child("restore")
		s, err := ctrl.restoreConn(st, 0)
		if err != nil {
			restSp.Annotate("failed: " + err.Error())
			restSp.End()
			return err
		}
		// The connection now lives here: journal it so a crash before the
		// post-arrival resume completes still recovers it.
		if !st.PeerClosed {
			ctrl.checkpointConn(s)
		}
		restSp.End()

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
				if err := s.sendSusRes(); err != nil {
					ctrl.logf("conn %s: SUS_RES after migration: %v", s.id, err)
				}
				return
			}
			if err := s.Resume(); err != nil && err != ErrClosed {
				sp.Annotate("failed: " + err.Error())
				ctrl.logf("conn %s: resume after migration: %v", s.id, err)
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
