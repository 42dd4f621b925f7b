package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"naplet/internal/dhkx"
	"naplet/internal/fsm"
	"naplet/internal/obs"
	"naplet/internal/transport"
	"naplet/internal/wire"
)

// This file holds the Socket's identity, state, and lifecycle bookkeeping.
// The data plane (pump and flush passes, receive buffer, send log, drain)
// lives in dataplane.go; the control plane in ops.go, the interpreters of the
// three tables in proto.go.

// Errors returned by Socket operations.
var (
	// ErrClosed reports use of a closed connection.
	ErrClosed = errors.New("napletsocket: connection closed")
	// ErrUnrecoverable reports a failure-recovery gap: the peer lacks frames
	// the send log no longer holds.
	ErrUnrecoverable = errors.New("napletsocket: unrecoverable data loss after failure")
	// ErrMigrated reports use of a Socket object whose agent has migrated
	// away: the connection lives on, but this handle is dead — re-attach at
	// the new host with Controller.AgentSocket.
	ErrMigrated = errors.New("napletsocket: connection migrated with its agent; re-attach via AgentSocket")
)

// segment is a run of whole encoded frames — header, payload, header,
// payload… — in one pooled buffer: the only form in which a connection holds
// data, on either side. It is what a wire.FrameWriter produces and what the
// peer's stream delivers, so a message is encoded once, copied once per side
// (into the sender's segment, out of the receiver's), and a buffer is drawn
// from the pool per few hundred small messages, not per message. Whoever
// drops the last reference to buf returns it with wire.PutPayload; cap(buf)
// is what the segment is charged against maxSendLog / maxRecvBuffer.
type segment struct {
	buf []byte
	// Send log: buf holds exactly the data frames first..last.
	first, last uint64
	// Receive buffer: off is where the first frame not yet fully read
	// starts, and via marks a segment that crossed a suspend or a
	// migration in the buffer (the light dots of Figure 7).
	off int
	via bool
}

// Observer receives a callback for every message delivered to the
// application, for the Figure 7 instrumentation. fromBuffer is true when
// the message was served from the migrated NapletInputStream buffer.
//
// The payload slice lies inside a pooled segment that is recycled once read
// out: observers must copy anything they keep. A message partially read by
// stream Read whose tail then crosses a migration or crash restore produces
// one extra callback for the remainder (same seq, fromBuffer=true) when the
// tail is finally served.
type Observer func(seq uint64, payload []byte, fromBuffer bool)

// Socket is one endpoint of a NapletSocket connection: the agent-oriented,
// location-independent socket of the paper. It is created by
// Controller.OpenAs (client side) or ServerSocket.Accept (server side), and
// remains usable across any number of migrations of either agent.
//
// Read and Write are safe for concurrent use, alongside the control plane,
// and each frame a writer sends is atomic (see Write); both block
// transparently while the connection is suspended for a migration.
type Socket struct {
	ctrl *Controller
	id   wire.ConnID
	// localAgent and remoteAgent are fixed for the connection's lifetime.
	localAgent, remoteAgent string
	// highPriority is true when the local agent wins the hash-based
	// migration priority of Section 3.1.
	highPriority bool
	sessionKey   []byte
	auth         *dhkx.Authenticator
	m            *fsm.Machine

	// suspendOpMu serializes local suspend/resume/close operations.
	suspendOpMu sync.Mutex
	// drainMu makes drainAndClose single-entry: a second caller blocks
	// until the first teardown finishes, then sees the socket gone.
	drainMu sync.Mutex
	// flushMu orders what goes onto the data stream: application frames,
	// retransmits, and the pre-suspend flush marker. Every cut of pending
	// frames for a write happens under it, and its batch is written before
	// it is released, so batches reach the stream in sequence order. Writers
	// append frames under mu alone and keep doing so while a flush is in
	// flight. Lock order: flushMu, then mu; a holder of mu may TryLock
	// flushMu, which never waits.
	flushMu sync.Mutex

	// mu guards everything below; cond is signalled on any change readers,
	// writers, or waiters might care about.
	mu   sync.Mutex
	cond *sync.Cond

	// sock is the installed data stream, nil while the connection is
	// suspended. Its readable/writable callbacks start pump and flush
	// passes on goroutines that live only while there is work, so an idle
	// connection owns no goroutine.
	sock *transport.Stream
	// gen counts data-socket generations, so a stale pump pass's exit is
	// ignored.
	gen int
	// retxPending is true while installSocket is writing the send log to a
	// fresh socket outside mu: send segments must not be recycled to the
	// pool while the retransmitter may still read them.
	retxPending bool

	// pumpPaused marks the pump stopped for receive-buffer backpressure;
	// Read restarts it when the application catches up. Guarded by mu.
	pumpPaused bool
	// pumpDec assembles the generation's frames that straddle two stream
	// segments (one per installed stream, swapped under mu, used by the
	// pump pass); pumpSegs and pumpRuns are the pump's scratch lists, reused
	// from pass to pass.
	pumpDec  *wire.FrameDecoder
	pumpSegs [][]byte
	pumpRuns []segment
	// pumpReq/flushReq are the level-triggered event flags a pass consumes;
	// pumpRun/flushRun are set while a goroutine runs that kind of pass, so
	// one pump and one flush at most run at a time (see kick).
	pumpReq, pumpRun, flushReq, flushRun atomic.Bool

	// traceSpan is the span of the in-flight traced operation on this
	// socket (a migration's suspend or resume); while set, every outgoing
	// control message carries its context so the peer's handling joins
	// the same trace, and FSM edges are annotated onto it.
	traceSpan *obs.Span

	// Receive side (the NapletInputStream of Section 3.1): the segments the
	// pump queued, oldest first, and the bytes they hold (capacities, so
	// maxRecvBuffer bounds memory). The head segment's off is the read
	// cursor; readDone counts the bytes of the frame there that Read has
	// already delivered, and readTail marks that frame as the unread tail
	// of a message whose head was delivered before a checkpoint.
	recvQ        []segment
	recvHeld     int
	readDone     int
	readTail     bool
	lastEnqueued uint64

	// Send side: the retransmission log, oldest segment first, charged by
	// capacity against maxSendLog. It is also the write buffer: Write
	// encodes each frame onto the tail segment, and a flush writes the
	// tail's bytes from cutOff on to the stream. Frames below nextSendSeq
	// are accepted and in the log; those below cutSeq have been cut for a
	// stream write, the rest are pending behind cutOff; those up to
	// flushedSeq are through that write, so nothing but a retransmit reads
	// them any more. flushing marks a flush pass in flight, which re-arms
	// itself: writers need not schedule another.
	sendLog     []segment
	sendHeld    int
	nextSendSeq uint64
	cutSeq      uint64
	cutOff      int
	flushedSeq  uint64
	flushing    bool

	// Peer addressing; updated by RESUME/SUS_RES messages when the peer
	// moves. peerControl is peerControlAddr parsed, where requests are sent.
	peerControlAddr string
	peerControl     netip.AddrPort
	peerDataAddr    string

	// Authentication counters.
	sendNonce     uint64
	lastPeerNonce uint64

	// latches are the flags the three tables read (proto.go): the
	// concurrent-migration bookkeeping of Sections 3.1–3.2, and the drain's
	// and the failure's.
	latches latch

	// Establishment bookkeeping. handoff is the wait for the data stream a
	// sent CONNECT or a granted RES has the peer open, nil when none is
	// pending (redirector.go); connectVia is the transport a CONNECT names.
	accepted   bool
	handoff    *handoffWait
	connectVia wire.ConnID

	closed   bool
	closeErr error
	// failedAt opens a failure episode (data-socket failure or a crash
	// restore); cleared when the connection resumes, recording the recovery
	// latency.
	failedAt time.Time

	observer Observer

	// ckptMu makes a journal checkpoint — snapshot under mu, then append —
	// one critical section, and orders it against the connection leaving the
	// journal, which sets unjournaled (see checkpointConn). Taken before mu;
	// not guarded by it.
	ckptMu      sync.Mutex
	unjournaled bool
}

// agentPriority computes the deadlock-breaking migration priority of
// Section 3.1: FNV-64a over the agent id, ties broken lexicographically.
func agentPriority(local, remote string) bool {
	hl, hr := fnv.New64a(), fnv.New64a()
	hl.Write([]byte(local))
	hr.Write([]byte(remote))
	a, b := hl.Sum64(), hr.Sum64()
	if a != b {
		return a > b
	}
	return local > remote
}

func newSocket(ctrl *Controller, id wire.ConnID, local, remote string, key []byte, start fsm.State) (*Socket, error) {
	auth, err := dhkx.NewAuthenticator(key)
	if err != nil {
		return nil, err
	}
	s := &Socket{
		ctrl:         ctrl,
		id:           id,
		localAgent:   local,
		remoteAgent:  remote,
		highPriority: agentPriority(local, remote),
		sessionKey:   append([]byte(nil), key...),
		auth:         auth,
		m:            fsm.NewMachine(start),
		nextSendSeq:  1,
		cutSeq:       1,
	}
	s.cond = sync.NewCond(&s.mu)
	s.observeFSM()
	return s, nil
}

// ID returns the connection id shared by both endpoints; it is the stable
// handle an agent can use to re-attach to the connection after a migration
// (Controller.AgentSocket).
func (s *Socket) ID() wire.ConnID { return s.id }

// LocalAgent returns the agent id of this endpoint.
func (s *Socket) LocalAgent() string { return s.localAgent }

// RemoteAgent returns the agent id of the peer endpoint.
func (s *Socket) RemoteAgent() string { return s.remoteAgent }

// State returns the connection's protocol state.
func (s *Socket) State() fsm.State { return s.m.State() }

// Info is a point-in-time snapshot of a connection endpoint, for
// monitoring, debugging, and tests.
type Info struct {
	ID                      wire.ConnID
	LocalAgent, RemoteAgent string
	// State is the protocol state name (Table 1 of the paper).
	State string
	// Latches names the flags raised: what a parked endpoint is waiting for.
	Latches string
	// HighPriority reports whether the local agent wins the migration
	// priority (Section 3.1).
	HighPriority bool
	// NextSendSeq and LastEnqueued are the data-stream cursors: the next
	// outgoing frame number and the highest received frame number.
	NextSendSeq, LastEnqueued uint64
	// RecvBufferedBytes and RecvBufferedMsgs describe the NapletInputStream
	// buffer contents.
	RecvBufferedBytes, RecvBufferedMsgs int
	// LeftoverFromBuffer reports whether the partially-read message tail
	// (counted in RecvBufferedBytes) was served from the migrated buffer —
	// the Fig 7 socket-vs-buffer provenance of leftover bytes.
	LeftoverFromBuffer bool
	// SendLogBytes is the retained retransmission log size.
	SendLogBytes int
	// PeerControlAddr and PeerDataAddr are the last known peer endpoints.
	PeerControlAddr, PeerDataAddr string
	// Transport is the id of the shared per-host-pair transport currently
	// carrying the connection's data stream ("" when the data socket is
	// down) — the stream→transport mapping shown by /connz.
	Transport string
	// Closed reports a finalized connection.
	Closed bool
}

// Info returns a snapshot of the endpoint.
func (s *Socket) Info() Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	info := Info{
		ID:              s.id,
		LocalAgent:      s.localAgent,
		RemoteAgent:     s.remoteAgent,
		State:           s.m.State().String(),
		Latches:         s.latches.String(),
		HighPriority:    s.highPriority,
		NextSendSeq:     s.nextSendSeq,
		LastEnqueued:    s.lastEnqueued,
		PeerControlAddr: s.peerControlAddr,
		PeerDataAddr:    s.peerDataAddr,
		Closed:          s.closed,
	}
	// The buffered quantities are payload bytes and whole messages, as
	// ever; Info walks the segments for them so that the data path keeps
	// no per-message counts.
	for i := range s.recvQ {
		eachDataFrame(s.recvQ[i].buf[s.recvQ[i].off:], func(f wire.Frame) {
			info.RecvBufferedBytes += len(f.Payload)
			info.RecvBufferedMsgs++
		})
	}
	if s.readDone > 0 || s.readTail {
		info.RecvBufferedBytes -= s.readDone
		info.RecvBufferedMsgs--
		info.LeftoverFromBuffer = s.recvQ[0].via
	}
	for i := range s.sendLog {
		eachDataFrame(s.sendLog[i].buf, func(f wire.Frame) { info.SendLogBytes += len(f.Payload) })
	}
	if s.sock != nil {
		info.Transport = s.sock.TransportID().String()
	}
	return info
}

// KillDataSocket forcibly closes the underlying data socket without any
// protocol exchange — fault injection for the failure-recovery extension
// (tests, ablations). The connection degrades to SUSPENDED and heals
// automatically.
func (s *Socket) KillDataSocket() {
	s.mu.Lock()
	sock := s.sock
	s.mu.Unlock()
	if sock != nil {
		sock.Close()
	}
}

// SetObserver installs a delivery observer (Figure 7 instrumentation).
func (s *Socket) SetObserver(o Observer) {
	s.mu.Lock()
	s.observer = o
	s.mu.Unlock()
}

// step drives the state machine, logging illegal transitions; callers pass
// events they have already validated against the current state under mu.
// Every transition broadcasts on cond: the timed waits throughout this
// package are event-driven (they sleep until their full deadline), so any
// state change a waiter might be watching for must wake it here rather
// than rely on a polling interval.
func (s *Socket) step(e fsm.Event) error {
	_, err := s.m.Step(e)
	if err != nil {
		s.olog(obs.LevelWarn, "agent %s: %v", s.localAgent, err)
	}
	s.cond.Broadcast()
	return err
}

// closedErrLocked reports why the connection is unusable. Caller holds mu.
func (s *Socket) closedErrLocked() error {
	if s.closeErr != nil {
		return s.closeErr
	}
	return ErrClosed
}

// markClosedLocked finalizes the connection. No stream follows, so the send
// log goes back to the pool (a migrating one is in its blob). Caller holds mu.
func (s *Socket) markClosedLocked(err error) {
	if s.closed {
		return
	}
	s.closed = true
	s.closeErr = err
	s.endHandoffLocked("closed")
	s.dropSockLocked()
	s.dropSendSegsLocked(len(s.sendLog))
	s.cond.Broadcast()
}

// setTraceSpan installs (or, with nil, clears) the span whose context is
// stamped onto this socket's outgoing control messages and onto which FSM
// lifecycle edges are annotated.
func (s *Socket) setTraceSpan(sp *obs.Span) {
	s.mu.Lock()
	s.traceSpan = sp
	s.mu.Unlock()
}

// waitStateLocked blocks until the machine is in one of the wanted states,
// the connection closes (ErrClosed), or the timeout passes. The caller holds
// mu, and it returns with mu held: what the caller then reads of the state is
// what the wait ended on.
func (s *Socket) waitStateLocked(timeout time.Duration, wanted ...fsm.State) error {
	deadline := time.Now().Add(timeout)
	for !slices.Contains(wanted, s.m.State()) {
		if s.closed {
			return ErrClosed
		}
		if !waitCond(s.cond, time.Until(deadline)) {
			return fmt.Errorf("napletsocket: timeout waiting for state %v (at %s)", wanted, s.m.State())
		}
	}
	return nil
}
