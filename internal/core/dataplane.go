package core

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"naplet/internal/fsm"
	"naplet/internal/timerwheel"
	"naplet/internal/transport"
	"naplet/internal/wire"
)

// This file is the connection's data plane: ownership of the data socket
// (a stream on the shared transport), the event-driven pump and flush
// passes, the receive buffer and send log with their pooled payloads, and
// the suspend-time drain. The control-plane exchanges that decide WHEN
// these run (suspend/resume/close) live in ops.go; the socket's identity
// and lifecycle bookkeeping stay in conn.go.

// Limits of the per-connection buffers.
const (
	// maxRecvBuffer bounds the receive-side message buffer; when full, the
	// pump stops pulling from the stream so transport flow control pushes
	// back on the sender. The bound is ignored while draining for a
	// suspend — everything in flight must be captured.
	maxRecvBuffer = 4 << 20
	// maxSendLog bounds the retransmission log kept for failure recovery.
	// A graceful suspend clears the log (the drain handshake proves
	// delivery); the cap only matters between suspends.
	maxSendLog = 4 << 20
	// coalesceFlushBytes is the write-coalescing high-water mark: a write
	// that leaves at least this much encoded data in the frame writer's
	// buffer flushes inline instead of waiting for the next flush pass,
	// bounding both buffer occupancy and the data one pass writes.
	coalesceFlushBytes = 32 << 10
	// pumpBatchFrames bounds the frames one pump pass decodes before
	// re-checking the receive budget, so a firehose peer cannot pin a pool
	// worker or blow far past maxRecvBuffer between checks.
	pumpBatchFrames = 32
)

// installSocket adopts a fresh data stream: retransmits anything the peer
// reports missing, recreates the frame writer and decoder, and registers
// the stream's event hooks. Callers transition the state machine
// afterwards. Network emulation wrapping happens at the shared transport
// (per host pair), not here.
func (s *Socket) installSocket(sock *transport.Stream, peerHasUpTo uint64) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()

	s.mu.Lock()
	// Trim acknowledged frames, then collect what the peer is missing.
	s.trimSendLogLocked(peerHasUpTo)
	var missing []bufEntry
	if len(s.sendLog) > 0 && s.sendLog[0].Seq > peerHasUpTo+1 {
		s.mu.Unlock()
		sock.Close()
		return fmt.Errorf("%w: peer has up to %d, log starts at %d",
			ErrUnrecoverable, peerHasUpTo, s.sendLog[0].Seq)
	}
	missing = append(missing, s.sendLog...)
	// The shallow copy above shares payload buffers with the log; pin them
	// against pool recycling (a concurrent control-plane trim) until the
	// retransmit writes below are done.
	s.retxPending = len(missing) > 0
	s.mu.Unlock()

	// Retransmits are a forced write barrier: everything goes to the wire
	// before the new generation starts coalescing application writes.
	bw := bufio.NewWriter(sock)
	for _, e := range missing {
		if err := wire.WriteFrame(bw, wire.Frame{Seq: e.Seq, Flags: wire.FlagData, Payload: e.Payload}); err != nil {
			sock.Close()
			s.clearRetxPending()
			return fmt.Errorf("napletsocket: retransmitting frame %d: %w", e.Seq, err)
		}
	}
	if err := bw.Flush(); err != nil {
		sock.Close()
		s.clearRetxPending()
		return fmt.Errorf("napletsocket: flushing retransmits: %w", err)
	}

	s.mu.Lock()
	s.retxPending = false
	s.sock = sock
	s.gen++
	s.fw = wire.NewFrameWriter(sock, s.nextSendSeq)
	s.pumpDec = &wire.FrameDecoder{}
	s.pumpPaused = false
	s.suspending = false
	s.peerFlushSeen = false
	s.drained = false
	s.failing = false
	s.localSuspended = false
	s.remoteSuspended = false
	s.susResReceived = false
	s.peerResumeParked = false
	s.sockInstalled = true
	s.cond.Broadcast()
	s.mu.Unlock()

	// The stream's readable/writable callbacks drive pump and flush passes
	// on the controller's shared worker pool, so a host with 100k
	// connections runs O(pool) data-plane goroutines, not O(conns).
	// Registration fires the hook immediately if data or credit is already
	// pending, so nothing that raced in before this point is lost.
	sock.SetReadable(s.schedulePump)
	sock.SetWritable(s.scheduleFlush)
	return nil
}

// schedulePump requests a pump pass for this socket on the shared worker
// pool. Level-triggered and deduped; safe from any goroutine, including
// the transport read loop and callers holding s.mu.
func (s *Socket) schedulePump() {
	s.pumpReq.Store(true)
	s.ctrl.dp.enqueue(s)
}

// scheduleFlush requests a flush pass on the shared worker pool.
func (s *Socket) scheduleFlush() {
	s.flushReq.Store(true)
	s.ctrl.dp.enqueue(s)
}

// pumpEvent is one event-driven pump pass: decode every frame the stream
// has fully buffered into the receive buffer, without ever blocking on
// the network. It stops when the stream runs dry, when the receive
// buffer is over budget (backpressure: not reading means the stream
// grants the peer no more flow-control credit), or when the stream
// reports a terminal condition. pumpMu single-flights passes so a
// re-enqueue during a pass cannot interleave decodes.
func (s *Socket) pumpEvent() {
	s.pumpMu.Lock()
	defer s.pumpMu.Unlock()
	for {
		s.mu.Lock()
		st, gen, dec := s.sock, s.gen, s.pumpDec
		if st == nil || s.closed {
			s.mu.Unlock()
			return
		}
		if s.recvBytes > maxRecvBuffer && !s.suspending {
			s.pumpPaused = true
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()

		batch, err := pumpDecode(st, dec)
		if len(batch) > 0 {
			if !s.enqueueFrames(gen, batch) {
				return
			}
		}
		if err != nil {
			s.readerExit(gen, err)
			return
		}
		if len(batch) == 0 {
			// Stream ran dry mid-pass with no decode error: either it is
			// simply idle again (a later readable event re-arms us), or it
			// ended — EOF, reset, or a FIN that cut a frame short.
			if termErr, terminal := st.TermStatus(); terminal {
				if termErr == io.EOF && dec.Partial() {
					termErr = io.ErrUnexpectedEOF
				}
				dec.Release()
				s.readerExit(gen, termErr)
			}
			return
		}
	}
}

// pumpDecode pulls one bounded batch of frames off the stream's user-space
// buffer. It never blocks: the decoder only consumes bytes the stream
// already holds, parking partial-frame state between passes.
func pumpDecode(st *transport.Stream, dec *wire.FrameDecoder) ([]wire.Frame, error) {
	var batch []wire.Frame
	for len(batch) < pumpBatchFrames {
		f, ok, err := dec.Next(st)
		if err != nil {
			return batch, err
		}
		if !ok {
			break
		}
		batch = append(batch, f)
	}
	return batch, nil
}

// maybeResumePumpLocked restarts the event-driven pump after receive-side
// backpressure clears: the application drained below the budget, or a
// suspend drain lifted the bound. Caller holds mu.
func (s *Socket) maybeResumePumpLocked() {
	if s.pumpPaused && (s.recvBytes <= maxRecvBuffer || s.suspending) {
		s.pumpPaused = false
		s.schedulePump()
	}
}

// flushEvent is one event-driven flush pass: detach the frame writer's
// coalesced batch and push it to the stream. A batch the stream lacks
// send credit for is handed to a transient goroutine that rides out the
// stall holding flushMu, so pool workers never block on a slow peer.
func (s *Socket) flushEvent() {
	s.writeMu.Lock()
	s.mu.Lock()
	fw, sock := s.fw, s.sock
	closed := s.closed
	s.mu.Unlock()
	if closed || sock == nil || fw.Buffered() == 0 {
		s.writeMu.Unlock()
		return
	}
	if !s.flushMu.TryLock() {
		// A flush (possibly credit-stalled) is already in flight; it
		// re-schedules on completion, so this pass just stands down.
		s.writeMu.Unlock()
		return
	}
	batch := fw.Take(s.flushSpare)
	s.flushSpare = nil
	// writeMu releases before the write: writers coalesce the next batch
	// while this one's syscall is in flight.
	s.writeMu.Unlock()
	if sock.SendWindow() < len(batch) {
		go s.flushFinish(sock, batch)
		return
	}
	s.flushFinish(sock, batch)
}

// flushFinish writes one detached batch and releases flushMu (held by the
// caller), then re-arms the flush event for anything that accumulated
// while the write was in flight.
func (s *Socket) flushFinish(sock *transport.Stream, batch []byte) {
	_, err := sock.Write(batch)
	s.flushSpare = batch
	s.flushMu.Unlock()
	if err != nil {
		s.mu.Lock()
		s.failLocked(err)
		s.mu.Unlock()
		return
	}
	s.ctrl.obs.dataFlushes.Inc()
	s.scheduleFlush()
}

func (s *Socket) clearRetxPending() {
	s.mu.Lock()
	s.retxPending = false
	s.mu.Unlock()
}

// enqueueFrames delivers one batch of frames into the receive buffer under
// a single lock acquisition. It reports false when the socket generation
// ended underneath the pump; undelivered pooled payloads are recycled. It
// never waits for buffer space: the pump must not block a pool worker, so
// the (already bounded) batch is enqueued and pumpEvent stops pulling from
// the stream while the buffer is over budget.
func (s *Socket) enqueueFrames(gen int, batch []wire.Frame) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	enqueued := false
	for i, f := range batch {
		if gen != s.gen || s.closed {
			recycleFrames(batch[i:])
			if enqueued {
				s.cond.Broadcast()
			}
			return false
		}
		switch {
		case f.IsFlush():
			s.peerFlushSeen = true
			s.peerFlushSeq = f.Seq
		case f.IsData():
			// Sequence-number dedup makes redelivery idempotent.
			if f.Seq > s.lastEnqueued {
				s.recvBuf = append(s.recvBuf, bufEntry{Seq: f.Seq, Payload: f.Payload, ViaBuffer: s.suspending})
				s.recvBytes += len(f.Payload)
				s.lastEnqueued = f.Seq
				enqueued = true
			} else if f.Payload != nil {
				// Duplicate from a retransmit: the frame is dropped here, so
				// its pooled buffer can go straight back.
				wire.PutPayload(f.Payload)
			}
		}
	}
	if enqueued {
		s.cond.Broadcast()
	}
	return true
}

// recycleFrames returns a batch's undelivered pooled payloads.
func recycleFrames(fs []wire.Frame) {
	for _, f := range fs {
		if f.Payload != nil {
			wire.PutPayload(f.Payload)
		}
	}
}

// readerExit classifies the end of a socket generation: a completed
// suspend drain, a close, or a failure.
func (s *Socket) readerExit(gen int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if gen != s.gen || s.closed {
		return
	}
	st := s.m.State()
	// The peer's orderly teardown (flush marker then half-close) during any
	// suspend or close in progress is a completed drain — even if our own
	// drainAndClose has not started yet (its ACK may still be in flight).
	orderly := s.peerFlushSeen && s.lastEnqueued >= s.peerFlushSeq
	tearingDown := s.suspending || st != fsm.Established
	if orderly && tearingDown {
		s.drained = true
		s.cond.Broadcast()
		return
	}
	if st == fsm.CloseSent || st == fsm.CloseAcked || st == fsm.Closed {
		// A close is in progress; EOF is expected, not a failure.
		s.drained = true
		s.cond.Broadcast()
		return
	}
	// Unexpected end while established (or a botched drain): degrade to
	// SUSPENDED and let failure recovery re-resume (extension; fsm Fail).
	s.failLocked(err)
}

// failLocked moves an established connection to SUSPENDED after a data
// socket failure and schedules recovery. Caller holds mu.
func (s *Socket) failLocked(cause error) {
	if s.failing || s.closed {
		return
	}
	if s.m.State() != fsm.Established {
		// Failures in other states are handled by the ops that own them.
		s.cond.Broadcast()
		return
	}
	s.failing = true
	if s.failedAt.IsZero() {
		s.failedAt = time.Now()
	}
	s.step(fsm.Fail)
	if s.sock != nil {
		s.sock.Close()
		s.sock = nil
		s.fw = nil
	}
	s.sockInstalled = false
	s.cond.Broadcast()
	s.ctrl.obs.failures.Inc()
	if errors.Is(cause, transport.ErrTransportLost) {
		// The shared transport died past its resume window (or resumption
		// is disabled): this is a host-pair event, not a stream-level
		// reset, and every sibling connection on the pair degrades with
		// us. The typed error keeps the two failure modes countable apart.
		s.ctrl.obs.transportLost.Inc()
		s.ctrl.logf("conn %s: shared transport lost (%v); degraded to SUSPENDED", s.id, cause)
	} else {
		s.ctrl.logf("conn %s: data socket failed (%v); degraded to SUSPENDED", s.id, cause)
	}
	if s.ctrl.cfg.DisableFailureResume {
		return
	}
	s.scheduleFailureResume(s.ctrl.cfg.failureResumeDelay(s.highPriority))
}

// scheduleFailureResume arms a failure-recovery attempt on the shared
// timer wheel: a suspended-by-failure connection costs one wheel entry,
// not a parked goroutine. The high-priority side fires first; the
// low-priority side is a late fallback, and the resume-race rules sort
// out collisions. While the peer stays unreachable (crashed and not yet
// restarted, or partitioned away) attempts re-arm with capped exponential
// backoff, so the connection heals as soon as the peer returns rather
// than stranding after one failed try. The wheel callback only inspects
// state; the resume handshake itself runs on a transient goroutine.
func (s *Socket) scheduleFailureResume(delay time.Duration) {
	const maxDelay = 5 * time.Second
	timerwheel.AfterFunc(delay, func() {
		select {
		case <-s.ctrl.done:
			return
		default:
		}
		s.mu.Lock()
		stillDown := s.failing && !s.closed && s.m.State() == fsm.Suspended
		s.mu.Unlock()
		if !stillDown {
			return
		}
		next := delay * 2
		if next > maxDelay {
			next = maxDelay
		}
		if s.ctrl.isMigrating(s.localAgent) {
			s.scheduleFailureResume(next)
			return
		}
		go func() {
			err := s.Resume()
			if err == nil || errors.Is(err, ErrClosed) || errors.Is(err, ErrMigrated) {
				return
			}
			s.ctrl.logf("conn %s: failure resume: %v", s.id, err)
			s.scheduleFailureResume(next)
		}()
	})
}

// Read reads application bytes, serving the migrated buffer before the live
// socket. It blocks transparently across suspensions and returns io.EOF
// once the connection is closed and the buffer is empty. One call drains as
// many whole buffered messages into p as fit, so a fast producer does not
// cost one lock round trip per message.
func (s *Socket) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		n := 0
		if len(s.leftover) > 0 {
			if s.leftoverRestored {
				// The tail crossed a migration or crash restore inside the
				// buffer: announce the remainder to the observer as a
				// from-buffer delivery, so the Fig 7 socket-vs-buffer
				// accounting covers leftover bytes too.
				s.leftoverRestored = false
				if obs := s.observer; obs != nil {
					obs(s.leftoverSeq, s.leftover, true)
				}
			}
			c := copy(p, s.leftover)
			s.leftover = s.leftover[c:]
			n = c
			if len(s.leftover) == 0 {
				s.releaseLeftoverLocked()
			}
		}
		for n < len(p) && len(s.recvBuf) > 0 {
			e := s.recvBuf[0]
			s.recvBuf[0] = bufEntry{} // drop the slot's payload reference
			s.recvBuf = s.recvBuf[1:]
			s.recvBytes -= len(e.Payload)
			if obs := s.observer; obs != nil {
				obs(e.Seq, e.Payload, e.ViaBuffer)
			}
			c := copy(p[n:], e.Payload)
			n += c
			if c < len(e.Payload) {
				s.leftover = e.Payload[c:]
				s.leftoverBack = e.Payload
				s.leftoverSeq = e.Seq
				s.leftoverBuf = e.ViaBuffer
			} else {
				// Fully copied out: the pooled buffer has no owner left.
				wire.PutPayload(e.Payload)
			}
		}
		if n > 0 {
			s.maybeResumePumpLocked()
			s.releaseIfReadOutLocked()
			return n, nil
		}
		if s.closed {
			if s.closeErr != nil {
				return 0, s.closeErr
			}
			return 0, io.EOF
		}
		s.cond.Wait()
	}
}

// releaseIfReadOutLocked lets go of an endpoint its peer has closed once the
// application has read the last byte the peer wrote before closing. Until
// then the endpoint stays resident (and travels with its agent), so an
// agent that was mid-migration when the close arrived still finds the
// connection at its new host and reads it to EOF. Caller holds mu.
func (s *Socket) releaseIfReadOutLocked() {
	if s.closed && len(s.recvBuf) == 0 && len(s.leftover) == 0 {
		s.ctrl.tab.drop(s)
	}
}

// releaseLeftoverLocked returns a fully drained leftover tail's backing
// buffer to the payload pool and clears its provenance. Caller holds mu.
func (s *Socket) releaseLeftoverLocked() {
	s.leftover = nil
	s.leftoverBuf = false
	s.leftoverRestored = false
	s.leftoverSeq = 0
	if s.leftoverBack != nil {
		wire.PutPayload(s.leftoverBack)
		s.leftoverBack = nil
	}
}

// ReadMsg reads one whole message (one writer-side WriteMsg / Write call's
// frame), preserving message boundaries. It must not be mixed with Read on
// the same socket. Ownership of the returned slice transfers to the caller;
// it is never recycled by the socket.
func (s *Socket) ReadMsg() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if len(s.recvBuf) > 0 {
			e := s.recvBuf[0]
			s.recvBuf[0] = bufEntry{} // drop the slot's payload reference
			s.recvBuf = s.recvBuf[1:]
			s.recvBytes -= len(e.Payload)
			s.maybeResumePumpLocked()
			s.releaseIfReadOutLocked()
			if obs := s.observer; obs != nil {
				obs(e.Seq, e.Payload, e.ViaBuffer)
			}
			return e.Payload, nil
		}
		if s.closed {
			if s.closeErr != nil {
				return nil, s.closeErr
			}
			return nil, io.EOF
		}
		s.cond.Wait()
	}
}

// Write sends application bytes, splitting them into sequence-numbered
// frames. It blocks transparently while the connection is suspended and
// returns only after every frame is handed to the transport.
func (s *Socket) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		chunk := p
		if len(chunk) > wire.MaxFramePayload {
			chunk = chunk[:wire.MaxFramePayload]
		}
		if err := s.writeFrame(chunk); err != nil {
			return total, err
		}
		total += len(chunk)
		p = p[len(chunk):]
	}
	return total, nil
}

// WriteMsg sends one payload as exactly one frame, preserving message
// boundaries for ReadMsg.
func (s *Socket) WriteMsg(p []byte) error {
	if len(p) > wire.MaxFramePayload {
		return fmt.Errorf("napletsocket: message of %d bytes exceeds frame limit %d", len(p), wire.MaxFramePayload)
	}
	return s.writeFrame(p)
}

// writeFrame sends one frame, waiting out suspensions and retrying across
// failures; the frame's sequence number is fixed on first attempt so a
// retry after a failure cannot duplicate delivery.
func (s *Socket) writeFrame(p []byte) error {
	for {
		// Wait until the connection is writable.
		s.mu.Lock()
		for !(s.m.State() == fsm.Established && s.sock != nil && !s.suspending) {
			if s.closed {
				err := s.closedErrLocked()
				s.mu.Unlock()
				return err
			}
			s.cond.Wait()
		}
		s.mu.Unlock()

		s.writeMu.Lock()
		s.mu.Lock()
		writable := s.m.State() == fsm.Established && s.sock != nil && !s.suspending
		if s.closed {
			err := s.closedErrLocked()
			s.mu.Unlock()
			s.writeMu.Unlock()
			return err
		}
		if !writable {
			s.mu.Unlock()
			s.writeMu.Unlock()
			continue
		}
		fw := s.fw
		s.mu.Unlock()

		// Coalescing: encode into the frame writer's buffer without a
		// syscall. Large accumulations flush inline (bounding buffer
		// occupancy); otherwise the next flush pass batches this frame
		// with its neighbours into one kernel write.
		seq, err := fw.WriteDataBuffered(p)
		if err == nil {
			o := s.ctrl.obs
			o.dataFrames.Inc()
			o.dataBytes.Add(uint64(len(p)))
			var flushErr error
			if fw.Buffered() >= coalesceFlushBytes {
				s.flushMu.Lock()
				flushErr = fw.Flush()
				s.flushMu.Unlock()
				if flushErr == nil {
					o.dataFlushes.Inc()
				}
			}
			s.mu.Lock()
			s.nextSendSeq = seq + 1
			s.appendSendLogLocked(seq, p)
			if flushErr == nil && fw.Buffered() > 0 {
				s.scheduleFlush()
			}
			s.mu.Unlock()
			s.writeMu.Unlock()
			if flushErr != nil {
				// The frame is journaled in the send log; recovery
				// retransmits it, so the write itself has succeeded.
				s.mu.Lock()
				s.failLocked(flushErr)
				s.mu.Unlock()
			}
			return nil
		}
		s.writeMu.Unlock()
		// The socket died under us before the frame was logged: degrade and
		// retry after recovery. The peer dedups by sequence number, so
		// rewriting is safe.
		s.mu.Lock()
		s.failLocked(err)
		s.mu.Unlock()
	}
}

// appendSendLogLocked copies p into a pooled buffer and journals it for
// retransmission. Caller holds mu AND writeMu (writeFrame's path), so no
// retransmit can be walking the log concurrently and evicted buffers can
// go straight back to the pool.
func (s *Socket) appendSendLogLocked(seq uint64, p []byte) {
	cp := wire.GetPayload(len(p))
	copy(cp, p)
	s.sendLog = append(s.sendLog, bufEntry{Seq: seq, Payload: cp})
	s.sendLogSize += len(cp)
	if s.sendLogSize <= maxSendLog {
		return
	}
	// Evict in bulk with hysteresis: dropping to 3/4 of the cap means the
	// in-place compaction below runs once per maxSendLog/4 logged bytes
	// rather than on every write, and reusing the backing array avoids the
	// allocate-and-zero churn that per-write eviction causes on a log tens
	// of thousands of entries long.
	evict := 0
	for s.sendLogSize > maxSendLog*3/4 && evict < len(s.sendLog)-1 {
		s.sendLogSize -= len(s.sendLog[evict].Payload)
		wire.PutPayload(s.sendLog[evict].Payload)
		evict++
	}
	if evict > 0 {
		s.compactSendLogLocked(evict)
	}
}

// compactSendLogLocked removes the first n entries by copying the live
// tail down and zeroing the vacated slots, so evicted payloads are not
// pinned by the backing array for the life of the connection.
func (s *Socket) compactSendLogLocked(n int) {
	kept := copy(s.sendLog, s.sendLog[n:])
	for j := kept; j < len(s.sendLog); j++ {
		s.sendLog[j] = bufEntry{}
	}
	s.sendLog = s.sendLog[:kept]
}

// trimSendLogLocked drops frames the peer confirmed receiving. Trimmed
// buffers return to the pool unless a retransmit snapshot may still be
// reading them (retxPending), in which case they are only unreferenced and
// the garbage collector reclaims them.
func (s *Socket) trimSendLogLocked(peerHasUpTo uint64) {
	i := 0
	for i < len(s.sendLog) && s.sendLog[i].Seq <= peerHasUpTo {
		s.sendLogSize -= len(s.sendLog[i].Payload)
		if !s.retxPending {
			wire.PutPayload(s.sendLog[i].Payload)
		}
		i++
	}
	if i > 0 {
		s.compactSendLogLocked(i)
	}
}

// drainAndClose executes the suspend-side teardown of the data socket:
// flush marker, half-close, drain the inbound direction to EOF into the
// buffer, then close. It is idempotent; a second call while suspended is a
// no-op. On a drain timeout the socket is failed rather than suspended
// cleanly (the send log covers the gap at resume). The half-close is
// Stream.CloseWrite (a MuxFin), so the FLUSH-barrier exactly-once
// semantics hold over the mux.
func (s *Socket) drainAndClose() {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	s.mu.Lock()
	if s.sock == nil {
		s.mu.Unlock()
		return
	}
	s.suspending = true
	sock := s.sock
	// The drain must capture everything in flight: lift receive-side
	// backpressure so a paused pump resumes pulling immediately.
	s.maybeResumePumpLocked()
	s.cond.Broadcast()
	s.mu.Unlock()

	// Write the flush marker after any in-flight application frame.
	s.writeMu.Lock()
	s.mu.Lock()
	fw := s.fw
	s.mu.Unlock()
	var flushErr error
	if fw != nil {
		s.flushMu.Lock()
		flushErr = fw.WriteFlush()
		s.flushMu.Unlock()
	}
	s.writeMu.Unlock()
	if flushErr == nil {
		flushErr = sock.CloseWrite()
	}

	// Wait for the pump to drain the peer's flush; bound the wait so a
	// dead peer cannot wedge a migration. The wait is event-driven: every
	// state change broadcasts, so the loop sleeps until the drain completes
	// (or the deadline timer fires once), not on a polling interval.
	deadline := time.Now().Add(s.ctrl.cfg.drainTimeout())
	s.mu.Lock()
	for !s.drained && !s.closed && s.sock != nil && flushErr == nil {
		if !waitCond(s.cond, time.Until(deadline)) {
			break
		}
	}
	graceful := s.drained
	if s.sock != nil {
		s.sock.Close()
		s.sock = nil
		s.fw = nil
	}
	s.sockInstalled = false
	s.suspending = false
	s.drained = false
	s.peerFlushSeen = false
	if graceful {
		// Drain handshake proves the peer received everything we sent.
		s.releaseSendLogLocked()
		s.ctrl.obs.drainsGraceful.Inc()
	} else {
		s.ctrl.obs.drainsUngraceful.Inc()
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// releaseSendLogLocked clears the send log, recycling its buffers unless a
// retransmit snapshot may still hold references. Caller holds mu.
func (s *Socket) releaseSendLogLocked() {
	if !s.retxPending {
		for i := range s.sendLog {
			wire.PutPayload(s.sendLog[i].Payload)
			s.sendLog[i] = bufEntry{}
		}
	}
	s.sendLog = nil
	s.sendLogSize = 0
}

// condTimerFires counts deadline-timer wakeups of waitCond, for the
// regression test asserting the data plane performs no periodic wakeups.
var condTimerFires atomic.Uint64

// waitCond waits on c until a broadcast or until d elapses, implemented
// with a one-shot entry on the shared timer wheel because sync.Cond has no
// native timed wait. It reports false when d was already non-positive
// (deadline passed). The wheel entry fires at most once per call — at or
// just after the caller's true deadline — so a blocked operation costs
// zero wakeups until something actually happens, and 100k blocked
// operations share one timer goroutine instead of owning one runtime
// timer each. A wakeup broadcast that lands after the wait already
// returned is a harmless spurious broadcast (all cond users loop).
func waitCond(c *sync.Cond, d time.Duration) bool {
	if d <= 0 {
		return false
	}
	t := timerwheel.AfterFunc(d, func() {
		c.L.Lock()
		condTimerFires.Add(1)
		c.Broadcast()
		c.L.Unlock()
	})
	c.Wait()
	t.Stop()
	return true
}
