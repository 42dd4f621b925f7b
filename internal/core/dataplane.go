package core

import (
	"errors"
	"fmt"
	"io"
	"math"
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
// passes, the receive buffer and send log — both queues of segments, runs of
// encoded frames in pooled buffers — and the suspend-time drain. The
// control-plane exchanges that decide WHEN these run (suspend/resume/close)
// live in ops.go; the socket's identity and lifecycle bookkeeping stay in
// conn.go.

// Limits of the per-connection buffers.
const (
	// maxRecvBuffer bounds the bytes the receive buffer holds (segment
	// capacities, headers and slack included); at the bound the pump stops
	// taking segments from the stream, so transport flow control pushes
	// back on the sender. The bound is lifted while draining for a suspend
	// — everything in flight must be captured.
	maxRecvBuffer = 4 << 20
	// maxSendLog bounds the bytes the retransmission log holds, counted the
	// same way; past it the oldest segments are evicted. A graceful suspend
	// clears the log (the drain handshake proves delivery); the cap only
	// matters between suspends.
	maxSendLog = 4 << 20
	// coalesceFlushBytes is the write-coalescing high-water mark: a write
	// that leaves at least this much pending flushes inline instead of
	// waiting for the next flush pass, bounding the data one pass writes.
	coalesceFlushBytes = 32 << 10
	// sendSegBytes is the size send segments grow to: the largest pool
	// class, one 64 KiB message with its header or some 560 of 100 B.
	sendSegBytes = 64<<10 + wire.FrameHeaderSize
)

// eachDataFrame calls fn for every data frame of b, a run of whole frames.
func eachDataFrame(b []byte, fn func(wire.Frame)) {
	for len(b) > 0 {
		f, size, _ := wire.PeekFrame(b)
		if f.IsData() {
			fn(f)
		}
		b = b[size:]
	}
}

// installSocket adopts a fresh data stream: retransmits anything the peer
// reports missing, and registers the stream's event hooks. Callers
// transition the state machine afterwards. Network emulation wrapping
// happens at the shared transport (per host pair), not here.
func (s *Socket) installSocket(sock *transport.Stream, peerHasUpTo uint64) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	// Taking flushMu waits out a flush of the previous generation that is
	// still returning from its (failed) write: from here on nothing else
	// reads the log.
	s.flushMu.Lock()
	defer s.flushMu.Unlock()

	s.mu.Lock()
	// Trim acknowledged segments, then collect what the peer is missing:
	// the rest of the head segment from the first frame it lacks, and every
	// later segment verbatim.
	s.trimSendLogLocked(peerHasUpTo)
	if len(s.sendLog) > 0 && s.sendLog[0].first > peerHasUpTo+1 {
		s.mu.Unlock()
		sock.Close()
		return fmt.Errorf("%w: peer has up to %d, log starts at %d",
			ErrUnrecoverable, peerHasUpTo, s.sendLog[0].first)
	}
	missing := make([][]byte, len(s.sendLog))
	for i := range s.sendLog {
		missing[i] = s.sendLog[i].buf
	}
	if len(missing) > 0 {
		b := missing[0]
		for len(b) > 0 {
			f, size, _ := wire.PeekFrame(b)
			if f.Seq > peerHasUpTo {
				break
			}
			b = b[size:]
		}
		missing[0] = b
	}
	// The list shares the log's buffers; pin them against pool recycling (a
	// concurrent control-plane trim) until the writes below are done.
	s.retxPending = len(missing) > 0
	s.mu.Unlock()

	// Retransmits are a forced write barrier: everything goes to the wire
	// before the new generation starts coalescing application writes.
	for _, b := range missing {
		if len(b) == 0 {
			continue
		}
		if _, err := sock.Write(b); err != nil {
			sock.Close()
			s.mu.Lock()
			s.retxPending = false
			s.mu.Unlock()
			return fmt.Errorf("napletsocket: retransmitting frames: %w", err)
		}
	}

	s.mu.Lock()
	s.retxPending = false
	s.sock = sock
	s.gen++
	// Everything logged has now been written; nothing is pending.
	s.flushedSeq = s.nextSendSeq - 1
	s.cutSeq = s.nextSendSeq
	s.cutOff = 0
	if k := len(s.sendLog) - 1; k >= 0 {
		s.cutOff = len(s.sendLog[k].buf)
	}
	s.pumpDec = &wire.FrameDecoder{}
	s.pumpPaused = false
	s.suspending = false
	s.peerFlushSeen = false
	s.drained = false
	s.failing = false
	s.remoteSuspended = false
	s.susResReceived = false
	s.peerResumeParked = false
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

// dropSockLocked lets go of the data socket: the end of a generation by
// failure, close or drain. Frames still pending stay in the send log as
// accepted-but-unsent; the next generation's retransmit carries them.
// Caller holds mu.
func (s *Socket) dropSockLocked() {
	if s.sock == nil {
		return
	}
	s.sock.Close()
	s.sock = nil
	s.cutLocked()
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

// pumpEvent is one event-driven pump pass: take the segments the stream has
// queued and move them into the receive buffer, without ever blocking on
// the network. It stops when the stream runs dry, when the receive buffer
// is at its bound (backpressure: not taking means the stream grants the
// peer no more flow-control credit), or when the stream reports a terminal
// condition. pumpMu single-flights passes so a re-enqueue during a pass
// cannot interleave them.
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
		room := maxRecvBuffer - s.recvHeld
		if s.suspending {
			room = math.MaxInt
		}
		if room <= 0 {
			s.pumpPaused = true
			s.mu.Unlock()
			return
		}
		last := s.lastEnqueued
		s.mu.Unlock()

		s.pumpSegs = st.TakeSegments(s.pumpSegs[:0], room)
		if len(s.pumpSegs) == 0 {
			// Stream ran dry: either it is simply idle again (a later
			// readable event re-arms us), or it ended — EOF, reset, or a FIN
			// that cut a frame short.
			if termErr, terminal := st.TermStatus(); terminal {
				if termErr == io.EOF && dec.Partial() {
					termErr = io.ErrUnexpectedEOF
				}
				dec.Release()
				s.readerExit(gen, termErr)
			}
			return
		}
		ok, err := s.ingest(gen, dec, last, s.pumpSegs)
		clear(s.pumpSegs)
		if err != nil {
			s.readerExit(gen, err)
		}
		if !ok || err != nil {
			return
		}
	}
}

// frameWalk carries what the pump learns walking one hand-over of segments:
// the highest data sequence number accepted and the peer's flush marker.
type frameWalk struct {
	last      uint64
	flushSeen bool
	flushSeq  uint64
}

// admit walks the whole frames of buf from off, in place. Sequence-number
// dedup makes redelivery idempotent: a data frame at or below the
// high-water mark is a duplicate from a retransmit, stepped over if it
// leads the run and voided if it sits inside it. It returns the span
// [start, stop) from the first to the last admitted data frame (start < 0
// when there is none) and end, where the walk stopped: len(buf), or the
// start of a frame buf holds only part of.
func (w *frameWalk) admit(buf []byte, off int) (start, stop, end int, err error) {
	start = -1
	for off < len(buf) {
		f, size, err := wire.PeekFrame(buf[off:])
		if err != nil {
			return start, stop, off, err
		}
		if size == 0 {
			break
		}
		switch {
		case f.IsFlush():
			w.flushSeen, w.flushSeq = true, f.Seq
		case !f.IsData():
		case f.Seq > w.last:
			w.last = f.Seq
			if start < 0 {
				start = off
			}
			stop = off + size
		case start >= 0:
			wire.VoidFrame(buf[off:])
		}
		off += size
	}
	return start, stop, off, nil
}

// ingest moves one hand-over of stream segments into the receive buffer.
// Each segment is walked where it lies and queued as it is; only a frame
// that straddles two segments is assembled, in a pooled buffer of its own,
// itself a one-frame segment. Everything is queued under one lock
// acquisition, and nothing waits for buffer space: the pump must not block
// a pool worker, so pumpEvent stops taking from the stream while the buffer
// is at its bound. It reports false when the socket generation ended
// underneath the pump (what was taken is recycled), and the error of a
// malformed frame after queueing what preceded it.
func (s *Socket) ingest(gen int, dec *wire.FrameDecoder, last uint64, segs [][]byte) (bool, error) {
	w := frameWalk{last: last}
	runs := s.pumpRuns[:0]
	var err error
	for _, seg := range segs {
		kept := false
		off := 0
		if err == nil && dec.Partial() {
			var frame []byte
			frame, off, err = dec.Fill(seg)
			if frame != nil {
				if start, stop, _, _ := w.admit(frame, 0); start >= 0 {
					runs = append(runs, segment{buf: frame[:stop], off: start})
				} else {
					wire.PutPayload(frame)
				}
			}
		}
		if err == nil && off < len(seg) {
			var start, stop, end int
			if start, stop, end, err = w.admit(seg, off); start >= 0 {
				runs = append(runs, segment{buf: seg[:stop], off: start})
				kept = true
			}
			if err == nil && end < len(seg) {
				_, _, err = dec.Fill(seg[end:])
			}
		}
		if !kept {
			wire.PutPayload(seg)
		}
	}
	s.pumpRuns = runs[:0]
	defer clear(runs)

	s.mu.Lock()
	defer s.mu.Unlock()
	if gen != s.gen || s.closed {
		for _, r := range runs {
			wire.PutPayload(r.buf)
		}
		return false, nil
	}
	for _, r := range runs {
		r.via = s.suspending
		s.recvQ = append(s.recvQ, r)
		s.recvHeld += cap(r.buf)
	}
	s.lastEnqueued = w.last
	if w.flushSeen {
		s.peerFlushSeen, s.peerFlushSeq = true, w.flushSeq
	}
	if len(runs) > 0 {
		s.cond.Broadcast()
	}
	return true, err
}

// maybeResumePumpLocked restarts the event-driven pump after receive-side
// backpressure clears: the application drained below the bound, or a
// suspend drain lifted it. Caller holds mu.
func (s *Socket) maybeResumePumpLocked() {
	if s.pumpPaused && (s.recvHeld < maxRecvBuffer || s.suspending) {
		s.pumpPaused = false
		s.schedulePump()
	}
}

// cutLocked takes the pending frames out of the write buffer — for a stream
// write, or for good when the data socket is gone — and returns their bytes
// (nil when nothing is pending). This is where the data counters move: per
// cut, not per frame. Caller holds mu, and to write the batch also writeMu,
// and flushMu by the time it does.
func (s *Socket) cutLocked() []byte {
	frames := s.nextSendSeq - s.cutSeq
	if frames == 0 {
		return nil
	}
	tail := s.sendLog[len(s.sendLog)-1].buf
	batch := tail[s.cutOff:]
	s.cutOff = len(tail)
	s.cutSeq = s.nextSendSeq
	o := s.ctrl.obs
	o.dataFrames.Add(frames)
	o.dataBytes.Add(uint64(len(batch)) - frames*wire.FrameHeaderSize)
	return batch
}

// writeCut writes cut batches to the stream in order, releases flushMu
// (which the caller holds), and then records that the frames up to last are
// through: their segments may be recycled, and whatever became pending
// meanwhile gets a flush pass. That check has to follow the unlock — a pass
// that found flushMu taken stood down counting on it. A failed write
// degrades the connection; the frames are in the send log, so recovery
// retransmits them. The caller also holds writeMu unless a flush pass cut
// the batch.
func (s *Socket) writeCut(sock *transport.Stream, last uint64, b1, b2 []byte) error {
	var err error
	var writes uint64
	for _, b := range [2][]byte{b1, b2} {
		if len(b) > 0 && err == nil {
			_, err = sock.Write(b)
			writes++
		}
	}
	s.flushMu.Unlock()
	s.mu.Lock()
	s.flushedSeq = max(s.flushedSeq, last)
	s.flushing = false
	switch {
	case s.sock != sock:
		// The generation ended under the write; whatever replaced it is not
		// this write's to fail or to flush.
	case err != nil:
		s.failLocked(err)
	case s.cutSeq != s.nextSendSeq:
		s.scheduleFlush()
	}
	s.mu.Unlock()
	if err == nil {
		s.ctrl.obs.dataFlushes.Add(writes)
	}
	return err
}

// flushEvent is one event-driven flush pass: cut the pending frames and
// push them to the stream. A batch the stream lacks send credit for is
// handed to a transient goroutine that rides out the stall holding
// flushMu, so pool workers never block on a slow peer.
func (s *Socket) flushEvent() {
	s.writeMu.Lock()
	if !s.flushMu.TryLock() {
		// A flush (possibly credit-stalled) is already in flight; it
		// re-schedules on completion, so this pass just stands down.
		s.writeMu.Unlock()
		return
	}
	s.mu.Lock()
	sock := s.sock
	var batch []byte
	if sock != nil && !s.closed {
		batch = s.cutLocked()
	}
	last := s.cutSeq - 1
	s.flushing = batch != nil
	s.mu.Unlock()
	if batch == nil {
		// flushMu goes first: a pass that finds it taken stands down, and
		// with writeMu still held no frame can have become pending for it.
		s.flushMu.Unlock()
		s.writeMu.Unlock()
		return
	}
	// writeMu releases before the write: writers encode the next batch
	// while this one's syscall is in flight.
	s.writeMu.Unlock()
	if sock.SendWindow() < len(batch) {
		go s.writeCut(sock, last, batch, nil)
		return
	}
	s.writeCut(sock, last, batch, nil)
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

// establishLocked steps from from by ev into ESTABLISHED over a freshly
// installed stream, and then probes that stream. Its opener did not wait for
// the peer's verdict, so a refusal (or any reset) can land in CONNECT_SENT,
// RES_SENT, CONNECT_ACKED or RES_ACKED, where readerExit's failLocked has
// nothing to degrade — and a dead stream raises no second event. Probing under
// the same hold of mu as the step keeps every connection from resting in
// ESTABLISHED over a terminal stream. Caller holds mu.
func (s *Socket) establishLocked(from fsm.State, ev fsm.Event) {
	if s.m.State() == from {
		s.step(ev)
	}
	if s.sock == nil || s.m.State() != fsm.Established {
		return
	}
	if err, terminal := s.sock.TermStatus(); terminal {
		s.failLocked(err)
	}
}

// failLocked moves an established connection to SUSPENDED after a data
// socket failure and schedules recovery. Caller holds mu.
func (s *Socket) failLocked(cause error) {
	if s.failing || s.closed {
		return
	}
	if s.m.State() != fsm.Established {
		// An open or resume is still on its way to ESTABLISHED over this
		// stream; the step that gets it there takes the failure up.
		s.cond.Broadcast()
		return
	}
	s.failing = true
	if s.failedAt.IsZero() {
		s.failedAt = time.Now()
	}
	s.step(fsm.Fail)
	s.dropSockLocked()
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
	s.scheduleFailureResume(failureResumeDelay(s.highPriority))
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
		for n < len(p) && len(s.recvQ) > 0 {
			seg := &s.recvQ[0]
			f, size, _ := wire.PeekFrame(seg.buf[seg.off:])
			if f.IsData() {
				// The observer hears of a message when its first byte is
				// served — for the restored tail of a half-read message that
				// is the remainder, announced as a from-buffer delivery, so
				// the Fig 7 socket-vs-buffer accounting covers it too.
				if obs := s.observer; obs != nil && s.readDone == 0 {
					obs(f.Seq, f.Payload, seg.via)
				}
				c := copy(p[n:], f.Payload[s.readDone:])
				n += c
				if s.readDone += c; s.readDone < len(f.Payload) {
					break
				}
			}
			s.nextFrameLocked(size)
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

// nextFrameLocked moves the read cursor past the frame of size encoded
// bytes at the head of the receive buffer; a segment read out goes back to
// the pool. A queued segment ends with a data frame, so the buffer is empty
// exactly when the queue is. Caller holds mu.
func (s *Socket) nextFrameLocked(size int) {
	s.readDone, s.readTail = 0, false
	seg := &s.recvQ[0]
	if seg.off += size; seg.off < len(seg.buf) {
		return
	}
	s.recvHeld -= cap(seg.buf)
	wire.PutPayload(seg.buf)
	*seg = segment{}
	s.recvQ = s.recvQ[1:]
}

// releaseIfReadOutLocked lets go of an endpoint its peer has closed once the
// application has read the last byte the peer wrote before closing. Until
// then the endpoint stays resident (and travels with its agent), so an
// agent that was mid-migration when the close arrived still finds the
// connection at its new host and reads it to EOF. Caller holds mu.
func (s *Socket) releaseIfReadOutLocked() {
	if s.closed && len(s.recvQ) == 0 {
		s.ctrl.tab.drop(s)
	}
}

// ReadMsg reads one whole message (one writer-side WriteMsg / Write call's
// frame), preserving message boundaries. It must not be mixed with Read on
// the same socket. The returned slice is a copy the caller owns.
func (s *Socket) ReadMsg() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for len(s.recvQ) > 0 {
			seg := &s.recvQ[0]
			f, size, _ := wire.PeekFrame(seg.buf[seg.off:])
			if !f.IsData() {
				s.nextFrameLocked(size)
				continue
			}
			if obs := s.observer; obs != nil {
				obs(f.Seq, f.Payload, seg.via)
			}
			msg := append([]byte(nil), f.Payload...)
			s.nextFrameLocked(size)
			s.maybeResumePumpLocked()
			s.releaseIfReadOutLocked()
			return msg, nil
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
// returns only after every frame is in the send log, from where a flush or
// a later retransmit carries it to the peer.
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

// writeFrame sends one frame of at most wire.MaxFramePayload bytes, waiting
// out suspensions. The frame is encoded once, onto the tail segment of the
// send log, under one acquisition each of writeMu and mu; once there the
// write has succeeded, whatever becomes of the data socket — recovery
// retransmits from the log, and the peer dedups by sequence number.
func (s *Socket) writeFrame(p []byte) error {
	s.writeMu.Lock()
	s.mu.Lock()
	for s.m.State() != fsm.Established || s.sock == nil || s.suspending {
		// Not writable: wait for a state change without holding writeMu,
		// which the suspend drain needs for its flush marker.
		s.writeMu.Unlock()
		if s.closed {
			err := s.closedErrLocked()
			s.mu.Unlock()
			return err
		}
		s.cond.Wait()
		s.mu.Unlock()
		s.writeMu.Lock()
		s.mu.Lock()
	}
	sock := s.sock

	// Coalescing: the frame joins the pending bytes without a syscall. A
	// large accumulation flushes inline (bounding what one pass writes), as
	// does what is pending in a tail segment the frame no longer fits;
	// otherwise the next flush pass batches the frame with its neighbours
	// into one stream write.
	var b1, b2 []byte
	need := wire.FrameHeaderSize + len(p)
	k := len(s.sendLog) - 1
	if k < 0 || cap(s.sendLog[k].buf)-len(s.sendLog[k].buf) < need {
		b1 = s.cutLocked()
		s.growSendLogLocked(need)
		k = len(s.sendLog) - 1
	}
	tail := &s.sendLog[k]
	// Write and WriteMsg bound len(p), the only thing AppendFrame rejects.
	tail.buf, _ = wire.AppendFrame(tail.buf, wire.Frame{Seq: s.nextSendSeq, Flags: wire.FlagData, Payload: p})
	tail.last = s.nextSendSeq
	s.nextSendSeq++
	if len(tail.buf)-s.cutOff >= coalesceFlushBytes {
		b2 = s.cutLocked()
	}
	last := s.cutSeq - 1
	inline := b1 != nil || b2 != nil
	if !inline && !s.flushing && !s.flushReq.Load() {
		s.scheduleFlush()
	}
	s.mu.Unlock()
	if inline {
		s.flushMu.Lock()
		s.writeCut(sock, last, b1, b2)
	}
	s.writeMu.Unlock()
	return nil
}

// growSendLogLocked starts a new tail segment with room for a frame of need
// encoded bytes, and evicts the oldest segments past maxSendLog. A
// connection's first segment is the smallest pool class the frame fits and
// each later one eight times the last, up to sendSegBytes: among 100k idle
// connections each pins a kilobyte, while a streaming one spends a pool
// draw per few hundred messages. A frame larger than that gets a segment
// sized for it. Caller holds mu.
func (s *Socket) growSendLogLocked(need int) {
	size := 0
	if k := len(s.sendLog) - 1; k >= 0 {
		size = min(8*cap(s.sendLog[k].buf), sendSegBytes)
	}
	buf := wire.GetPayload(max(size, need))[:0]
	s.sendLog = append(s.sendLog, segment{buf: buf, first: s.nextSendSeq})
	s.sendHeld += cap(buf)
	s.cutOff = 0
	n := 0
	for held := s.sendHeld; held > maxSendLog && n < len(s.sendLog)-1; n++ {
		held -= cap(s.sendLog[n].buf)
	}
	s.dropSendSegsLocked(n)
}

// trimSendLogLocked drops the segments the peer confirmed receiving in
// full; a segment it has only part of stays whole, and the retransmit skips
// the frames it has. Caller holds mu.
func (s *Socket) trimSendLogLocked(peerHasUpTo uint64) {
	n := 0
	for n < len(s.sendLog) && s.sendLog[n].last <= peerHasUpTo && s.sendLog[n].last < s.cutSeq {
		n++
	}
	s.dropSendSegsLocked(n)
}

// dropSendSegsLocked removes the n oldest segments of the send log. Their
// buffers return to the pool unless a stream write or a retransmit may
// still be reading them, in which case they are only unreferenced and the
// garbage collector reclaims them. Caller holds mu.
func (s *Socket) dropSendSegsLocked(n int) {
	if n == 0 {
		return
	}
	for i := range s.sendLog[:n] {
		seg := &s.sendLog[i]
		s.sendHeld -= cap(seg.buf)
		if seg.last <= s.flushedSeq && !s.retxPending {
			wire.PutPayload(seg.buf)
		}
	}
	kept := copy(s.sendLog, s.sendLog[n:])
	clear(s.sendLog[kept:])
	s.sendLog = s.sendLog[:kept]
	if kept == 0 {
		s.cutOff = 0
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

	// Write the flush marker after any in-flight application frame: what is
	// still pending first, then the marker carrying the last sequence
	// number written (not logged — a later generation must not replay it).
	s.writeMu.Lock()
	s.flushMu.Lock()
	s.mu.Lock()
	var batch []byte
	if s.sock == sock {
		batch = s.cutLocked()
	}
	last := s.cutSeq - 1
	s.mu.Unlock()
	flushErr := s.writeCut(sock, last, batch, nil)
	if flushErr == nil {
		// writeMu still orders the marker behind every frame.
		var hdr [wire.FrameHeaderSize]byte
		marker, _ := wire.AppendFrame(hdr[:0], wire.Frame{Seq: last, Flags: wire.FlagFlush})
		_, flushErr = sock.Write(marker)
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
	s.dropSockLocked()
	s.suspending = false
	s.drained = false
	s.peerFlushSeen = false
	if graceful {
		// Drain handshake proves the peer received everything we sent.
		s.dropSendSegsLocked(len(s.sendLog))
		s.ctrl.obs.drainsGraceful.Inc()
	} else {
		s.ctrl.obs.drainsUngraceful.Inc()
	}
	s.cond.Broadcast()
	s.mu.Unlock()
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
