package transport

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"naplet/internal/wire"
)

// Flow control: every stream starts with the negotiated window
// (wire.Limits.InitialWindow) of send credit in each direction; the
// receiver grants more once the reader has consumed half of it. A stream
// that stops reading therefore stalls only its own sender — the transport
// read loop never blocks on a full stream, so one bulk stream cannot
// head-of-line-starve its siblings.

// Stream is one logical byte stream multiplexed over a shared Transport:
// a NapletSocket's data socket. It reads, writes and takes deadlines like a
// TCP connection, adds the CloseWrite half-close the NapletSocket drain
// protocol requires, and reports readiness through event hooks.
type Stream struct {
	t  *Transport
	id uint64

	mu sync.Mutex
	// cond is the broadcast channel of blocked Reads and Writes:
	// made by the first waiter, closed and dropped by the next broadcast.
	// It is nil while nobody waits — on the event-driven path, always —
	// so an event costs no channel.
	cond chan struct{}

	// Receive side: a queue of pooled payload segments owned by the
	// stream (segs[0][roff:] is the next readable byte). Segments arrive
	// whole from the read loop and leave whole through TakeSegments, or
	// are recycled to the wire payload pool as Read drains them — inbound
	// bytes are never copied between the socket read and the consumer.
	// finSeen marks a received FIN (EOF after the queue drains); consumed
	// counts bytes handed to Read or TakeSegments since the last window
	// grant, buffered the bytes queued and not yet handed over.
	segs     [][]byte
	roff     int
	buffered int
	finSeen  bool
	consumed int

	// Send side: sendWindow is the remaining peer-granted credit.
	sendWindow int

	// Lifecycle.
	writeClosed bool // we sent FIN
	closed      bool // fully closed locally
	err         error

	rdeadline time.Time
	wdeadline time.Time

	// readable/writable are event hooks for callers that drive the stream
	// as a state machine instead of parking a goroutine in Read/Write:
	// readable fires (outside s.mu, on the transport read loop) whenever
	// read progress becomes possible — data, FIN, reset, transport
	// failure, close — and writable fires when send credit arrives or the
	// stream dies. Both must be non-blocking.
	readable func()
	writable func()
}

func newStream(t *Transport, id uint64) *Stream {
	return &Stream{t: t, id: id, sendWindow: t.streamWindow}
}

// TransportID returns the id of the shared transport carrying the stream;
// the core layer surfaces it in connection Info.
func (s *Stream) TransportID() wire.ConnID { return s.t.ID() }

// broadcastLocked wakes every waiter; callers hold s.mu.
func (s *Stream) broadcastLocked() {
	if s.cond != nil {
		close(s.cond)
		s.cond = nil
	}
}

// waitLocked releases s.mu until the next broadcast or the deadline; it
// returns os.ErrDeadlineExceeded on timeout. s.mu is held on return. A
// deadline arms a one-shot runtime timer whose callback only broadcasts
// (every caller loops re-checking its condition, so a spurious wake is
// harmless).
func (s *Stream) waitLocked(deadline time.Time) error {
	if s.cond == nil {
		s.cond = make(chan struct{})
	}
	ch := s.cond
	s.mu.Unlock()
	if deadline.IsZero() {
		<-ch
		s.mu.Lock()
		return nil
	}
	d := time.Until(deadline)
	if d <= 0 {
		s.mu.Lock()
		return os.ErrDeadlineExceeded
	}
	tm := time.AfterFunc(d, func() {
		s.mu.Lock()
		s.broadcastLocked()
		s.mu.Unlock()
	})
	<-ch
	tm.Stop()
	s.mu.Lock()
	if !time.Now().Before(deadline) {
		return os.ErrDeadlineExceeded
	}
	return nil
}

// remoteReset records a peer MuxReset — the refusal of an open, or the death
// of the peer's end later.
func (s *Stream) remoteReset(reason string) {
	if reason != "" {
		reason = ": " + reason
	}
	s.fail(fmt.Errorf("transport: stream reset by peer%s", reason))
}

// transportFailed fails the stream because the shared transport died (its
// connection broke or went silent, or it was torn down). The error wraps
// ErrTransportLost so the layer above can tell transport loss — retryable
// through its own connection-level recovery — from a stream-level reset.
func (s *Stream) transportFailed(cause error) {
	if !errors.Is(cause, ErrTransportLost) {
		cause = fmt.Errorf("%w: %w", ErrTransportLost, cause)
	}
	s.fail(cause)
}

// fail records the stream's terminal error, unless it has one: reads fail
// once the buffer drains, writes fail immediately.
func (s *Stream) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.broadcastLocked()
	rfn, wfn := s.readable, s.writable
	s.mu.Unlock()
	if rfn != nil {
		rfn()
	}
	if wfn != nil {
		wfn()
	}
}

// pushData queues one inbound payload segment, taking ownership of the
// pooled buffer. It runs on the transport read loop and must not block:
// credit guarantees the queue stays bounded by initialWindow plus one
// frame. A segment arriving after close or FIN is recycled immediately.
func (s *Stream) pushData(owned []byte) {
	s.mu.Lock()
	if s.closed || s.finSeen {
		s.mu.Unlock()
		wire.PutPayload(owned)
		return
	}
	s.segs = append(s.segs, owned)
	s.buffered += len(owned)
	s.broadcastLocked()
	fn := s.readable
	s.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// Buffered reports how many received bytes Read can return without
// blocking. With Read it satisfies wire.PeekSource.
func (s *Stream) Buffered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buffered
}

// finReceived records the peer's half-close.
func (s *Stream) finReceived() {
	s.mu.Lock()
	s.finSeen = true
	s.broadcastLocked()
	fn := s.readable
	s.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// addSendWindow credits the send window from a peer MuxWindow grant.
func (s *Stream) addSendWindow(n int) {
	s.mu.Lock()
	s.sendWindow += n
	s.broadcastLocked()
	fn := s.writable
	s.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// Read implements io.Reader. A clean peer half-close yields io.EOF after
// the buffered bytes drain, which is exactly the orderly-shutdown signal
// the NapletSocket drain protocol watches for.
func (s *Stream) Read(p []byte) (int, error) {
	s.mu.Lock()
	for {
		if s.closed {
			s.mu.Unlock()
			return 0, ErrStreamClosed
		}
		if len(s.segs) > 0 {
			break
		}
		if s.err != nil {
			err := s.err
			s.mu.Unlock()
			return 0, err
		}
		if s.finSeen {
			s.mu.Unlock()
			return 0, io.EOF
		}
		if err := s.waitLocked(s.rdeadline); err != nil {
			s.mu.Unlock()
			return 0, err
		}
	}
	// Drain whole segments into p while room remains, recycling each
	// fully-consumed segment to the payload pool (the queue never holds a
	// drained head, so len(segs) > 0 means bytes are readable).
	n := 0
	for n < len(p) && len(s.segs) > 0 {
		m := copy(p[n:], s.segs[0][s.roff:])
		n += m
		s.roff += m
		if s.roff == len(s.segs[0]) {
			wire.PutPayload(s.segs[0])
			s.segs[0] = nil
			s.segs = s.segs[1:]
			s.roff = 0
		}
	}
	grant := s.consumeLocked(n)
	s.mu.Unlock()
	s.grantWindow(grant)
	return n, nil
}

// consumeLocked accounts n bytes handed to the consumer and returns the
// window credit to grant the peer for them (zero until half the window has
// been consumed). Callers hold s.mu and pass the result to grantWindow
// after releasing it.
func (s *Stream) consumeLocked(n int) (grant int) {
	s.buffered -= n
	s.consumed += n
	if s.consumed >= s.t.streamWindowAt && s.err == nil && !s.finSeen {
		grant = s.consumed
		s.consumed = 0
	}
	return grant
}

// grantWindow sends the peer the credit consumeLocked returned, if any.
func (s *Stream) grantWindow(grant int) {
	if grant <= 0 {
		return
	}
	var w [4]byte
	w[0], w[1], w[2], w[3] = byte(grant>>24), byte(grant>>16), byte(grant>>8), byte(grant)
	// An error here means the transport is gone and this stream's err is
	// already set.
	s.t.writeFrame(wire.MuxWindow, s.id, w[:])
}

// Write implements io.Writer, chunking by both the peer's credit window and
// the mux frame payload bound. The wait for room in the transport's write
// queue happens outside s.mu, so a stuck kernel send never holds the stream
// lock.
func (s *Stream) Write(p []byte) (int, error) {
	written := 0
	// stalled throttles the flight-recorder event to one per Write call
	// that runs out of credit, not one per wait wakeup.
	stalled := false
	for len(p) > 0 {
		s.mu.Lock()
		for {
			if err := s.writeErrLocked(); err != nil {
				s.mu.Unlock()
				return written, err
			}
			if s.sendWindow > 0 {
				break
			}
			if !stalled {
				stalled = true
				s.t.rec.record("credit-stall", "stream=%d", s.id)
			}
			if err := s.waitLocked(s.wdeadline); err != nil {
				s.mu.Unlock()
				return written, err
			}
		}
		n := len(p)
		if n > s.sendWindow {
			n = s.sendWindow
		}
		if max := s.t.maxPlain; n > max {
			n = max
		}
		s.sendWindow -= n
		s.mu.Unlock()
		if err := s.t.writeFrame(wire.MuxData, s.id, p[:n]); err != nil {
			return written, err
		}
		written += n
		p = p[n:]
	}
	return written, nil
}

// writeErrLocked is the error a write fails with before sending anything:
// ErrStreamClosed after Close or CloseWrite, else the stream's terminal
// error, if any. Callers hold s.mu.
func (s *Stream) writeErrLocked() error {
	if s.closed || s.writeClosed {
		return ErrStreamClosed
	}
	return s.err
}

// CloseWrite half-closes the stream: the peer reads EOF after consuming
// everything sent, mirroring (*net.TCPConn).CloseWrite for the suspend
// drain's FLUSH barrier.
func (s *Stream) CloseWrite() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrStreamClosed
	}
	if s.writeClosed || s.err != nil {
		s.mu.Unlock()
		return nil
	}
	s.writeClosed = true
	s.mu.Unlock()
	return s.t.writeFrame(wire.MuxFin, s.id, nil)
}

// Close releases the stream. A stream that finished cleanly in both
// directions just detaches; otherwise the peer gets a MuxReset so its end
// fails promptly rather than hanging.
func (s *Stream) Close() error {
	s.reset("")
	return nil
}

// reset is Close with the reason the peer's end fails with.
func (s *Stream) reset(reason string) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	clean := s.writeClosed && s.finSeen && len(s.segs) == 0
	failed := s.err != nil
	for _, seg := range s.segs {
		wire.PutPayload(seg)
	}
	s.segs = nil
	s.roff = 0
	s.buffered = 0
	s.broadcastLocked()
	rfn, wfn := s.readable, s.writable
	s.mu.Unlock()
	if rfn != nil {
		rfn()
	}
	if wfn != nil {
		wfn()
	}
	s.t.removeStream(s.id)
	if !clean && !failed && s.t.alive() {
		s.t.writeFrame(wire.MuxReset, s.id, []byte(reason))
	}
}

// SetDeadline bounds blocked Reads and Writes, like net.Conn's.
func (s *Stream) SetDeadline(t time.Time) error {
	s.mu.Lock()
	s.rdeadline, s.wdeadline = t, t
	s.broadcastLocked()
	s.mu.Unlock()
	return nil
}

// SetReadDeadline bounds blocked Reads.
func (s *Stream) SetReadDeadline(t time.Time) error {
	s.mu.Lock()
	s.rdeadline = t
	s.broadcastLocked()
	s.mu.Unlock()
	return nil
}

// SetWriteDeadline bounds blocked Writes.
func (s *Stream) SetWriteDeadline(t time.Time) error {
	s.mu.Lock()
	s.wdeadline = t
	s.broadcastLocked()
	s.mu.Unlock()
	return nil
}

// ---- event-driven access (the C10K pump path) ----
//
// The methods below let a caller drive the stream as a state machine
// instead of parking a goroutine per stream in Read/Write: register a
// readable hook, take the queued segments when it fires, and probe
// TermStatus for the EOF/reset/close verdict that a blocking Read would
// have returned.

// TakeSegments hands the caller the queued received segments, oldest first,
// appended to dst: whole pooled buffers exactly as the read loop queued
// them, until their capacities — the memory changing hands — add up to max
// bytes (at least one when any is queued and max is positive). Ownership
// moves with them — each goes back through wire.PutPayload when its last
// byte has been used — and so does their window credit: taking is
// consuming, so a caller that stops taking is what pushes back on the
// sender. One lock round trip moves any number of segments, and no byte is
// copied.
func (s *Stream) TakeSegments(dst [][]byte, max int) [][]byte {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return dst
	}
	n, i := 0, 0
	for held := 0; i < len(s.segs) && held < max; i++ {
		seg := s.segs[i][s.roff:]
		s.roff = 0
		dst = append(dst, seg)
		n += len(seg)
		held += cap(seg)
	}
	kept := copy(s.segs, s.segs[i:])
	clear(s.segs[kept:])
	s.segs = s.segs[:kept]
	grant := s.consumeLocked(n)
	s.mu.Unlock()
	s.grantWindow(grant)
	return dst
}

// SetReadable installs fn as the readable hook; it fires (on the
// transport read loop — it must not block) whenever read progress
// becomes possible: data queued, FIN, reset, transport failure, or local
// close. If the stream is already readable or terminal, fn fires once
// immediately so a registration after the fact misses nothing.
func (s *Stream) SetReadable(fn func()) {
	s.mu.Lock()
	s.readable = fn
	fire := fn != nil && (len(s.segs) > 0 || s.finSeen || s.err != nil || s.closed)
	s.mu.Unlock()
	if fire {
		fn()
	}
}

// SetWritable installs fn as the writable hook; it fires when send
// credit arrives or the stream dies. If the stream already has credit or
// is terminal, fn fires once immediately.
func (s *Stream) SetWritable(fn func()) {
	s.mu.Lock()
	s.writable = fn
	fire := fn != nil && (s.sendWindow > 0 || s.err != nil || s.closed || s.writeClosed)
	s.mu.Unlock()
	if fire {
		fn()
	}
}

// SendWindow reports the remaining peer-granted send credit.
func (s *Stream) SendWindow() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sendWindow
}

// TermStatus reports whether the stream is terminal for reading and the
// error a blocking Read would return once the queue drains: local close,
// the stream/transport error, or io.EOF after a clean FIN. A FIN with
// segments still queued is not terminal yet — their arrival fired the
// readable hook, and the pass that takes them probes again. Whether the
// bytes taken ended inside a record is the taker's to know, not the
// stream's.
func (s *Stream) TermStatus() (error, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return ErrStreamClosed, true
	case s.err != nil:
		return s.err, true
	case s.finSeen && len(s.segs) == 0:
		return io.EOF, true
	}
	return nil, false
}
