// Package transport implements the shared per-host-pair transport layer:
// one authenticated TCP connection between any two hosts, multiplexing
// every logical NapletSocket data stream between them.
//
// The paper's Table 1 shows connection setup cost is dominated by the
// per-connection TCP handshake plus Diffie-Hellman key exchange. This layer
// amortises both: the first connection between two hosts dials once and
// runs one DH exchange; every later connection (and every migration resume
// targeting the same host) opens a lightweight stream over the warm
// transport, paying only a control round trip. Streams carry per-stream
// credit-based flow control so one bulk stream cannot head-of-line-starve
// the others, and each stream supports the half-close (CloseWrite) the
// suspend drain's FLUSH barrier depends on.
//
// The transport is fail-stop: it lives exactly as long as its one TCP
// connection. A read or write error, or a keepalive timeout on a half-open
// path, fails it once, and every stream on it fails with the typed
// ErrTransportLost. Recovery is not this layer's job: each NapletSocket
// above keeps its unconfirmed frames in its own send log, degrades to
// SUSPENDED, and resumes over a fresh transport with the paper's RES and
// last-sequence exchange, which retransmits exactly the gap. One replay
// log, one resume handshake, one backoff loop — the connection's.
//
// Security (Section 3.3 of the paper, amortised): the transport handshake
// runs the paper's unauthenticated ephemeral DH once per host pair instead
// of once per connection, and both sides prove possession of the derived
// transport secret with HMAC tags over the hello transcript. Per-connection
// session keys are then derived from the transport secret bound to the
// connection id, so compromise of one connection's key reveals nothing
// about its siblings; the handoff tokens and control-message HMACs above
// run under those keys. The trust root is the paper's (unauthenticated DH,
// hardened by the Guard policy layer); the exchange is X25519 rather than
// the paper's modular exponentiation, and it is paid once per host pair.
package transport

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"naplet/internal/dhkx"
	"naplet/internal/obs"
	"naplet/internal/security"
	"naplet/internal/wire"
)

// Errors returned by the transport layer.
var (
	// ErrClosed reports use of a closed manager or transport.
	ErrClosed = errors.New("transport: closed")
	// ErrStreamClosed reports use of a locally closed stream.
	ErrStreamClosed = errors.New("transport: stream closed")
	// ErrHandshake reports a failed transport handshake.
	ErrHandshake = errors.New("transport: handshake failed")
	// ErrTransportLost reports that the shared transport session died: its
	// connection broke, or went silent past the keepalive timeout. Stream
	// errors wrap it, so the layer above can tell retryable transport loss
	// apart from a stream-level reset with errors.Is.
	ErrTransportLost = errors.New("transport: session lost")
)

// Transport is one end of the shared connection between a pair of hosts.
// Both sides hold the same transport id and secret; the dialer opens
// odd-numbered streams, the acceptor even-numbered ones.
type Transport struct {
	mgr    *Manager
	id     wire.ConnID
	secret []byte
	// neg is the protocol agreement of the handshake (version, cipher
	// suite, limits).
	neg wire.Negotiated
	// conn is the shared connection: one for the transport's life.
	conn net.Conn
	// flusher is the connection's one writer: every frame is queued, in
	// wire order, and its goroutine seals (on encrypted sessions) and
	// writes the queue, so no caller ever waits on the kernel.
	flusher *recordFlusher
	// Negotiated limits, fixed at registration: maxPlain caps one frame's
	// payload (a full-size frame's record, header and tag included, is the
	// negotiated MaxPayload), streamWindow is the per-stream credit window
	// and streamWindowAt the consumed-byte threshold past which a stream's
	// reader grants the peer more credit, kaInterval the keepalive probe
	// cadence.
	maxPlain       int
	streamWindow   int
	streamWindowAt int
	kaInterval     time.Duration
	dialer         bool
	// relayed records whether the connection runs through a rendezvous
	// relay rather than a direct dial.
	relayed bool
	// peerHost and peerAddr are what the peer advertised in its hello;
	// peerAddr keys the manager's reuse table so either side can open
	// streams over the one connection.
	peerHost string
	peerAddr string
	// addrKey is the manager reuse-table key this transport registered
	// under ("" when none).
	addrKey string
	opened  time.Time

	mu       sync.Mutex
	streams  map[uint64]*Stream
	nextID   uint64
	closed   bool
	closeErr error
	// done closes when the transport fails, stopping its keepalive; down
	// closes once that failure has run to its end (flight recorder dumped,
	// every stream failed), which Manager.Close waits for.
	done chan struct{}
	down chan struct{}

	// lastRead is the unix-nano time of the last inbound frame (keepalive
	// freshness).
	lastRead atomic.Int64

	// Smoothed path RTT (RFC 6298 estimator, see rtt.go): srttNanos /
	// rttvarNanos hold the estimate, pingSentAt the unix-nano stamp of the
	// oldest unanswered keepalive ping (0 when none outstanding). Seeded
	// from the handshake duration, refined by every ping/pong round.
	srttNanos   atomic.Int64
	rttvarNanos atomic.Int64
	pingSentAt  atomic.Int64

	// rec is the transport's flight recorder: a bounded ring of lifecycle
	// events dumped into the log when the session dies with
	// ErrTransportLost.
	rec *flightRecorder
	// log carries the transport's id and peer host on every line.
	log *obs.Logger
}

// ID returns the transport id shared by both ends.
func (t *Transport) ID() wire.ConnID { return t.id }

// Secret returns the transport secret both ends derived at handshake;
// connection session keys are derived from it bound to the connection id.
func (t *Transport) Secret() []byte { return t.secret }

func (t *Transport) alive() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return !t.closed
}

// handshake constants.
const (
	serverTagLabel = "naplet-transport-server-v1"
	clientTagLabel = "naplet-transport-client-v1"
)

// transcriptTag authenticates the handshake transcript under the transport
// secret, proving the tagger derived the same secret. Because the raw
// hello bytes are covered, the tags double as downgrade protection: a
// middlebox that rewrites a hello's version list, cipher list, or limits
// desynchronises the two transcripts and the handshake fails on both
// sides — the negotiation can never be silently steered.
func transcriptTag(auth *dhkx.Authenticator, label string, clientHello, serverHello []byte) [wire.TagSize]byte {
	msg := make([]byte, 0, len(label)+len(clientHello)+len(serverHello))
	msg = append(msg, label...)
	msg = append(msg, clientHello...)
	msg = append(msg, serverHello...)
	return auth.Sign(msg)
}

// handshakeResult is everything a completed handshake produced: the
// identity and secret, the negotiated protocol, the key schedule (secure
// sessions only), and the dialer-order transcript hash the seal keys are
// bound to.
type handshakeResult struct {
	id         wire.ConnID
	secret     []byte
	ks         *security.KeySchedule
	neg        wire.Negotiated
	transcript []byte
	peer       *wire.TransportHello
}

// deriveSessionSecret turns the raw DH secret into the session secret and
// the per-purpose key schedule. Insecure mode has no DH secret to expand:
// its secret derives from the transport id alone — keeping the tagging
// machinery uniform without the key-exchange cost, exactly like insecure
// connection keys — and it gets no schedule.
func deriveSessionSecret(dhSecret []byte, id wire.ConnID, insecure bool) ([]byte, *security.KeySchedule) {
	if insecure {
		return dhkx.DeriveSessionKey(id[:], id[:]), nil
	}
	ks := security.NewKeySchedule(dhSecret, id[:])
	return ks.SessionKey(), ks
}

// clientHandshake runs the dialer's half of the transport handshake on a
// fresh connection whose deadline the caller has already set.
func clientHandshake(conn net.Conn, cfg *Config, trace []byte) (*handshakeResult, error) {
	id, err := wire.NewConnID()
	if err != nil {
		return nil, err
	}
	var kp *dhkx.KeyPair
	hello := &wire.TransportHello{ID: id, Insecure: cfg.Insecure, Host: cfg.HostName, Addr: cfg.AdvertiseAddr, Trace: trace}
	cfg.helloNegotiation(hello)
	if !cfg.Insecure {
		if kp, err = dhkx.GenerateKeyPair(); err != nil {
			return nil, err
		}
		hello.Public = kp.PublicBytes()
	}
	sent, err := wire.WriteTransportHello(conn, hello)
	if err != nil {
		return nil, err
	}
	peer, recvd, err := wire.ReadTransportHello(conn)
	if err != nil {
		return nil, err
	}
	if peer.Insecure != cfg.Insecure {
		return nil, fmt.Errorf("%w: security mode mismatch with %s", ErrHandshake, peer.Host)
	}
	if peer.ID != id {
		return nil, fmt.Errorf("%w: peer echoed wrong transport id", ErrHandshake)
	}
	neg, err := wire.Negotiate(hello, peer)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	var dhSecret []byte
	if !cfg.Insecure {
		if dhSecret, err = kp.SharedSecret(peer.Public); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
		}
	}
	secret, ks := deriveSessionSecret(dhSecret, id, cfg.Insecure)
	auth, err := dhkx.NewAuthenticator(secret)
	if err != nil {
		return nil, err
	}
	var srvTag [wire.TagSize]byte
	if _, err = io.ReadFull(conn, srvTag[:]); err != nil {
		return nil, err
	}
	want := transcriptTag(auth, serverTagLabel, sent, recvd)
	if !hmacEqual(want, srvTag) {
		return nil, fmt.Errorf("%w: bad server transcript tag", ErrHandshake)
	}
	cliTag := transcriptTag(auth, clientTagLabel, sent, recvd)
	if _, err = conn.Write(cliTag[:]); err != nil {
		return nil, err
	}
	return &handshakeResult{
		id: id, secret: secret, ks: ks, neg: neg,
		transcript: security.TranscriptHash(sent, recvd),
		peer:       peer,
	}, nil
}

// serverHandshake runs the acceptor's half of the handshake, given the
// already-read client hello.
func serverHandshake(conn net.Conn, cfg *Config, peer *wire.TransportHello, recvd []byte) (*handshakeResult, error) {
	if peer.Insecure != cfg.Insecure {
		return nil, fmt.Errorf("%w: security mode mismatch with %s", ErrHandshake, peer.Host)
	}
	id := peer.ID
	var kp *dhkx.KeyPair
	var err error
	hello := &wire.TransportHello{ID: id, Insecure: cfg.Insecure, Host: cfg.HostName, Addr: cfg.AdvertiseAddr}
	cfg.helloNegotiation(hello)
	if !cfg.Insecure {
		if kp, err = dhkx.GenerateKeyPair(); err != nil {
			return nil, err
		}
		hello.Public = kp.PublicBytes()
	}
	sent, err := wire.WriteTransportHello(conn, hello)
	if err != nil {
		return nil, err
	}
	neg, err := wire.Negotiate(hello, peer)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	var dhSecret []byte
	if !cfg.Insecure {
		if dhSecret, err = kp.SharedSecret(peer.Public); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
		}
	}
	secret, ks := deriveSessionSecret(dhSecret, id, cfg.Insecure)
	auth, err := dhkx.NewAuthenticator(secret)
	if err != nil {
		return nil, err
	}
	srvTag := transcriptTag(auth, serverTagLabel, recvd, sent)
	if _, err = conn.Write(srvTag[:]); err != nil {
		return nil, err
	}
	var cliTag [wire.TagSize]byte
	if _, err = io.ReadFull(conn, cliTag[:]); err != nil {
		return nil, err
	}
	want := transcriptTag(auth, clientTagLabel, recvd, sent)
	if !hmacEqual(want, cliTag) {
		return nil, fmt.Errorf("%w: bad client transcript tag", ErrHandshake)
	}
	return &handshakeResult{
		id: id, secret: secret, ks: ks, neg: neg,
		transcript: security.TranscriptHash(recvd, sent),
		peer:       peer,
	}, nil
}

// hmacEqual compares two already-HMAC'd tags; Verify recomputes, so plain
// constant-time comparison of the fixed-size arrays is what we need here.
func hmacEqual(a, b [wire.TagSize]byte) bool {
	var diff byte
	for i := range a {
		diff |= a[i] ^ b[i]
	}
	return diff == 0
}

// writeFrame sends one mux frame. A data frame first waits for room in the
// flusher's queue: soft backpressure, and the only wait a write makes.
// Control frames — grants, opens, resets, FINs, probes — are a few bytes each
// and never wait behind bulk data: a window grant is what releases the peer's
// bulk, and it is sent from pump passes and the read loop, which must not
// block.
func (t *Transport) writeFrame(typ uint8, stream uint64, payload []byte) error {
	if typ == wire.MuxData {
		t.flusher.waitSpace()
	}
	return t.sendFrame(typ, stream, payload)
}

// sendFrame is writeFrame without the wait for queue room: it queues the
// frame as a record of its own in the flusher and returns. A failed
// transport says so here; a write error is the flusher's to report, by
// failing the transport.
func (t *Transport) sendFrame(typ uint8, stream uint64, payload []byte) error {
	if len(payload) > t.maxPlain {
		return fmt.Errorf("transport: mux payload %d exceeds limit", len(payload))
	}
	t.mu.Lock()
	closed, closeErr := t.closed, t.closeErr
	t.mu.Unlock()
	if closed {
		return closeErr
	}
	t.flusher.enqueue(typ, stream, payload)
	return nil
}

// OpenStream opens a logical stream carrying hdr as its open payload, at no
// round trip: the stream is usable once the MuxOpen is written, and bytes
// written behind it land in the stream the peer's read loop registers on
// that MuxOpen. A refusal arrives as a MuxReset and fails the stream like any
// later reset.
func (t *Transport) OpenStream(hdr *wire.HandoffHeader) (*Stream, error) {
	var buf bytes.Buffer
	if err := hdr.Write(&buf); err != nil {
		return nil, err
	}
	t.mu.Lock()
	sid := t.nextID
	t.nextID += 2
	s := newStream(t, sid)
	t.streams[sid] = s
	t.mu.Unlock()

	// A transport that has failed says so here.
	if err := t.writeFrame(wire.MuxOpen, sid, buf.Bytes()); err != nil {
		t.removeStream(sid)
		return nil, err
	}
	return s, nil
}

// serveOpen authorizes and delivers one inbound stream, or resets it with
// the reason; it runs outside the read loop so a slow rendezvous cannot stall
// the whole transport.
func (t *Transport) serveOpen(s *Stream, hdr *wire.HandoffHeader) {
	cfg := &t.mgr.cfg
	if cfg.Authorize != nil {
		if err := cfg.Authorize(hdr); err != nil {
			t.log.Warnf("transport: refused %s stream for %s: %v", hdr.Purpose, hdr.ConnID, err)
			s.reset("handoff denied")
			return
		}
	}
	if cfg.Deliver == nil || !cfg.Deliver(hdr, s) {
		t.log.Warnf("transport: no endpoint claimed %s stream for %s", hdr.Purpose, hdr.ConnID)
		s.reset("unclaimed")
	}
}

// readPayloadInto fills p from the buffered reader's backlog first, then
// straight from the underlying connection: headers are decoded through the
// small bufio buffer, but the bulk of a large data payload skips the
// intermediate copy entirely.
func readPayloadInto(br *bufio.Reader, conn io.Reader, p []byte) error {
	n := 0
	for n < len(p) && br.Buffered() > 0 {
		m, err := br.Read(p[n:])
		n += m
		if err != nil {
			return err
		}
	}
	if n < len(p) {
		if _, err := io.ReadFull(conn, p[n:]); err != nil {
			return err
		}
	}
	return nil
}

// readFailed fails the transport with the error its read loop ended on: a
// protocol violation (desynchronised mux framing, malformed open) as
// itself, an I/O error as the loss of the session.
func (t *Transport) readFailed(err error) {
	if !errors.Is(err, wire.ErrBadTransport) {
		err = fmt.Errorf("%w: %w", ErrTransportLost, err)
	}
	t.fail(err)
}

// readLoop demultiplexes inbound records for the transport's life, one
// way for every frame on both session kinds: the header's length is bounded
// by the negotiated MaxPayload before a buffer is drawn, the record is read
// into a pooled buffer of that length, opened in place on encrypted
// sessions, and the buffer passes to handleFrame. Every inbound record
// refreshes the keepalive clock.
//
// On encrypted sessions opener holds the peer's seal key (nil on cleartext
// sessions), and every record is sealed under its own header as associated
// data (AppendMuxHeader is deterministic, so the rebuilt bytes equal what
// the peer sealed over), in wire order under one nonce counter. An
// authentication failure, including a bare cleartext frame, fails the
// transport.
func (t *Transport) readLoop(opener *security.Opener) {
	conn := t.conn
	// The buffer is deliberately small: it batches the 13-byte mux headers
	// and small control frames, while readPayloadInto pulls the bulk of
	// each data payload straight from the socket into its pooled segment —
	// a large buffer here would soak up payload bytes on header reads and
	// force an extra copy for almost every data byte.
	br := bufio.NewReaderSize(conn, 4<<10)
	var aadBuf [wire.MuxHeaderSize]byte
	// A sealed record's length includes its tag, and the negotiated
	// MaxPayload bounds it as it bounds a cleartext frame.
	wireMax := int(t.neg.Limits.MaxPayload)
	for {
		h, err := wire.ReadMuxHeader(br)
		if err != nil {
			t.readFailed(err)
			return
		}
		// The bound holds before a buffer is drawn.
		if int(h.Length) > wireMax || opener != nil && h.Length < security.RecordOverhead {
			t.fail(fmt.Errorf("%w: mux payload %d outside the negotiated limit %d", wire.ErrBadTransport, h.Length, wireMax))
			return
		}
		t.lastRead.Store(time.Now().UnixNano())
		buf := wire.GetPayload(int(h.Length))
		if err := readPayloadInto(br, conn, buf); err != nil {
			wire.PutPayload(buf)
			t.readFailed(err)
			return
		}
		if opener != nil {
			aad := wire.AppendMuxHeader(aadBuf[:0], h.Type, h.Stream, int(h.Length))
			pt, err := opener.Open(buf[:0], buf, aad)
			if err != nil {
				wire.PutPayload(buf)
				t.fail(err)
				return
			}
			buf = pt
		}
		if !t.handleFrame(h, buf) {
			return
		}
	}
}

// handleFrame applies one inbound frame to the transport. Its payload is a
// pooled buffer whose ownership transfers here: a data payload moves to the
// receiving stream (or back to the pool when it is empty or the stream is
// gone), and any other payload goes back to the pool once applied. It
// returns false when the read loop must exit; the transport has already
// been failed or closed by then.
func (t *Transport) handleFrame(h wire.MuxHeader, payload []byte) bool {
	t.mu.Lock()
	s := t.streams[h.Stream]
	t.mu.Unlock()
	if h.Type == wire.MuxData {
		if s != nil && len(payload) > 0 {
			s.pushData(payload) // ownership moves to the stream
		} else {
			wire.PutPayload(payload) // empty, or the stream is already gone
		}
		return true
	}
	defer wire.PutPayload(payload)
	switch h.Type {
	case wire.MuxOpen:
		hdr, err := wire.ReadHandoffHeader(bytes.NewReader(payload))
		if err != nil {
			t.fail(fmt.Errorf("%w: bad stream open: %w", wire.ErrBadTransport, err))
			return false
		}
		if s != nil {
			t.fail(fmt.Errorf("%w: stream %d reopened", wire.ErrBadTransport, h.Stream))
			return false
		}
		// Register before the next frame is read: the opener writes behind
		// its MuxOpen without waiting, and that data belongs in the buffer.
		ns := newStream(t, h.Stream)
		t.mu.Lock()
		closed := t.closed
		if !closed {
			t.streams[h.Stream] = ns
		}
		t.mu.Unlock()
		if closed {
			return false
		}
		go t.serveOpen(ns, hdr)
	case wire.MuxReset:
		if s != nil {
			t.removeStream(h.Stream)
			s.remoteReset(string(payload))
		}
	case wire.MuxFin:
		if s != nil {
			s.finReceived()
		}
	case wire.MuxWindow:
		if s != nil && len(payload) == 4 {
			s.addSendWindow(int(uint32(payload[0])<<24 | uint32(payload[1])<<16 | uint32(payload[2])<<8 | uint32(payload[3])))
		}
	case wire.MuxPing:
		t.writeFrame(wire.MuxPong, 0, nil)
	case wire.MuxPong:
		// A pong resolves our oldest outstanding ping into an RTT sample.
		t.notePongReceived()
	}
	return true
}

// fail tears the transport down, once: the shared connection closes, and
// every stream fails with an ErrTransportLost-wrapped error, which the
// NapletSocket layer above heals through its SUSPENDED/resume recovery
// path over a fresh transport.
func (t *Transport) fail(cause error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	defer close(t.down)
	t.closed = true
	t.closeErr = cause
	streams := make([]*Stream, 0, len(t.streams))
	for _, s := range t.streams {
		streams = append(streams, s)
	}
	t.streams = map[uint64]*Stream{}
	close(t.done)
	t.mu.Unlock()
	t.conn.Close()
	t.flusher.close()
	// A lost session gets its black box on record, and its tombstone
	// replaces it in the manager before any stream hears of the loss. A
	// writer can hear of it sooner, from a write that finds the transport
	// closed: the manager's lookups skip a transport that is not alive, so
	// a caller that reopens on that news never finds the dead one.
	if errors.Is(cause, ErrTransportLost) {
		t.rec.record("lost", "%v", cause)
		t.rec.dump(t.log, cause)
	}
	if t.mgr != nil {
		t.mgr.remove(t, cause)
	}
	for _, s := range streams {
		s.transportFailed(cause)
	}
}

func (t *Transport) removeStream(id uint64) {
	t.mu.Lock()
	delete(t.streams, id)
	t.mu.Unlock()
}

// streamCount returns the number of live streams.
func (t *Transport) streamCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.streams)
}
