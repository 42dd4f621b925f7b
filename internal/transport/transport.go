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
// The transport is also self-healing (see resume.go): when the shared
// connection dies or goes half-open, the dialer reconnects with jittered
// capped backoff and resumes the session in place — reliable mux frames
// are retained until acked and replayed across the gap, so every live
// stream stalls and then recovers without surfacing an error. Only when
// the bounded resume window expires do streams fail, with the typed
// ErrTransportLost, into the NapletSocket layer's own recovery path.
//
// Security (Section 3.3 of the paper, amortised): the transport handshake
// runs the paper's unauthenticated ephemeral DH once per host pair instead
// of once per connection, and both sides prove possession of the derived
// transport secret with HMAC tags over the hello transcript. Per-connection
// session keys are then derived from the transport secret bound to the
// connection id, so compromise of one connection's key reveals nothing
// about its siblings; the handoff tokens and control-message HMACs above
// run under those keys. The trust root is the paper's (unauthenticated DH,
// hardened by the Guard policy layer); only how often the modular
// exponentiation is paid differs.
package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"naplet/internal/dhkx"
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
	// ErrTransportLost reports that the shared transport session died for
	// good: the connection broke and could not be resumed within the
	// resume window (or resumption is disabled). Stream errors wrap it, so
	// the layer above can tell retryable transport loss apart from a
	// stream-level reset with errors.Is.
	ErrTransportLost = errors.New("transport: session lost")
)

// resumeLogBudget bounds the unacked reliable-frame bytes retained for
// resume replay while a transport is down; exceeding it during an outage
// fails the transport rather than buffering without bound.
const resumeLogBudget = 64 << 20

// muxLogEntry is one unacked reliable frame retained for resume replay.
// The payload is a pooled copy owned by the log until the frame is acked.
type muxLogEntry struct {
	seq     uint64
	typ     uint8
	stream  uint64
	payload []byte
}

// Transport is one end of the shared connection between a pair of hosts.
// Both sides hold the same transport id and secret; the dialer opens
// odd-numbered streams, the acceptor even-numbered ones.
type Transport struct {
	mgr    *Manager
	id     wire.ConnID
	secret []byte
	// auth signs and verifies handshake transcript tags under the session
	// key.
	auth *dhkx.Authenticator
	// resumeAuth signs and verifies resume tokens: under a dedicated
	// HKDF-derived resume-tag key on secure sessions, under the session
	// key (it is auth) on insecure ones, which have no key schedule.
	resumeAuth *dhkx.Authenticator
	// neg is the protocol agreement of the handshake (version, cipher
	// suite, limits).
	neg wire.Negotiated
	// ks derives per-purpose keys for secure sessions (nil on insecure
	// ones); rekey-on-resume expands fresh seal keys from it bound to the
	// resume handshake transcript.
	ks *security.KeySchedule
	// flusher drains sealed records to the connection outside wmu (nil on
	// cleartext sessions): sealing happens under wmu so nonce order is
	// wire order, while the flusher's writev of already-sealed records
	// overlaps the next frame's crypto.
	flusher *recordFlusher
	// sealer encrypts outbound records; guarded by wmu (rekey swaps it
	// under wmu in adopt). Nil on cleartext sessions.
	sealer *security.Sealer
	// Negotiated limits, fixed at registration: maxPlain caps one frame's
	// plaintext payload (sealed frames still fit the wire-level MaxPayload
	// once the record overhead is added back), streamWindow is the
	// per-stream credit window and streamWindowAt the consumed-byte
	// threshold past which a stream's reader grants the peer more credit,
	// ackFrames/ackBytes the reliable-frame ack cadence, kaInterval the
	// keepalive probe cadence.
	maxPlain int
	// containerPlain caps one MuxSealed container's plaintext (the
	// negotiated MaxPayload minus the AEAD tag, so the sealed container
	// fits the negotiated wire-level MaxPayload exactly); zero on
	// cleartext sessions. The flusher packs consecutive frames up to this
	// budget so one GCM pass and one writev cover a burst of small frames.
	containerPlain int
	streamWindow   int
	streamWindowAt int
	ackFrames      int
	ackBytes       int
	kaInterval     time.Duration
	dialer         bool
	// peerHost and peerAddr are what the peer advertised in its hello;
	// peerAddr keys the manager's reuse table so either side can open
	// streams over the one connection.
	peerHost string
	peerAddr string
	// addrKey is the manager reuse-table key this transport registered
	// under ("" when none); dialAddr is the address the dialer side
	// originally dialed, reused for session resumption.
	addrKey  string
	dialAddr string

	// wmu serializes frame writes to the shared connection and guards the
	// reliable-frame send state (sendSeq, sendLog): the log order is the
	// wire order, which resume replay depends on. The header+payload pair
	// of one frame goes out with a single writev so concurrent streams
	// interleave only on frame boundaries.
	wmu          sync.Mutex
	sendSeq      uint64
	sendLog      []muxLogEntry
	sendLogBytes int

	// resumeMu serializes inbound resume handshakes.
	resumeMu sync.Mutex

	mu sync.Mutex
	// conn is the current shared connection; nil while reconnecting.
	conn net.Conn
	// gen counts successfully installed connections; a resume attempt is
	// valid only for the generation it observed breaking.
	gen int
	// readerDone is closed when the current generation's read loop exits;
	// resume waits on it so recvSeq is final before being advertised.
	readerDone   chan struct{}
	reconnecting bool
	// attempts counts reconnect attempts in the current outage (the n of
	// the debug surface's "reconnecting(n)").
	attempts int
	// resumeDeadline is when the current outage's resume window expires;
	// zero while connected. Surfaced on Info for /connz.
	resumeDeadline time.Time
	streams        map[uint64]*Stream
	nextID         uint64
	closed         bool
	closeErr       error
	opened         time.Time

	// recvSeq counts reliable mux frames fully received; lastRead is the
	// unix-nano time of the last inbound frame (keepalive freshness).
	recvSeq  atomic.Uint64
	lastRead atomic.Int64

	// Smoothed path RTT (RFC 6298 estimator, see rtt.go): srttNanos /
	// rttvarNanos hold the estimate, pingSentAt the unix-nano stamp of the
	// oldest unanswered keepalive ping (0 when none outstanding). Seeded
	// from the handshake duration, refined by every ping/pong round.
	srttNanos   atomic.Int64
	rttvarNanos atomic.Int64
	pingSentAt  atomic.Int64

	// relayed records whether the current connection runs through a
	// rendezvous relay rather than a direct dial; guarded by mu.
	relayed bool

	// rec is the transport's flight recorder: a bounded ring of lifecycle
	// events dumped into the log when the session dies with
	// ErrTransportLost.
	rec *flightRecorder
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

// handshakeResult is everything a completed fresh-session handshake
// produced: the identity and secret, the negotiated protocol, the key
// schedule (secure sessions only), and the dialer-order
// transcript hash the initial seal keys are bound to.
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

// serverHandshake runs the acceptor's half of a fresh-session handshake,
// given the already-read client hello (HandleConn reads it first to tell
// fresh sessions from resumes).
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

// writeMux writes one mux frame to conn; the header and payload reach the
// kernel in a single writev, so no copy joins them.
func writeMux(conn net.Conn, typ uint8, stream uint64, payload []byte) error {
	hdr := wire.AppendMuxHeader(make([]byte, 0, wire.MuxHeaderSize), typ, stream, len(payload))
	if len(payload) == 0 {
		_, err := conn.Write(hdr)
		return err
	}
	bufs := net.Buffers{hdr, payload}
	_, err := bufs.WriteTo(conn)
	return err
}

// seqPayload encodes a reliable-frame count for ping/pong/ack payloads.
func seqPayload(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// writeFrame sends one mux frame. Reliable frames (open/reset/data/fin/
// window) are first copied into the unacked send log — if the shared
// connection is down they simply wait there and are replayed when the
// session resumes, so callers see success for anything the resume contract
// covers. Unreliable frames (ping/pong/ack) are droppable by definition:
// they use a try-lock so the read loop can never deadlock against a resume
// replay holding the write lock, and they vanish while disconnected.
func (t *Transport) writeFrame(typ uint8, stream uint64, payload []byte) error {
	if len(payload) > t.maxPlain {
		return fmt.Errorf("transport: mux payload %d exceeds limit", len(payload))
	}
	reliable := wire.ReliableMuxFrame(typ)
	if reliable && t.flusher != nil {
		// Soft backpressure on the sealed-record queue, taken before wmu
		// so a waiting writer can never deadlock the flusher (which needs
		// no lock we hold while waiting).
		t.flusher.waitSpace()
	}
	if reliable {
		t.wmu.Lock()
	} else if !t.wmu.TryLock() {
		return nil
	}
	err, failCause := t.writeFrameLocked(typ, stream, payload, reliable)
	t.wmu.Unlock()
	if failCause != nil {
		t.fail(failCause)
	}
	return err
}

// writeFrameLocked does writeFrame's work under wmu. It returns the error
// for the caller plus an optional transport-fatal cause the caller must
// pass to fail after releasing wmu.
func (t *Transport) writeFrameLocked(typ uint8, stream uint64, payload []byte, reliable bool) (err, failCause error) {
	if reliable {
		var cp []byte
		if len(payload) > 0 {
			cp = wire.GetPayload(len(payload))
			copy(cp, payload)
		}
		t.sendSeq++
		t.sendLog = append(t.sendLog, muxLogEntry{seq: t.sendSeq, typ: typ, stream: stream, payload: cp})
		t.sendLogBytes += len(payload)
	}
	t.mu.Lock()
	conn, closed, closeErr := t.conn, t.closed, t.closeErr
	t.mu.Unlock()
	if closed {
		if closeErr == nil {
			closeErr = ErrClosed
		}
		return closeErr, nil
	}
	if conn == nil {
		// Between connections. Reliable frames wait in the log for the
		// resume replay — unless the outage has already outgrown the
		// replay budget, at which point the session is unrecoverable.
		if !reliable {
			return nil, nil
		}
		if t.sendLogBytes > resumeLogBudget {
			cause := fmt.Errorf("%w: resume log budget exceeded (%d bytes unacked)", ErrTransportLost, t.sendLogBytes)
			return cause, cause
		}
		return nil, nil
	}
	if werr, fatal := t.sendLocked(conn, typ, stream, payload); werr != nil {
		if fatal {
			return werr, werr
		}
		t.connBroken(conn, werr)
		if !reliable {
			return werr, nil
		}
	}
	return nil, nil
}

// sendLocked transmits one frame on conn; the caller holds wmu. Cleartext
// sessions write straight to the kernel. Encrypted sessions pack the
// frame into the flusher's pending container — tagged with the current
// generation's sealer, which resume swaps under this same lock — and the
// flusher goroutine seals containers in queue order (so the AEAD nonce
// order is exactly the wire order) and writevs multi-container batches.
// Both the crypto and the flush syscall run outside wmu, overlapping the
// next frame's production; seal failures (nonce exhaustion) fail the
// transport from the flusher. A fatal=true error must fail the whole
// transport; others are connection I/O errors that feed the resume path.
func (t *Transport) sendLocked(conn net.Conn, typ uint8, stream uint64, payload []byte) (err error, fatal bool) {
	if t.flusher == nil {
		return writeMux(conn, typ, stream, payload), false
	}
	t.flusher.enqueue(conn, t.sealer, typ, stream, payload)
	return nil, false
}

// trimSendLogLocked releases reliable frames the peer confirmed receiving.
// Caller holds wmu.
func (t *Transport) trimSendLogLocked(acked uint64) {
	i := 0
	for i < len(t.sendLog) && t.sendLog[i].seq <= acked {
		t.sendLogBytes -= len(t.sendLog[i].payload)
		if t.sendLog[i].payload != nil {
			wire.PutPayload(t.sendLog[i].payload)
		}
		i++
	}
	if i == 0 {
		return
	}
	kept := copy(t.sendLog, t.sendLog[i:])
	for j := kept; j < len(t.sendLog); j++ {
		t.sendLog[j] = muxLogEntry{}
	}
	t.sendLog = t.sendLog[:kept]
}

// handleAck trims the send log up to the peer's cumulative receive count.
func (t *Transport) handleAck(acked uint64) {
	t.wmu.Lock()
	t.trimSendLogLocked(acked)
	t.wmu.Unlock()
}

// OpenStream opens a logical stream carrying hdr as its open payload, at no
// round trip: the stream is usable once the MuxOpen is written (or logged for
// the resume replay), and bytes written behind it land in the stream the
// peer's read loop registers on that MuxOpen. A refusal arrives as a MuxReset
// and fails the stream like any later reset.
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
			t.logf("transport %s: refused %s stream for %s: %v", t.peerHost, hdr.Purpose, hdr.ConnID, err)
			s.reset("handoff denied")
			return
		}
	}
	if cfg.Deliver == nil || !cfg.Deliver(hdr, s) {
		t.logf("transport %s: no endpoint claimed %s stream for %s", t.peerHost, hdr.Purpose, hdr.ConnID)
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

// muxReadState carries one connection generation's receive-side
// bookkeeping across frames: the cumulative reliable-frame count the
// resume contract advertises, plus the ack cadence counters and
// thresholds. It is shared by the cleartext wire path and the sealed
// container demux, so both count exactly the same logical frames.
type muxReadState struct {
	recvSeq        uint64
	framesSinceAck int
	bytesSinceAck  int
	ackFrames      int
	ackBytes       int
}

// readFailed classifies the end of one connection generation: a protocol
// violation (desynchronised mux framing, malformed open) is unrecoverable
// and fails the whole transport, while a plain I/O error means the
// connection died and the session tries to resume.
func (t *Transport) readFailed(conn net.Conn, err error) {
	if errors.Is(err, wire.ErrBadTransport) {
		t.fail(err)
		return
	}
	t.connBroken(conn, err)
}

// readLoop demultiplexes inbound frames for one connection generation. Data
// payloads land in pooled buffers whose ownership passes to the receiving
// stream (and from there, segment by segment, back to the pool as the
// stream's reader drains them); control payloads — open headers, reset
// reasons, window grants — are small and reuse one scratch buffer.
//
// The loop also carries the session-resumption bookkeeping: every reliable
// frame bumps the transport's cumulative receive count (advertised back to
// the peer as ack cadence demands, and in the resume hello after a
// failure), and every inbound frame refreshes the keepalive clock.
//
// On encrypted sessions opener holds the peer's per-generation seal key
// (nil on cleartext sessions): every frame on the wire is a MuxSealed
// container — one AEAD record, opened in place in the buffer the
// ciphertext arrived in, whose plaintext is a sequence of complete mux
// frames that amortise the GCM pass. An authentication failure (or a bare
// cleartext frame) is a protocol violation, not an I/O blip — it fails the
// transport rather than feeding the resume path, since a tampered stream
// can never resynchronise.
func (t *Transport) readLoop(conn net.Conn, done chan struct{}, opener *security.Opener) {
	defer close(done)
	// The buffer is deliberately small: it batches the 13-byte mux headers
	// and small control frames, while readPayloadInto pulls the bulk of
	// each data payload straight from the socket into its pooled segment —
	// a large buffer here would soak up payload bytes on header reads and
	// force an extra copy for almost every data byte.
	br := bufio.NewReaderSize(conn, 4<<10)
	rl := muxReadState{recvSeq: t.recvSeq.Load()}
	rl.ackFrames, rl.ackBytes = t.adaptiveAckCadence()
	if opener != nil {
		t.readSealed(conn, br, opener, &rl)
		return
	}
	var scratch []byte
	wireMax := t.maxPlain
	for {
		h, err := wire.ReadMuxHeader(br)
		if err != nil {
			t.readFailed(conn, err)
			return
		}
		if h.Type == wire.MuxSealed {
			t.fail(fmt.Errorf("%w: sealed container on cleartext session", wire.ErrBadTransport))
			return
		}
		if int(h.Length) > wireMax {
			t.fail(fmt.Errorf("%w: mux payload %d exceeds negotiated limit %d", wire.ErrBadTransport, h.Length, wireMax))
			return
		}
		t.lastRead.Store(time.Now().UnixNano())
		if h.Type == wire.MuxData {
			var buf []byte
			if h.Length > 0 {
				buf = wire.GetPayload(int(h.Length))
				if err := readPayloadInto(br, conn, buf); err != nil {
					wire.PutPayload(buf)
					t.readFailed(conn, err)
					return
				}
			}
			if !t.handleFrame(h, buf, true, &rl) {
				return
			}
			continue
		}
		var payload []byte
		if h.Length > 0 {
			if cap(scratch) < int(h.Length) {
				scratch = make([]byte, h.Length)
			}
			payload = scratch[:h.Length]
			if _, err := io.ReadFull(br, payload); err != nil {
				t.readFailed(conn, err)
				return
			}
		}
		if !t.handleFrame(h, payload, false, &rl) {
			return
		}
	}
}

// readSealed is the encrypted read loop: every wire frame must be a
// MuxSealed container whose associated data is its own header
// (AppendMuxHeader is deterministic, so the rebuilt bytes equal what the
// peer sealed over). Each container is opened in place with one GCM pass,
// then the inner frames are demultiplexed through the same handler the
// cleartext loop uses — so reliable-frame counting, ack cadence, and the
// resume contract see exactly the inner frames, never the container.
func (t *Transport) readSealed(conn net.Conn, br *bufio.Reader, opener *security.Opener, rl *muxReadState) {
	var aadBuf [wire.MuxHeaderSize]byte
	wireMax := t.containerPlain + security.RecordOverhead
	maxInner := t.maxPlain
	for {
		h, err := wire.ReadMuxHeader(br)
		if err != nil {
			t.readFailed(conn, err)
			return
		}
		if h.Type != wire.MuxSealed {
			t.fail(fmt.Errorf("%w: cleartext frame type %d on encrypted session", wire.ErrBadTransport, h.Type))
			return
		}
		if int(h.Length) > wireMax || h.Length < security.RecordOverhead {
			t.fail(fmt.Errorf("%w: sealed container of %d bytes (cap %d)", wire.ErrBadTransport, h.Length, wireMax))
			return
		}
		t.lastRead.Store(time.Now().UnixNano())
		buf := wire.GetPayload(int(h.Length))
		if err := readPayloadInto(br, conn, buf); err != nil {
			wire.PutPayload(buf)
			t.readFailed(conn, err)
			return
		}
		aad := wire.AppendMuxHeader(aadBuf[:0], h.Type, h.Stream, int(h.Length))
		pt, oerr := opener.Open(buf[:0], buf, aad)
		if oerr != nil {
			wire.PutPayload(buf)
			t.fail(oerr)
			return
		}
		ok := true
		for off := 0; ok && off < len(pt); {
			ih, derr := wire.DecodeMuxHeader(pt[off:])
			if derr != nil {
				wire.PutPayload(buf)
				t.fail(derr)
				return
			}
			off += wire.MuxHeaderSize
			end := off + int(ih.Length)
			if int(ih.Length) > maxInner || end > len(pt) {
				wire.PutPayload(buf)
				t.fail(fmt.Errorf("%w: inner mux frame of %d bytes overruns its container", wire.ErrBadTransport, ih.Length))
				return
			}
			ok = t.handleFrame(ih, pt[off:end], false, rl)
			off = end
		}
		wire.PutPayload(buf)
		if !ok {
			return
		}
	}
}

// handleFrame applies one demultiplexed mux frame — straight off a
// cleartext wire or from inside an opened container — to the transport:
// reliable-frame sequence counting, ack cadence, and stream dispatch.
// payload is only valid for the duration of the call unless owned is true,
// in which case it is a pooled buffer whose ownership transfers here (only
// data frames arrive owned: the buffer moves to the receiving stream, or
// back to the pool). It returns false when the read loop must exit; the
// transport has already been failed or closed by then.
func (t *Transport) handleFrame(h wire.MuxHeader, payload []byte, owned bool, rl *muxReadState) bool {
	t.mu.Lock()
	s := t.streams[h.Stream]
	t.mu.Unlock()
	if h.Type == wire.MuxData {
		rl.recvSeq++
		t.recvSeq.Store(rl.recvSeq)
		rl.framesSinceAck++
		rl.bytesSinceAck += len(payload)
		buf := payload
		if !owned && len(payload) > 0 {
			// Container plaintext is recycled when the demux finishes, so
			// data segments are copied out into their own pooled buffer
			// before ownership moves to the stream.
			buf = wire.GetPayload(len(payload))
			copy(buf, payload)
		}
		if len(buf) > 0 {
			if s != nil {
				s.pushData(buf) // ownership moves to the stream
			} else {
				wire.PutPayload(buf) // stream already gone; drop the bytes
			}
		}
		if rl.framesSinceAck >= rl.ackFrames || rl.bytesSinceAck >= rl.ackBytes {
			rl.framesSinceAck, rl.bytesSinceAck = 0, 0
			t.writeFrame(wire.MuxAck, 0, seqPayload(rl.recvSeq))
		}
		return true
	}
	if wire.ReliableMuxFrame(h.Type) {
		rl.recvSeq++
		t.recvSeq.Store(rl.recvSeq)
		if rl.framesSinceAck++; rl.framesSinceAck >= rl.ackFrames {
			rl.framesSinceAck, rl.bytesSinceAck = 0, 0
			t.writeFrame(wire.MuxAck, 0, seqPayload(rl.recvSeq))
		}
	}
	switch h.Type {
	case wire.MuxOpen:
		hdr, err := wire.ReadHandoffHeader(bytes.NewReader(payload))
		if err != nil {
			t.fail(fmt.Errorf("transport: bad stream open: %w", err))
			return false
		}
		if s != nil {
			t.fail(fmt.Errorf("transport: stream %d reopened", h.Stream))
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
		if len(payload) == 8 {
			t.handleAck(binary.BigEndian.Uint64(payload))
		}
		t.writeFrame(wire.MuxPong, 0, seqPayload(rl.recvSeq))
	case wire.MuxPong:
		if len(payload) == 8 {
			t.handleAck(binary.BigEndian.Uint64(payload))
		}
		// A pong resolves our oldest outstanding ping into an RTT sample,
		// and the refined estimate retunes this generation's ack cadence.
		t.notePongReceived()
		rl.ackFrames, rl.ackBytes = t.adaptiveAckCadence()
	case wire.MuxAck:
		if len(payload) == 8 {
			t.handleAck(binary.BigEndian.Uint64(payload))
		}
	}
	return true
}

// fail tears the transport down for good: the shared connection closes,
// every stream fails with an ErrTransportLost-wrapped error (which the
// NapletSocket layer above heals through its SUSPENDED/resume recovery
// path), and the retained replay log is released.
func (t *Transport) fail(cause error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	t.closeErr = cause
	t.reconnecting = false
	conn := t.conn
	t.conn = nil
	streams := make([]*Stream, 0, len(t.streams))
	for _, s := range t.streams {
		streams = append(streams, s)
	}
	t.streams = map[uint64]*Stream{}
	t.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	if t.flusher != nil {
		t.flusher.close()
	}
	for _, s := range streams {
		s.transportFailed(cause)
	}
	// Release the replay log after the connection is closed: any replay
	// holding wmu fails its write promptly and lets go.
	t.wmu.Lock()
	for i := range t.sendLog {
		if t.sendLog[i].payload != nil {
			wire.PutPayload(t.sendLog[i].payload)
		}
		t.sendLog[i] = muxLogEntry{}
	}
	t.sendLog = nil
	t.sendLogBytes = 0
	t.wmu.Unlock()
	// A session lost for good gets its black box on record before the
	// tombstone replaces it.
	if errors.Is(cause, ErrTransportLost) {
		t.rec.record("lost", "%v", cause)
		t.rec.dump(t.logf, fmt.Sprintf("%s (peer %s)", t.id, t.peerHost), cause)
	}
	if t.mgr != nil {
		t.mgr.remove(t, cause)
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

func (t *Transport) logf(format string, args ...any) {
	if t.mgr != nil && t.mgr.cfg.Logf != nil {
		t.mgr.cfg.Logf(format, args...)
	}
}
