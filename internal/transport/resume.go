package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"

	"naplet/internal/dhkx"
	"naplet/internal/security"
	"naplet/internal/wire"
)

// Transport session resumption.
//
// The shared transport multiplexes every logical stream between two hosts
// over one TCP connection, which makes a single network failure maximally
// destructive: one RST kills every NapletSocket between the pair. This
// file heals that. When the connection breaks (read/write error, or the
// keepalive declares it half-open), the transport enters a bounded
// "reconnecting" state instead of failing:
//
//   - Both sides count reliable mux frames (open/reset/data/fin/window)
//     as they are received, and retain sent reliable frames in a
//     log until the peer's cumulative count — piggybacked on keepalive
//     ping/pong and periodic acks — confirms delivery.
//   - The original dialer redials the peer with jittered capped backoff
//     and sends a resume hello: the prior transport id, its receive count,
//     and an HMAC resume token under the prior transport secret. The
//     acceptor verifies the token, answers with its own receive count, and
//     both sides prove possession of the secret with the same transcript
//     tags a fresh handshake uses.
//   - Each side then replays its retained frames above the peer's count,
//     in the original wire order. Because both sides count deterministically,
//     replay is exact: no frame is lost, none is duplicated, and stream
//     users see a stall followed by recovery — never an error.
//   - Only the dialer redials (the acceptor may sit behind asymmetric
//     reachability); the acceptor just arms a resume-window timer and
//     waits. If the window expires on either side, the transport fails for
//     good with ErrTransportLost and the NapletSocket layer's own
//     SUSPENDED/resume recovery takes over.
//
// resumeTagLabel domain-separates the resume token HMAC. The redial
// backoff bounds live in Config (RedialBackoffBase / RedialBackoffCap)
// and scale up with the measured path RTT — see redialBackoffBounds.
const resumeTagLabel = "naplet-transport-resume-v1"

// errResumeDenied reports the peer's final refusal of a resume attempt.
var errResumeDenied = errors.New("transport: resume denied by peer")

// newResumeAuth builds the authenticator that signs and verifies resume
// tokens and handshake transcript tags under the transport secret.
func newResumeAuth(secret []byte) (*dhkx.Authenticator, error) {
	return dhkx.NewAuthenticator(secret)
}

// resumeTag authenticates a resume hello: possession of the prior
// session, bound to the transport id and the claimed receive count. On
// secure sessions it signs under the dedicated resume-tag key, so a leaked
// resume token can never double as a transcript-tag or record key.
func (t *Transport) resumeTag(recvSeq uint64) [wire.TagSize]byte {
	msg := make([]byte, 0, len(resumeTagLabel)+len(t.id)+8)
	msg = append(msg, resumeTagLabel...)
	msg = append(msg, t.id[:]...)
	msg = binary.BigEndian.AppendUint64(msg, recvSeq)
	return t.resumeAuth.Sign(msg)
}

// connBroken reports that one connection generation died. If resumption is
// enabled the transport goes into the reconnecting state — streams stall
// against their credit windows while the dialer redials (or the acceptor
// waits) — otherwise it fails immediately. Stale reports about already-
// replaced connections are ignored.
func (t *Transport) connBroken(conn net.Conn, cause error) {
	t.mu.Lock()
	if t.closed || t.conn != conn {
		t.mu.Unlock()
		conn.Close()
		return
	}
	if t.mgr == nil || t.mgr.cfg.ResumeWindow < 0 {
		t.mu.Unlock()
		t.fail(cause)
		return
	}
	t.conn = nil
	t.reconnecting = true
	t.attempts = 0
	gen := t.gen
	readerDone := t.readerDone
	// The window stretches with the measured RTT: a slow path needs more
	// round trips' worth of redial attempts for a fair chance.
	window := t.adaptiveResumeWindow()
	deadline := time.Now().Add(window)
	t.resumeDeadline = deadline
	t.mu.Unlock()
	conn.Close()
	// Records sealed for the dead generation are dropped, not flushed:
	// their plaintext is still in the reliable send log, and the resume
	// replay reseals it under the next generation's keys.
	if t.flusher != nil {
		t.flusher.purge(conn)
	}
	t.rec.record("broken", "cause=%v window=%v", cause, window)
	t.logf("transport %s: connection broken (%v); holding %d streams for resume within %v",
		t.peerHost, cause, t.streamCount(), window)
	if t.dialer {
		go t.reconnectLoop(gen, readerDone, deadline, cause)
	} else {
		go t.resumeWait(gen, deadline, cause)
	}
}

// resumeWait is the acceptor's side of an outage: it cannot redial (the
// dialer may be behind a NAT or a one-way partition), so it just bounds
// how long it will hold stream state for the dialer's resume.
func (t *Transport) resumeWait(gen int, deadline time.Time, cause error) {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-t.mgr.done:
		return
	}
	t.mu.Lock()
	expired := !t.closed && t.reconnecting && t.gen == gen
	t.mu.Unlock()
	if expired {
		t.fail(fmt.Errorf("%w: resume window expired: %v", ErrTransportLost, cause))
	}
}

// reconnectLoop is the dialer's side of an outage: redial with jittered
// capped backoff and resume the session, until the resume window expires
// or the peer denies the resume.
func (t *Transport) reconnectLoop(gen int, readerDone chan struct{}, deadline time.Time, cause error) {
	// Wait for the broken generation's read loop to exit so the receive
	// count we advertise is final — a frame half-processed after the
	// snapshot would otherwise be replayed on top of itself.
	if readerDone != nil {
		<-readerDone
	}
	backoff, maxBackoff := t.redialBackoffBounds()
	for attempt := 1; ; attempt++ {
		t.mu.Lock()
		if t.closed || !t.reconnecting || t.gen != gen {
			t.mu.Unlock()
			return
		}
		t.attempts = attempt
		t.mu.Unlock()
		if t.mgr.isClosed() {
			t.fail(ErrClosed)
			return
		}
		if time.Now().After(deadline) {
			t.fail(fmt.Errorf("%w: resume window expired after %d attempts: %v", ErrTransportLost, attempt-1, cause))
			return
		}
		t.rec.record("redial", "attempt=%d addr=%s", attempt, t.dialAddr)
		conn, relayed, err := t.mgr.dialTransport(t.dialAddr, t.mgr.cfg.HandshakeTimeout)
		if err == nil {
			var peer *wire.TransportHello
			var transcript []byte
			peer, transcript, err = t.clientResume(conn)
			if err == nil {
				if !t.adopt(conn, peer.RecvSeq, gen, transcript) {
					conn.Close()
					return
				}
				t.setRelayed(relayed)
				return
			}
			conn.Close()
			if errors.Is(err, errResumeDenied) {
				t.rec.record("resume-denied", "attempt=%d", attempt)
				t.fail(fmt.Errorf("%w: %v (after %v)", ErrTransportLost, err, cause))
				return
			}
		}
		t.logf("transport %s: resume attempt %d failed: %v", t.peerHost, attempt, err)
		delay := backoff + time.Duration(rand.Int63n(int64(backoff)))
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
		timer := time.NewTimer(delay)
		select {
		case <-timer.C:
		case <-t.mgr.done:
			timer.Stop()
			return
		}
	}
}

// setRelayed records whether the current connection runs through the
// rendezvous relay (debug surface only).
func (t *Transport) setRelayed(v bool) {
	t.mu.Lock()
	t.relayed = v
	t.mu.Unlock()
}

// clientResume runs the dialer's half of the resume handshake on a fresh
// connection: resume hello out, peer hello back, then the same transcript
// tag exchange as a fresh handshake, all under the prior session's keys.
// It also returns the dialer-order transcript hash of the resume
// handshake, which adopt binds the new generation's seal keys to.
func (t *Transport) clientResume(conn net.Conn) (*wire.TransportHello, []byte, error) {
	conn.SetDeadline(time.Now().Add(t.mgr.cfg.HandshakeTimeout))
	recvSeq := t.recvSeq.Load()
	tag := t.resumeTag(recvSeq)
	hello := &wire.TransportHello{
		ID:        t.id,
		Insecure:  t.mgr.cfg.Insecure,
		Resume:    true,
		Host:      t.mgr.cfg.HostName,
		Addr:      t.mgr.cfg.AdvertiseAddr,
		RecvSeq:   recvSeq,
		ResumeTag: tag[:],
	}
	sent, err := wire.WriteTransportHello(conn, hello)
	if err != nil {
		return nil, nil, err
	}
	peer, recvd, err := wire.ReadTransportHello(conn)
	if err != nil {
		return nil, nil, err
	}
	if peer.ResumeDenied {
		return nil, nil, errResumeDenied
	}
	if !peer.Resume || peer.ID != t.id {
		return nil, nil, fmt.Errorf("%w: peer answered resume with a non-resume hello", ErrHandshake)
	}
	var srvTag [wire.TagSize]byte
	if _, err := io.ReadFull(conn, srvTag[:]); err != nil {
		return nil, nil, err
	}
	if want := transcriptTag(t.auth, serverTagLabel, sent, recvd); !hmacEqual(want, srvTag) {
		return nil, nil, fmt.Errorf("%w: bad server transcript tag on resume", ErrHandshake)
	}
	cliTag := transcriptTag(t.auth, clientTagLabel, sent, recvd)
	if _, err := conn.Write(cliTag[:]); err != nil {
		return nil, nil, err
	}
	conn.SetDeadline(time.Time{})
	return peer, security.TranscriptHash(sent, recvd), nil
}

// handleResume routes an inbound resume hello to the transport it names,
// or sends the (necessarily unauthenticated) final denial when the session
// is unknown — already failed, resumed elsewhere, or never ours.
func (m *Manager) handleResume(conn net.Conn, peer *wire.TransportHello, recvd []byte, relayed bool) error {
	t := m.byID(peer.ID)
	if t == nil {
		wire.WriteTransportHello(conn, &wire.TransportHello{ID: peer.ID, ResumeDenied: true})
		conn.Close()
		return fmt.Errorf("transport: resume for unknown transport %s", peer.ID)
	}
	if err := t.serverResume(conn, peer, recvd); err != nil {
		return err
	}
	t.setRelayed(relayed)
	return nil
}

// serverResume runs the acceptor's half of the resume handshake and, on
// success, adopts the new connection in place of the broken one.
func (t *Transport) serverResume(conn net.Conn, peer *wire.TransportHello, recvd []byte) error {
	t.resumeMu.Lock()
	defer t.resumeMu.Unlock()
	want := t.resumeTag(peer.RecvSeq)
	var got [wire.TagSize]byte
	if len(peer.ResumeTag) != len(got) || !hmacEqual(want, *(*[wire.TagSize]byte)(peer.ResumeTag)) {
		wire.WriteTransportHello(conn, &wire.TransportHello{ID: peer.ID, ResumeDenied: true})
		conn.Close()
		return fmt.Errorf("transport: bad resume token for %s", peer.ID)
	}
	// Break the old connection if we had not yet noticed it die (the
	// dialer usually notices first), and wait for its read loop to exit so
	// our receive count is final.
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		return ErrClosed
	}
	old := t.conn
	t.conn = nil
	t.reconnecting = true
	gen := t.gen
	readerDone := t.readerDone
	t.mu.Unlock()
	if old != nil {
		old.Close()
	}
	if readerDone != nil {
		<-readerDone
	}
	recvSeq := t.recvSeq.Load()
	hello := &wire.TransportHello{
		ID:       t.id,
		Insecure: t.mgr.cfg.Insecure,
		Resume:   true,
		Host:     t.mgr.cfg.HostName,
		Addr:     t.mgr.cfg.AdvertiseAddr,
		RecvSeq:  recvSeq,
	}
	sent, err := wire.WriteTransportHello(conn, hello)
	if err != nil {
		conn.Close()
		return err
	}
	srvTag := transcriptTag(t.auth, serverTagLabel, recvd, sent)
	if _, err := conn.Write(srvTag[:]); err != nil {
		conn.Close()
		return err
	}
	var cliTag [wire.TagSize]byte
	if _, err := io.ReadFull(conn, cliTag[:]); err != nil {
		conn.Close()
		return err
	}
	if want := transcriptTag(t.auth, clientTagLabel, recvd, sent); !hmacEqual(want, cliTag) {
		conn.Close()
		return fmt.Errorf("%w: bad client transcript tag on resume", ErrHandshake)
	}
	conn.SetDeadline(time.Time{})
	if !t.adopt(conn, peer.RecvSeq, gen, security.TranscriptHash(recvd, sent)) {
		conn.Close()
		return ErrClosed
	}
	return nil
}

// adopt installs a resumed connection as the transport's new generation:
// the send log is trimmed to what the peer confirmed and the remainder
// replayed in original wire order, the read loop and keepalive restart,
// and every stalled stream simply carries on. The read loop starts before
// the replay so two peers replaying large logs at each other cannot
// deadlock on full kernel buffers.
//
// Encrypted sessions rekey here: fresh per-direction seal keys are
// expanded from the key schedule bound to the resume handshake's
// transcript, and both directions' nonce counters restart from zero.
// Replayed frames are resealed from their retained plaintext under the
// new keys — a record captured from (or still queued for) the dead
// generation can never authenticate on the new one.
func (t *Transport) adopt(conn net.Conn, peerRecvSeq uint64, gen int, transcript []byte) bool {
	if w := t.mgr.cfg.WrapData; w != nil {
		conn = w(conn)
	}
	t.wmu.Lock()
	t.mu.Lock()
	if t.closed || !t.reconnecting || t.gen != gen {
		t.mu.Unlock()
		t.wmu.Unlock()
		return false
	}
	var opener *security.Opener
	if t.flusher != nil {
		dialKey, acceptKey := t.ks.SealKeys(transcript)
		sealKey, openKey := dialKey, acceptKey
		if !t.dialer {
			sealKey, openKey = acceptKey, dialKey
		}
		sealer, serr := security.NewSealer(sealKey)
		op, oerr := security.NewOpener(openKey)
		if serr != nil || oerr != nil {
			t.mu.Unlock()
			t.wmu.Unlock()
			return false
		}
		t.sealer = sealer
		opener = op
	}
	t.gen++
	t.conn = conn
	t.reconnecting = false
	attempts := t.attempts
	t.attempts = 0
	t.resumeDeadline = time.Time{}
	t.readerDone = make(chan struct{})
	readerDone := t.readerDone
	nstreams := len(t.streams)
	t.mu.Unlock()
	t.lastRead.Store(time.Now().UnixNano())
	// A ping outstanding across the outage would measure outage length,
	// not path RTT; drop it. The smoothed estimate itself survives — the
	// path is the same even though the connection is new.
	t.pingSentAt.Store(0)
	go t.readLoop(conn, readerDone, opener)
	go t.keepalive(conn)
	t.trimSendLogLocked(peerRecvSeq)
	replayed := len(t.sendLog)
	var werr error
	var fatal bool
	for _, e := range t.sendLog {
		if werr, fatal = t.sendLocked(conn, e.typ, e.stream, e.payload); werr != nil {
			break
		}
	}
	t.wmu.Unlock()
	t.mgr.reconnects.Inc()
	t.mgr.resumedStreams.Add(uint64(nstreams))
	t.rec.record("resumed", "attempts=%d streams=%d replayed=%d", attempts, nstreams, replayed)
	if werr != nil {
		if fatal {
			t.fail(werr)
			return true
		}
		t.logf("transport %s: resumed connection broke during replay: %v", t.peerHost, werr)
		t.connBroken(conn, werr)
		return true
	}
	t.logf("transport %s: session resumed after %d attempts (%d streams, %d frames replayed)",
		t.peerHost, attempts, nstreams, replayed)
	return true
}

// keepalive probes one connection generation for liveness: every tick it
// sends a mux ping (whose payload doubles as an ack, and whose pong
// doubles as an RTT sample), and after the adaptive keepalive timeout of
// inbound silence it declares the connection half-open and breaks it into
// the resume path. The timeout is re-evaluated each tick against the live
// RTT estimate — the configured KeepaliveTimeout is a floor, stretched on
// slow paths so a pong that is merely in flight never reads as a dead
// peer. It exits when its generation is replaced or the manager closes.
// The probe interval is the negotiated one — the min of both sides'
// advertisements, so it is never slower than the local config asked for.
func (t *Transport) keepalive(conn net.Conn) {
	interval := t.kaInterval
	if interval <= 0 {
		return
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
		case <-t.mgr.done:
			return
		}
		t.mu.Lock()
		cur, closed := t.conn, t.closed
		t.mu.Unlock()
		if closed || cur != conn {
			return
		}
		timeout := t.adaptiveKeepaliveTimeout(interval)
		idle := time.Since(time.Unix(0, t.lastRead.Load()))
		if idle >= timeout {
			t.mgr.keepaliveTimeouts.Inc()
			t.rec.record("keepalive-timeout", "idle=%v srtt=%v", idle.Round(time.Millisecond), t.SRTT().Round(time.Millisecond))
			t.connBroken(conn, fmt.Errorf("transport: keepalive timeout after %v of silence", idle.Round(time.Millisecond)))
			return
		}
		// One ping outstanding at a time, so each pong resolves the stamp
		// of the ping it answers and the RTT samples stay honest — pinging
		// every tick would pair pongs of old pings with fresh stamps and
		// collapse the estimate toward zero on slow paths. A stamp older
		// than half the declare-dead timeout means the ping or its pong was
		// dropped (both are unreliable frames): restamp and probe again.
		stamp := t.pingSentAt.Load()
		switch {
		case stamp == 0:
			t.notePingSent()
			t.writeFrame(wire.MuxPing, 0, seqPayload(t.recvSeq.Load()))
		case time.Since(time.Unix(0, stamp)) >= timeout/2:
			t.pingSentAt.Store(time.Now().UnixNano())
			t.writeFrame(wire.MuxPing, 0, seqPayload(t.recvSeq.Load()))
		}
	}
}
