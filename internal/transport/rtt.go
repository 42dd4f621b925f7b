package transport

import (
	"fmt"
	"time"

	"naplet/internal/wire"
)

// Liveness and RTT-adaptive tuning. The keepalive is the transport's one
// dead-peer detector, and its timeout was originally calibrated for the
// paper's single-LAN testbed; on a 300 ms WAN path the same constant
// declares healthy connections half-open. Instead of asking operators to
// retune per deployment, each transport measures its own path: the
// keepalive ping/pong exchange doubles as an RTT probe, smoothed with the
// RFC 6298 estimator (srtt, rttvar), and seeded from the handshake duration
// so an estimate exists before the first pong. The keepalive timeout then
// scales from the estimate, with the configured value acting as a floor: a
// LAN deployment behaves exactly as configured, a WAN deployment stretches.

// rttSampleCap bounds one sample: a pong measured across a dropped ping
// would otherwise poison the estimate with minutes.
const rttSampleCap = 30 * time.Second

// seedRTT installs the first RTT estimate (from the handshake duration)
// unless samples already exist.
func (t *Transport) seedRTT(sample time.Duration) {
	if sample <= 0 || t.srttNanos.Load() != 0 {
		return
	}
	t.srttNanos.Store(int64(sample))
	t.rttvarNanos.Store(int64(sample / 2))
}

// observeRTT folds one ping→pong sample into the smoothed estimate
// (RFC 6298: alpha 1/8, beta 1/4). Only the read loop calls it, so the
// read-modify-write needs no lock; the atomics publish to other readers.
func (t *Transport) observeRTT(sample time.Duration) {
	if sample <= 0 {
		return
	}
	if sample > rttSampleCap {
		sample = rttSampleCap
	}
	srtt := time.Duration(t.srttNanos.Load())
	if srtt == 0 {
		t.srttNanos.Store(int64(sample))
		t.rttvarNanos.Store(int64(sample / 2))
		return
	}
	rttvar := time.Duration(t.rttvarNanos.Load())
	diff := srtt - sample
	if diff < 0 {
		diff = -diff
	}
	rttvar += (diff - rttvar) / 4
	srtt += (sample - srtt) / 8
	t.srttNanos.Store(int64(srtt))
	t.rttvarNanos.Store(int64(rttvar))
}

// SRTT returns the smoothed round-trip estimate (zero before any sample).
func (t *Transport) SRTT() time.Duration {
	return time.Duration(t.srttNanos.Load())
}

// rttBound returns srtt + 4·rttvar — the RFC 6298 RTO shape: the time by
// which a healthy peer's response has almost certainly arrived. Zero when
// no estimate exists.
func (t *Transport) rttBound() time.Duration {
	srtt := t.srttNanos.Load()
	if srtt == 0 {
		return 0
	}
	return time.Duration(srtt + 4*t.rttvarNanos.Load())
}

// notePingSent stamps an outbound keepalive ping for RTT measurement. The
// stamp is only taken when no ping is outstanding, so a pong always
// measures against the oldest unanswered ping — an ambiguous sample can
// only overestimate, which errs toward longer (safer) timeouts.
func (t *Transport) notePingSent() {
	t.pingSentAt.CompareAndSwap(0, time.Now().UnixNano())
}

// notePongReceived resolves an outstanding ping into an RTT sample.
func (t *Transport) notePongReceived() {
	sent := t.pingSentAt.Swap(0)
	if sent == 0 {
		return
	}
	t.observeRTT(time.Since(time.Unix(0, sent)))
}

// adaptiveKeepaliveTimeout is the inbound-silence threshold past which
// the connection is declared half-open: the configured timeout, floored
// by interval + 4·(srtt + 4·rttvar) so that on a slow path a pong that is
// merely in flight — plus jitter — is never mistaken for a dead peer.
func (t *Transport) adaptiveKeepaliveTimeout(interval time.Duration) time.Duration {
	timeout := t.mgr.cfg.KeepaliveTimeout
	if b := t.rttBound(); b > 0 {
		if adaptive := interval + 4*b; adaptive > timeout {
			return adaptive
		}
	}
	return timeout
}

// keepalive probes the transport for liveness: every tick it sends a mux
// ping (whose pong doubles as an RTT sample), and after the adaptive
// keepalive timeout of inbound silence it declares the connection
// half-open and fails the transport. The timeout is re-evaluated each tick
// against the live RTT estimate — the configured KeepaliveTimeout is a
// floor, stretched on slow paths so a pong that is merely in flight never
// reads as a dead peer. It exits when the transport fails. The probe
// interval is the negotiated one — the min of both sides' advertisements,
// so it is never slower than the local config asked for.
func (t *Transport) keepalive() {
	interval := t.kaInterval
	if interval <= 0 {
		return
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
		case <-t.done:
			return
		}
		timeout := t.adaptiveKeepaliveTimeout(interval)
		idle := time.Since(time.Unix(0, t.lastRead.Load()))
		if idle >= timeout {
			t.mgr.keepaliveTimeouts.Inc()
			t.rec.record("keepalive-timeout", "idle=%v srtt=%v", idle.Round(time.Millisecond), t.SRTT().Round(time.Millisecond))
			t.fail(fmt.Errorf("%w: keepalive timeout after %v of silence", ErrTransportLost, idle.Round(time.Millisecond)))
			return
		}
		// One ping outstanding at a time, so each pong resolves the stamp
		// of the ping it answers and the RTT samples stay honest — pinging
		// every tick would pair pongs of old pings with fresh stamps and
		// collapse the estimate toward zero on slow paths. A stamp older
		// than half the declare-dead timeout means the ping or its pong was
		// dropped (both are droppable): restamp and probe again.
		stamp := t.pingSentAt.Load()
		switch {
		case stamp == 0:
			t.notePingSent()
			t.writeFrame(wire.MuxPing, 0, nil)
		case time.Since(time.Unix(0, stamp)) >= timeout/2:
			t.pingSentAt.Store(time.Now().UnixNano())
			t.writeFrame(wire.MuxPing, 0, nil)
		}
	}
}

// MaxRTT returns the largest smoothed RTT estimate across live
// transports — the worst-path figure behind the transport.rtt_ms gauge.
func (m *Manager) MaxRTT() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	var max time.Duration
	for t := range m.all {
		if rtt := t.SRTT(); rtt > max {
			max = rtt
		}
	}
	return max
}
