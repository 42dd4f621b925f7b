package transport

import (
	"time"
)

// RTT-adaptive tuning. Every timeout in this layer was originally
// calibrated for the paper's single-LAN testbed; on a 300 ms WAN path the
// same constants declare healthy connections half-open and redial faster
// than a round trip can complete. Instead of asking operators to retune
// per deployment, each transport measures its own path: the keepalive
// ping/pong exchange doubles as an RTT probe, smoothed with the RFC 6298
// estimator (srtt, rttvar), and seeded from the handshake duration so an
// estimate exists before the first pong. Everything latency-sensitive —
// keepalive timeout, redial backoff, resume window, ack cadence — then
// scales from the estimate, with the configured values acting as floors:
// a LAN deployment behaves exactly as before, a WAN deployment stretches.

// rttSampleCap bounds one sample: a pong measured across a dropped ping
// or a resume gap would otherwise poison the estimate with minutes.
const rttSampleCap = 30 * time.Second

// seedRTT installs the first RTT estimate (from the handshake duration)
// unless samples already exist. The estimate survives resumes: the path
// is the same even when the connection is new.
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
// this generation is declared half-open: the configured timeout, floored
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

// redialBackoffBounds returns the resume redial backoff's initial delay
// and cap: the configured values, scaled up when the measured path is
// slower than they assume — redialing a 300 ms-away peer every 25 ms
// only burns the resume window on connections that cannot complete.
func (t *Transport) redialBackoffBounds() (base, max time.Duration) {
	base, max = t.mgr.cfg.RedialBackoffBase, t.mgr.cfg.RedialBackoffCap
	if b := t.rttBound(); b > 0 {
		if b > base {
			base = b
		}
		if c := 8 * b; c > max {
			max = c
		}
	}
	if base > max {
		base = max
	}
	return base, max
}

// adaptiveResumeWindow is how long a broken transport holds stream state
// for resumption: the configured window, stretched (up to 4×) when the
// path is slow enough that the configured window covers too few redial
// round trips to be a fair chance.
func (t *Transport) adaptiveResumeWindow() time.Duration {
	window := t.mgr.cfg.ResumeWindow
	if b := t.rttBound(); b > 0 {
		if a := 32 * b; a > window {
			window = a
			if cap := 4 * t.mgr.cfg.ResumeWindow; window > cap {
				window = cap
			}
		}
	}
	return window
}

// adaptiveAckCadence is the reliable-frame ack cadence for the current
// path: the negotiated cadence, tightened on slow paths. The send log
// holds every unacked reliable frame; at WAN RTTs the bandwidth-delay
// product inflates how much sits unacked under a fixed cadence, so acking
// more often bounds both the replay log and the replay burst a resume
// must push through the recovering connection.
func (t *Transport) adaptiveAckCadence() (frames, bytes int) {
	frames, bytes = t.ackFrames, t.ackBytes
	switch srtt := t.SRTT(); {
	case srtt >= 200*time.Millisecond:
		frames, bytes = frames/4, bytes/4
	case srtt >= 50*time.Millisecond:
		frames, bytes = frames/2, bytes/2
	}
	if frames < 8 {
		frames = 8
	}
	if min := 32 << 10; bytes < min {
		bytes = min
	}
	return frames, bytes
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
