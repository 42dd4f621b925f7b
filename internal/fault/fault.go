// Package fault is the heartbeat failure detector of the fault-tolerance
// subsystem: a phi-accrual-style detector riding the RUDP control channel.
//
// For every watched peer the detector keeps a sliding window of
// inter-evidence gaps — evidence being either a successful probe or any
// piggybacked traffic reported via Observe — and computes the suspicion
// level phi = -log10(P(gap > elapsed)) under an exponential model of the
// gap distribution. Unlike a fixed timeout, phi scales with the observed
// heartbeat cadence: a peer that has answered every 20ms becomes suspect
// far sooner than one probed over a congested path.
//
// Probes back off exponentially (with jitter, capped) while a peer is
// unresponsive, so a dead peer is not hammered; any fresh evidence resets
// the probe cadence. The detector emits three events per peer transition:
// Suspect when phi crosses the threshold, Confirm after enough consecutive
// probe failures, and Recover when evidence returns. The socket controller
// consumes Confirm to fail established connections over to the resume
// path, and Recover to clear suspicion.
package fault

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"time"

	"naplet/internal/obs"
)

// State is a watched peer's health as currently assessed.
type State int

const (
	// Alive means recent evidence of liveness exists.
	Alive State = iota
	// Suspect means phi has crossed the suspicion threshold.
	Suspect
	// Down means failure was confirmed by consecutive probe failures.
	Down
)

// String names the state.
func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Down:
		return "down"
	default:
		return "unknown"
	}
}

// EventKind discriminates detector events.
type EventKind int

const (
	// EventSuspect fires when a peer's phi crosses the threshold.
	EventSuspect EventKind = iota + 1
	// EventConfirm fires when consecutive probe failures confirm a
	// suspected peer as down.
	EventConfirm
	// EventRecover fires when evidence returns from a suspected or
	// confirmed-down peer.
	EventRecover
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventSuspect:
		return "suspect"
	case EventConfirm:
		return "confirm"
	case EventRecover:
		return "recover"
	default:
		return "unknown"
	}
}

// Event is one peer state transition.
type Event struct {
	// Peer is the watched peer's control address.
	Peer string
	// Kind is the transition.
	Kind EventKind
	// Phi is the suspicion level at the transition.
	Phi float64
	// Failures is the consecutive probe-failure count at the transition.
	Failures int
}

// Probe checks one peer's liveness, typically with a heartbeat request
// over the control channel. A nil error is evidence of life.
type Probe func(ctx context.Context, peer string) error

// Config tunes a detector. Interval and Probe are required; the rest
// default sensibly.
type Config struct {
	// Interval is the nominal gap between heartbeat probes of an alive
	// peer. Piggybacked evidence younger than Interval suppresses the
	// probe entirely.
	Interval time.Duration
	// Threshold is the phi level at which a peer becomes suspect.
	// Default 4 (evidence gap ≈ 9x the observed mean).
	Threshold float64
	// ConfirmFailures is how many consecutive probe failures confirm a
	// suspect peer as down. Default 5.
	ConfirmFailures int
	// MaxBackoff caps the probe backoff while a peer is unresponsive.
	// Default 8x Interval.
	MaxBackoff time.Duration
	// RTTHint, when non-nil, supplies the current worst-path round-trip
	// estimate (e.g. transport.Manager.MaxRTT). Each probe's timeout is
	// floored at 4x the hint, so a heartbeat that merely takes a WAN round
	// trip is never scored as a failure: without this, any path whose RTT
	// exceeds Interval fails every probe and confirms a perfectly healthy
	// peer as down.
	RTTHint func() time.Duration
	// Probe checks a peer's liveness. Required.
	Probe Probe
	// OnEvent, when non-nil, receives every state transition. Called from
	// detector goroutines; implementations must not block for long.
	OnEvent func(Event)
	// Metrics receives fault.* instruments when non-nil.
	Metrics *obs.Registry
	// Logger receives transition logs when non-nil.
	Logger *obs.Logger

	// now and rand are test seams.
	now  func() time.Time
	rand func() float64
}

const (
	// probeJitter is the fraction by which each probe gap is randomly
	// perturbed, decorrelating probe storms.
	probeJitter = 0.2
	// gapWindow is how many inter-evidence gaps feed the phi estimate.
	gapWindow = 64
	// minProbeTimeout floors one probe attempt's deadline.
	minProbeTimeout = 10 * time.Millisecond
)

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Threshold <= 0 {
		c.Threshold = 4
	}
	if c.ConfirmFailures <= 0 {
		c.ConfirmFailures = 5
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 8 * c.Interval
	}
	if c.now == nil {
		c.now = time.Now
	}
	if c.rand == nil {
		c.rand = rand.Float64
	}
	return c
}

// watch is the per-peer detector state.
type watch struct {
	peer string
	// lastEvidence is when liveness was last evidenced.
	lastEvidence time.Time
	// gaps is the sliding window of inter-evidence gaps, seconds.
	gaps []float64
	// gapSum is the running sum of gaps.
	gapSum float64
	// state is the assessed health.
	state State
	// failures counts consecutive probe failures.
	failures int
	// kick wakes the probe loop early (fresh evidence, unwatch).
	kick chan struct{}
	// stopped ends the probe loop.
	stopped bool
}

// Detector watches a set of peers. It is safe for concurrent use.
type Detector struct {
	cfg Config

	mu      sync.Mutex
	watches map[string]*watch
	closed  bool

	done chan struct{}
	wg   sync.WaitGroup

	ins struct {
		probes        *obs.Counter
		probeFailures *obs.Counter
		suspects      *obs.Counter
		confirms      *obs.Counter
		recoveries    *obs.Counter
	}
}

// NewDetector starts an empty detector.
func NewDetector(cfg Config) *Detector {
	d := &Detector{
		cfg:     cfg.withDefaults(),
		watches: make(map[string]*watch),
		done:    make(chan struct{}),
	}
	met := cfg.Metrics
	d.ins.probes = met.Counter("fault.probes")
	d.ins.probeFailures = met.Counter("fault.probe_failures")
	d.ins.suspects = met.Counter("fault.suspects")
	d.ins.confirms = met.Counter("fault.confirms")
	d.ins.recoveries = met.Counter("fault.recoveries")
	met.Func("fault.watched", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return float64(len(d.watches))
	})
	met.Func("fault.suspected", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		n := 0
		for _, w := range d.watches {
			if w.state != Alive {
				n++
			}
		}
		return float64(n)
	})
	return d
}

// Watch starts probing peer. Watching an already-watched peer is a no-op.
func (d *Detector) Watch(peer string) {
	if d == nil || peer == "" {
		return
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	if _, ok := d.watches[peer]; ok {
		d.mu.Unlock()
		return
	}
	w := &watch{
		peer:         peer,
		lastEvidence: d.cfg.now(),
		kick:         make(chan struct{}, 1),
	}
	d.watches[peer] = w
	d.wg.Add(1) // under mu: Close sets closed under it before it Waits
	d.mu.Unlock()
	go d.probeLoop(w)
}

// Unwatch stops probing peer and forgets its history.
func (d *Detector) Unwatch(peer string) {
	if d == nil {
		return
	}
	d.mu.Lock()
	w, ok := d.watches[peer]
	if ok {
		delete(d.watches, peer)
		w.stopped = true
		select {
		case w.kick <- struct{}{}:
		default:
		}
	}
	d.mu.Unlock()
}

// Watched returns the currently watched peers.
func (d *Detector) Watched() []string {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.watches))
	for p := range d.watches {
		out = append(out, p)
	}
	return out
}

// Observe reports piggybacked evidence of life from peer — any valid
// control-channel traffic counts, suppressing the next probe.
func (d *Detector) Observe(peer string) {
	if d == nil {
		return
	}
	d.mu.Lock()
	w := d.watches[peer]
	if w == nil {
		d.mu.Unlock()
		return
	}
	ev := d.evidenceLocked(w)
	d.mu.Unlock()
	d.emit(ev)
}

// evidenceLocked folds fresh evidence of life into w and returns a
// Recover event to emit, if the peer was suspect or down.
func (d *Detector) evidenceLocked(w *watch) *Event {
	now := d.cfg.now()
	gap := now.Sub(w.lastEvidence).Seconds()
	if gap > 0 {
		w.gaps = append(w.gaps, gap)
		w.gapSum += gap
		if len(w.gaps) > gapWindow {
			w.gapSum -= w.gaps[0]
			w.gaps = w.gaps[1:]
		}
	}
	w.lastEvidence = now
	w.failures = 0
	if w.state == Alive {
		return nil
	}
	w.state = Alive
	d.ins.recoveries.Inc()
	return &Event{Peer: w.peer, Kind: EventRecover}
}

// phiLocked computes the current suspicion level for w: under an
// exponential model of the evidence gaps, phi = elapsed/(mean·ln 10),
// the -log10 of the probability that a live peer stays silent this long.
func (d *Detector) phiLocked(w *watch, now time.Time) float64 {
	mean := d.cfg.Interval.Seconds()
	if len(w.gaps) >= 3 {
		if m := w.gapSum / float64(len(w.gaps)); m > mean {
			mean = m
		}
	}
	elapsed := now.Sub(w.lastEvidence).Seconds()
	if elapsed <= 0 || mean <= 0 {
		return 0
	}
	return elapsed / (mean * math.Ln10)
}

// Phi returns peer's current suspicion level (0 when not watched).
func (d *Detector) Phi(peer string) float64 {
	if d == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	w := d.watches[peer]
	if w == nil {
		return 0
	}
	return d.phiLocked(w, d.cfg.now())
}

// State returns peer's assessed health (Alive when not watched).
func (d *Detector) State(peer string) State {
	if d == nil {
		return Alive
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	w := d.watches[peer]
	if w == nil {
		return Alive
	}
	return w.state
}

// probeTimeout returns the per-probe deadline: one probe interval, floored
// at minProbeTimeout and at 4x the current RTT hint so slow-but-healthy WAN
// paths get their probe responses awaited rather than scored as failures.
func (d *Detector) probeTimeout() time.Duration {
	timeout := max(d.cfg.Interval, minProbeTimeout)
	if d.cfg.RTTHint != nil {
		if rtt := d.cfg.RTTHint(); rtt > 0 && 4*rtt > timeout {
			timeout = 4 * rtt
		}
	}
	return timeout
}

// probeLoop drives one peer's heartbeat probes until unwatch or close.
func (d *Detector) probeLoop(w *watch) {
	defer d.wg.Done()
	interval := d.cfg.Interval
	timer := time.NewTimer(d.jittered(interval))
	defer timer.Stop()
	for {
		select {
		case <-d.done:
			return
		case <-w.kick:
			d.mu.Lock()
			stopped := w.stopped
			d.mu.Unlock()
			if stopped {
				return
			}
			// Fresh evidence arrived: resume the nominal cadence.
			interval = d.cfg.Interval
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(d.jittered(interval))
			continue
		case <-timer.C:
		}

		d.mu.Lock()
		if w.stopped {
			d.mu.Unlock()
			return
		}
		fresh := d.cfg.now().Sub(w.lastEvidence) < d.cfg.Interval
		d.mu.Unlock()

		if fresh {
			// Piggybacked traffic already evidenced liveness; skip the probe.
			interval = d.cfg.Interval
			timer.Reset(d.jittered(interval))
			continue
		}

		ctx, cancel := context.WithTimeout(context.Background(), d.probeTimeout())
		err := d.cfg.Probe(ctx, w.peer)
		cancel()
		d.ins.probes.Inc()

		var ev *Event
		d.mu.Lock()
		if w.stopped {
			d.mu.Unlock()
			return
		}
		now := d.cfg.now()
		if err == nil {
			ev = d.evidenceLocked(w)
			interval = d.cfg.Interval
		} else {
			d.ins.probeFailures.Inc()
			w.failures++
			phi := d.phiLocked(w, now)
			switch {
			case w.state == Alive && phi >= d.cfg.Threshold:
				w.state = Suspect
				d.ins.suspects.Inc()
				ev = &Event{Peer: w.peer, Kind: EventSuspect, Phi: phi, Failures: w.failures}
			case w.state != Down && w.failures >= d.cfg.ConfirmFailures:
				w.state = Down
				d.ins.confirms.Inc()
				ev = &Event{Peer: w.peer, Kind: EventConfirm, Phi: phi, Failures: w.failures}
			}
			// Unresponsive peer: back off exponentially, capped.
			interval *= 2
			if interval > d.cfg.MaxBackoff {
				interval = d.cfg.MaxBackoff
			}
		}
		d.mu.Unlock()
		d.emit(ev)
		timer.Reset(d.jittered(interval))
	}
}

// jittered perturbs d0 by ±probeJitter/2, never below a quarter interval.
func (d *Detector) jittered(d0 time.Duration) time.Duration {
	f := 1 + probeJitter*(d.cfg.rand()-0.5)
	out := time.Duration(float64(d0) * f)
	if min := d.cfg.Interval / 4; out < min {
		out = min
	}
	return out
}

func (d *Detector) emit(ev *Event) {
	if ev == nil {
		return
	}
	lg := d.cfg.Logger
	switch ev.Kind {
	case EventSuspect:
		lg.Warnf("fault: peer %s suspect (phi=%.2f, failures=%d)", ev.Peer, ev.Phi, ev.Failures)
	case EventConfirm:
		lg.Warnf("fault: peer %s confirmed down (phi=%.2f, failures=%d)", ev.Peer, ev.Phi, ev.Failures)
	case EventRecover:
		lg.Infof("fault: peer %s recovered", ev.Peer)
	}
	if d.cfg.OnEvent != nil {
		d.cfg.OnEvent(*ev)
	}
}

// Close stops all probing.
func (d *Detector) Close() {
	if d == nil {
		return
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	for _, w := range d.watches {
		w.stopped = true
	}
	close(d.done)
	d.mu.Unlock()
	d.wg.Wait()
}
