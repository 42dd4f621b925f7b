package core

import (
	"fmt"
	"time"

	"naplet/internal/fsm"
	"naplet/internal/metrics"
	"naplet/internal/obs"
	"naplet/internal/rudp"
	"naplet/internal/wire"
)

// ctrlObs bundles the controller's observability handles: the leveled
// logger, the metric instruments created once at startup, and the
// per-phase breakdowns for open, suspend, and resume. Every field is
// nil-safe (obs instruments and metrics.Breakdown record nothing through
// nil), so instrumentation call sites stay unconditional.
type ctrlObs struct {
	log *obs.Logger
	met *obs.Registry
	// tr records migration/connection spans; nil-safe like everything
	// else here.
	tr *obs.Tracer

	opens, openErrors       *obs.Counter
	accepts                 *obs.Counter
	suspends, suspendErrors *obs.Counter
	resumes, resumeErrors   *obs.Counter
	closes                  *obs.Counter
	failures                *obs.Counter
	drainsGraceful          *obs.Counter
	drainsUngraceful        *obs.Counter
	departs, arrivals       *obs.Counter
	connsShipped            *obs.Counter
	fsmTransitions          *obs.Counter
	connRecoveries          *obs.Counter
	transportLost           *obs.Counter

	// Control requests refused before anything is known of their sender.
	rejectMalformed, rejectUnauth *obs.Counter

	dataFrames         *obs.Counter
	dataFlushes        *obs.Counter
	dataBytes, seqGaps *obs.Counter

	openMs, suspendMs, resumeMs *obs.Histogram
	recoveryMs                  *obs.Histogram

	openBD, suspendBD, resumeBD *metrics.Breakdown
}

// newCtrlObs resolves the observability configuration. The logger is
// cfg.Logger behind gate, the controller's close guard; the transport
// manager and the relay client log through it too. Breakdowns are created
// on demand when a metrics registry is present, so the phase gauges below
// always have a source on an instrumented controller.
func newCtrlObs(cfg Config, gate func(emit func())) *ctrlObs {
	lg := cfg.Logger.Gated(gate)
	if cfg.HostName != "" {
		lg = lg.With("host", cfg.HostName)
	}
	met := cfg.Metrics
	o := &ctrlObs{
		log:              lg,
		met:              met,
		tr:               cfg.Tracer,
		opens:            met.Counter("conn.opens"),
		openErrors:       met.Counter("conn.open_errors"),
		accepts:          met.Counter("conn.accepts"),
		suspends:         met.Counter("conn.suspends"),
		suspendErrors:    met.Counter("conn.suspend_errors"),
		resumes:          met.Counter("conn.resumes"),
		resumeErrors:     met.Counter("conn.resume_errors"),
		closes:           met.Counter("conn.closes"),
		failures:         met.Counter("conn.failures"),
		drainsGraceful:   met.Counter("conn.drains.graceful"),
		drainsUngraceful: met.Counter("conn.drains.ungraceful"),
		departs:          met.Counter("migrate.departs"),
		arrivals:         met.Counter("migrate.arrivals"),
		connsShipped:     met.Counter("migrate.conns_shipped"),
		fsmTransitions:   met.Counter("fsm.transitions"),
		connRecoveries:   met.Counter("fault.conn_recoveries"),
		rejectMalformed:  met.Counter(`control.rejected{reason="malformed"}`),
		rejectUnauth:     met.Counter(`control.rejected{reason="unauthenticated"}`),
		transportLost:    met.Counter("conn.transport_lost"),
		dataFrames:       met.Counter("data.frames"),
		dataFlushes:      met.Counter("data.flushes"),
		dataBytes:        met.Counter("data.bytes"),
		seqGaps:          met.Counter("data.seq_gaps"),
		openMs:           met.Histogram("conn.open_ms"),
		suspendMs:        met.Histogram("conn.suspend_ms"),
		resumeMs:         met.Histogram("conn.resume_ms"),
		recoveryMs:       met.Histogram("fault.recovery_ms"),
		openBD:           cfg.OpenBreakdown,
		suspendBD:        cfg.SuspendBreakdown,
		resumeBD:         cfg.ResumeBreakdown,
	}
	if met != nil {
		if o.openBD == nil {
			o.openBD = metrics.NewBreakdown()
		}
		if o.suspendBD == nil {
			o.suspendBD = metrics.NewBreakdown()
		}
		if o.resumeBD == nil {
			o.resumeBD = metrics.NewBreakdown()
		}
		registerBreakdown(met, "phase.open", o.openBD, metrics.OpenPhases())
		registerBreakdown(met, "phase.suspend", o.suspendBD, metrics.SuspendPhases())
		registerBreakdown(met, "phase.resume", o.resumeBD, metrics.ResumePhases())
	}
	return o
}

// registerBreakdown exposes a breakdown's accumulated per-phase times as
// gauge funcs, in milliseconds.
func registerBreakdown(met *obs.Registry, prefix string, bd *metrics.Breakdown, phases []metrics.Phase) {
	for _, p := range phases {
		p := p
		met.Func(prefix+"."+string(p)+"_ms", func() float64 {
			return float64(bd.Get(p)) / float64(time.Millisecond)
		})
	}
}

// registerControllerGauges exposes the controller's load and its control
// channel's RUDP counters in the registry, so control-channel
// retransmission health appears in /metrics without extra plumbing in
// callers.
func (ctrl *Controller) registerGauges() {
	met := ctrl.obs.met
	if met == nil {
		return
	}
	met.Func("conn.resident", func() float64 {
		return float64(ctrl.tab.count())
	})
	met.Func("conn.listeners", func() float64 {
		ctrl.mu.Lock()
		defer ctrl.mu.Unlock()
		return float64(len(ctrl.listeners))
	})
	met.Func("agents.migrating", func() float64 {
		return float64(ctrl.tab.migratingCount())
	})
	met.Func("transport.active", func() float64 {
		transports, _ := ctrl.transportCounts()
		return float64(transports)
	})
	met.Func("transport.streams", func() float64 {
		_, streams := ctrl.transportCounts()
		return float64(streams)
	})
	met.Func("data.pool_hits", func() float64 {
		hits, _ := wire.PoolStats()
		return float64(hits)
	})
	met.Func("data.pool_misses", func() float64 {
		_, misses := wire.PoolStats()
		return float64(misses)
	})
	met.Func("data.pool_hit_rate", func() float64 {
		hits, misses := wire.PoolStats()
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	})
	registerRUDP(met, ctrl.ep)
}

// registerRUDP registers a reliable-UDP endpoint's existing Stats
// counters as snapshot-time funcs.
func registerRUDP(met *obs.Registry, ep *rudp.Endpoint) {
	stat := func(pick func(rudp.Stats) uint64) func() float64 {
		return func() float64 { return float64(pick(ep.Stats())) }
	}
	met.Func("rudp.requests_sent", stat(func(s rudp.Stats) uint64 { return s.RequestsSent }))
	met.Func("rudp.retransmits", stat(func(s rudp.Stats) uint64 { return s.Retransmits }))
	met.Func("rudp.responses_served", stat(func(s rudp.Stats) uint64 { return s.ResponsesServed }))
	met.Func("rudp.duplicate_requests", stat(func(s rudp.Stats) uint64 { return s.DuplicateRequests }))
	met.Func("rudp.handler_invoked", stat(func(s rudp.Stats) uint64 { return s.HandlerInvoked }))
	met.Func("rudp.packets_dropped", stat(func(s rudp.Stats) uint64 { return s.PacketsDropped }))
}

// unlessClosing runs emit, which writes one log line, unless Close has begun
// (the sink may be a testing.T that must not be used after the test ends).
// It is the gate of the controller's logger, so it covers every line of the
// controller, its transports and its relay client.
func (ctrl *Controller) unlessClosing(emit func()) {
	ctrl.logMu.RLock()
	defer ctrl.logMu.RUnlock()
	if !ctrl.closing.Load() {
		emit()
	}
}

// olog emits one controller-scoped line.
func (ctrl *Controller) olog(lv obs.Level, format string, args ...any) {
	ctrl.obs.log.Logf(lv, format, args...)
}

// olog emits one connection-scoped line carrying the conn id, current
// FSM state, and peer agent as structured fields.
func (s *Socket) olog(lv obs.Level, format string, args ...any) {
	lg := s.ctrl.obs.log
	if !lg.Enabled(lv) {
		return
	}
	lg.With("conn", s.id).
		With("state", s.m.State()).
		With("peer", s.remoteAgent).
		Logf(lv, format, args...)
}

// observeFSM installs the observability hooks on a socket's state
// machine: the aggregate and per-edge transition counters, a debug line
// per transition, and — when a traced operation (suspend, resume) is in
// flight on the socket — a timestamped annotation of the edge on its span.
func (s *Socket) observeFSM() {
	o := s.ctrl.obs
	if o.met == nil && o.tr == nil && !o.log.Enabled(obs.LevelDebug) {
		return
	}
	// The observer fires from step(), which runs under s.mu, so traceSpan
	// is read directly rather than through an accessor.
	s.m.SetObserver(func(tr fsm.Transition) {
		o.fsmTransitions.Inc()
		o.met.Counter("fsm.transition." + tr.From.String() + "->" + tr.To.String()).Inc()
		if sp := s.traceSpan; sp != nil {
			sp.Annotate(fmt.Sprintf("fsm %s->%s @%s", tr.From, tr.To, tr.At.UTC().Format("15:04:05.000000")))
		}
		if o.log.Enabled(obs.LevelDebug) {
			o.log.With("conn", s.id).Debugf("fsm %s --[%s]--> %s", tr.From, tr.Event, tr.To)
		}
	})
}
