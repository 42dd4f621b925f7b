package transport

import (
	"fmt"
	"sync"
	"time"

	"naplet/internal/obs"
)

// This file is the transport's black-box flight recorder: every transport
// keeps a small ring of lifecycle events (dial or accept, keepalive
// timeouts, credit stalls, lost) so that when the session dies with
// ErrTransportLost the log shows what the transport lived through, not
// just the terminal cause. The ring is also surfaced on Info for the
// /connz debug endpoint, and cumulative per-kind counts survive ring
// eviction so tests can assert exact fault coverage. An event that repeats
// one already in the newest run of its kind (a bulk stream stalls on credit
// thousands of times) is folded into that entry's repeat count, so the
// repeats cannot push the dial or accept out of the ring.

// RecorderEvent is one recorded transport lifecycle event. Repeats counts
// the identical events (same kind and detail) folded into it after At.
type RecorderEvent struct {
	At      time.Time `json:"at"`
	Kind    string    `json:"kind"`
	Detail  string    `json:"detail,omitempty"`
	Repeats uint64    `json:"repeats,omitempty"`
}

// String renders the event as one log line.
func (ev RecorderEvent) String() string {
	line := fmt.Sprintf("%s %-18s %s", ev.At.Format("15:04:05.000"), ev.Kind, ev.Detail)
	if ev.Repeats > 0 {
		line += fmt.Sprintf(" (and %d more)", ev.Repeats)
	}
	return line
}

// recorderCap bounds the per-transport event ring.
const recorderCap = 64

// flightRecorder is a bounded ring of RecorderEvents plus cumulative
// per-kind counts. A nil recorder records nothing.
type flightRecorder struct {
	mu     sync.Mutex
	events []RecorderEvent // ring storage, oldest overwritten
	next   int             // next write slot once the ring is full
	counts map[string]uint64
}

func newFlightRecorder() *flightRecorder {
	return &flightRecorder{counts: make(map[string]uint64)}
}

func (r *flightRecorder) record(kind, format string, args ...any) {
	if r == nil {
		return
	}
	ev := RecorderEvent{At: time.Now(), Kind: kind}
	if format != "" {
		ev.Detail = fmt.Sprintf(format, args...)
	}
	r.mu.Lock()
	switch prev := r.repeatOf(ev); {
	case prev != nil:
		prev.Repeats++
	case len(r.events) < recorderCap:
		r.events = append(r.events, ev)
	default:
		r.events[r.next] = ev
		r.next = (r.next + 1) % recorderCap
	}
	r.counts[kind]++
	r.mu.Unlock()
}

// repeatOf returns the ring entry ev repeats — one of the same kind and
// detail in the newest run of events of that kind — or nil. Two bulk streams
// stalling in turn thus hold one entry each, not the whole ring. Caller holds
// r.mu.
func (r *flightRecorder) repeatOf(ev RecorderEvent) *RecorderEvent {
	n := len(r.events)
	for i := 0; i < n; i++ {
		// Newest first; r.next is 0 until the ring is full.
		e := &r.events[(r.next-1-i+n)%n]
		if e.Kind != ev.Kind {
			return nil
		}
		if e.Detail == ev.Detail {
			return e
		}
	}
	return nil
}

// snapshot returns the recorded events oldest-first and a copy of the
// cumulative counts.
func (r *flightRecorder) snapshot() ([]RecorderEvent, map[string]uint64) {
	if r == nil {
		return nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RecorderEvent, 0, len(r.events))
	if len(r.events) == recorderCap {
		out = append(out, r.events[r.next:]...)
		out = append(out, r.events[:r.next]...)
	} else {
		out = append(out, r.events...)
	}
	counts := make(map[string]uint64, len(r.counts))
	for k, v := range r.counts {
		counts[k] = v
	}
	return out, counts
}

// count returns the cumulative number of events of the given kind.
func (r *flightRecorder) count(kind string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[kind]
}

// dump writes the ring into the log, one line per event, newest last; it
// runs when a transport dies with ErrTransportLost so the black box is on
// record before the tombstone replaces the transport.
func (r *flightRecorder) dump(log *obs.Logger, cause error) {
	if r == nil || !log.Enabled(obs.LevelWarn) {
		return
	}
	events, _ := r.snapshot()
	log.Warnf("transport lost (%v); flight recorder (%d events):", cause, len(events))
	for _, ev := range events {
		log.Warnf("  %s", ev)
	}
}
