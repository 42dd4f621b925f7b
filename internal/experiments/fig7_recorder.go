package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// The Figure 7 delivery recorder: per-message delivery events for the
// paper's reliability demonstration — which messages a mobile agent read
// straight off the socket stream versus which were held in (and later
// served from) the NapletSocket message buffer across a migration.

// DeliverySource says where a delivered message came from.
type DeliverySource uint8

const (
	// FromSocket means the message was read directly from the live socket
	// stream (the dark dots of Figure 7).
	FromSocket DeliverySource = iota + 1
	// FromBuffer means the message was drained into the NapletSocket buffer
	// at suspend time, migrated with the agent, and served from the buffer
	// after resume (the light dots of Figure 7).
	FromBuffer
)

// String names the source.
func (s DeliverySource) String() string {
	switch s {
	case FromSocket:
		return "socket"
	case FromBuffer:
		return "buffer"
	default:
		return fmt.Sprintf("DeliverySource(%d)", uint8(s))
	}
}

// Delivery is one recorded delivery.
type Delivery struct {
	// Seq is the data-stream sequence number of the delivered message.
	Seq uint64
	// Counter is the application-level message counter, when the recording
	// application supplies one (the Figure 7 y-axis); otherwise 0.
	Counter uint64
	// When is the delivery time.
	When time.Time
	// Source is where the bytes came from.
	Source DeliverySource
}

// DeliveryRecorder accumulates delivery events. It is safe for concurrent
// use. A nil *DeliveryRecorder is valid and records nothing, so
// instrumentation can stay unconditionally in place.
type DeliveryRecorder struct {
	mu     sync.Mutex
	events []Delivery
	start  time.Time
}

// NewDeliveryRecorder returns an empty recorder whose relative timestamps are
// measured from now.
func NewDeliveryRecorder() *DeliveryRecorder {
	return &DeliveryRecorder{start: time.Now()}
}

// Record appends one delivery event.
func (r *DeliveryRecorder) Record(seq, counter uint64, src DeliverySource) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events = append(r.events, Delivery{Seq: seq, Counter: counter, When: time.Now(), Source: src})
	r.mu.Unlock()
}

// Start returns the recorder's epoch.
func (r *DeliveryRecorder) Start() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.start
}

// Events returns a copy of the recorded events in recording order.
func (r *DeliveryRecorder) Events() []Delivery {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Delivery, len(r.events))
	copy(out, r.events)
	return out
}

// Buffered returns the events served from the buffer.
func (r *DeliveryRecorder) Buffered() []Delivery {
	var out []Delivery
	for _, e := range r.Events() {
		if e.Source == FromBuffer {
			out = append(out, e)
		}
	}
	return out
}

// VerifyExactlyOnceInOrder checks the Figure 7 reliability property over
// the recorded application counters: every counter from first to last was
// delivered exactly once, in increasing order. It returns nil when the
// property holds.
func (r *DeliveryRecorder) VerifyExactlyOnceInOrder() error {
	events := r.Events()
	if len(events) == 0 {
		return nil
	}
	prev := events[0].Counter
	for _, e := range events[1:] {
		// A strict +1 walk covers duplicates too: a re-delivered counter
		// repeats prev (or something earlier) and can never equal prev+1,
		// so it is reported here as an order violation.
		if e.Counter != prev+1 {
			return fmt.Errorf("delivery recorder: counter %d followed %d (out of order, gap, or duplicate)", e.Counter, prev)
		}
		prev = e.Counter
	}
	return nil
}

// Render produces the Figure 7 style table: one row per delivery with
// relative time in milliseconds, counter, and source.
func (r *DeliveryRecorder) Render() string {
	events := r.Events()
	sort.SliceStable(events, func(i, j int) bool { return events[i].When.Before(events[j].When) })
	var sb strings.Builder
	sb.WriteString("time_ms\tcounter\tsource\n")
	for _, e := range events {
		fmt.Fprintf(&sb, "%.2f\t%d\t%s\n", float64(e.When.Sub(r.Start()))/float64(time.Millisecond), e.Counter, e.Source)
	}
	return sb.String()
}
