package transport

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"naplet/internal/netem"
)

func TestFlightRecorderRingAndCounts(t *testing.T) {
	rec := newFlightRecorder()
	for i := 0; i < recorderCap+10; i++ {
		rec.record("credit-stall", "stream=%d", i)
	}
	rec.record("lost", "cause=x")
	events, counts := rec.snapshot()
	if len(events) != recorderCap {
		t.Fatalf("ring holds %d events, want %d", len(events), recorderCap)
	}
	// Oldest-first: the first retained stall is stream 11 (10 evicted by
	// wraparound plus one more for the lost event).
	if events[0].Kind != "credit-stall" || events[0].Detail != "stream=11" {
		t.Fatalf("oldest event = %+v", events[0])
	}
	if events[len(events)-1].Kind != "lost" {
		t.Fatalf("newest event = %+v", events[len(events)-1])
	}
	// Cumulative counts survive eviction.
	if counts["credit-stall"] != recorderCap+10 || counts["lost"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if rec.count("credit-stall") != recorderCap+10 || rec.count("missing") != 0 {
		t.Fatalf("count() = %d / %d", rec.count("credit-stall"), rec.count("missing"))
	}

	// Timestamps are monotone non-decreasing oldest-to-newest.
	for i := 1; i < len(events); i++ {
		if events[i].At.Before(events[i-1].At) {
			t.Fatalf("event %d out of order", i)
		}
	}

	// A nil recorder is inert.
	var nilRec *flightRecorder
	nilRec.record("x", "y")
	if ev, c := nilRec.snapshot(); ev != nil || c != nil {
		t.Fatal("nil recorder leaks state")
	}
	if nilRec.count("x") != 0 {
		t.Fatal("nil recorder counts")
	}
	nilRec.dump(nil, "t", nil)
}

func TestFlightRecorderDump(t *testing.T) {
	rec := newFlightRecorder()
	rec.record("dial", "peer=b addr=1.2.3.4:5")
	rec.record("keepalive-timeout", "idle=750ms srtt=1ms")
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	rec.dump(logf, "tid (peer b)", ErrTransportLost)
	if len(lines) < 3 {
		t.Fatalf("dump wrote %d lines: %q", len(lines), lines)
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"tid (peer b)", "session lost", "dial", "peer=b addr=1.2.3.4:5", "keepalive-timeout", "idle=750ms"} {
		if !strings.Contains(joined, want) {
			t.Errorf("dump missing %q:\n%s", want, joined)
		}
	}
}

// TestFlightRecorderCoalescesRepeats: a bulk stream stalls on credit
// thousands of times in a run. The count stays exact — the benchmark reads
// it — but the repeats fold into one ring entry per stream, so the dump on
// a loss still tells how the transport began.
func TestFlightRecorderCoalescesRepeats(t *testing.T) {
	rec := newFlightRecorder()
	rec.record("dial", "peer=b")
	for i := 0; i < 1000; i++ {
		rec.record("credit-stall", "stream=%d", 1+2*(i%2)) // two streams in turn
	}
	rec.record("lost", "cause=x")
	var lines []string
	rec.dump(func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }, "tid", ErrTransportLost)
	events, counts := rec.snapshot()
	if counts["credit-stall"] != 1000 {
		t.Fatalf("credit-stall count %d, want 1000", counts["credit-stall"])
	}
	if len(events) != 4 || events[0].Kind != "dial" || events[3].Kind != "lost" {
		t.Fatalf("events %v, want dial, one stall per stream, lost", events)
	}
	if events[1].Repeats+events[2].Repeats != 1000-2 {
		t.Fatalf("stall entries fold %d and %d repeats, want 998 between them", events[1].Repeats, events[2].Repeats)
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"dial", "peer=b", "stream=1 (and 499 more)", "stream=3 (and 499 more)", "lost"} {
		if !strings.Contains(joined, want) {
			t.Errorf("dump missing %q:\n%s", want, joined)
		}
	}
	// Another kind in between ends the run: a later stall is news again.
	rec.record("credit-stall", "stream=1")
	if events, _ := rec.snapshot(); events[len(events)-1].Kind != "credit-stall" || events[len(events)-1].Repeats != 0 {
		t.Fatalf("a stall after the loss folded into an earlier entry: %v", events)
	}
}

// TestFlightRecorderCapturesNetemFaults is the chaos-soak follow-up: every
// RST the netem proxy injects must show up in the dialing side's flight
// recorders — each transport it kills ends with exactly one "lost" event,
// and the lost count across the tombstones equals the proxy's injected
// fault count exactly.
func TestFlightRecorderCapturesNetemFaults(t *testing.T) {
	faults := netem.NewFaults(0xF11647)
	b := newTestPeer(t, "b", true)
	proxy, err := netem.NewProxy(b.addr(), faults)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	a := newTestPeerCfg(t, "a", true, func(cfg *Config) {
		// Every dial crosses the fault proxy, so the proxy sees exactly the
		// transport's connections.
		cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", proxy.Addr(), timeout)
		}
	})

	waitFlows := func(n int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for proxy.FlowCount() != n {
			if time.Now().After(deadline) {
				t.Fatalf("proxy flows = %d, want %d", proxy.FlowCount(), n)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	const rounds = 4
	for k := 1; k <= rounds; k++ {
		// Each round opens over a fresh transport: the last one was lost.
		cs, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second)
		if err != nil {
			t.Fatalf("round %d open: %v", k, err)
		}
		ss := recvStream(t, b)
		msg := []byte(fmt.Sprintf("ping-%d", k))
		if _, err := cs.Write(msg); err != nil {
			t.Fatalf("round %d write: %v", k, err)
		}
		buf := make([]byte, 64)
		if n, err := ss.Read(buf); err != nil || string(buf[:n]) != string(msg) {
			t.Fatalf("round %d read: %q, %v", k, buf[:n], err)
		}
		waitFlows(1)
		if killed := proxy.ResetAll(); killed != 1 {
			t.Fatalf("round %d: reset killed %d flows, want 1", k, killed)
		}
		// The read returns once the transport has failed, so each injected
		// fault is fully absorbed before the next one fires.
		if _, err := cs.Read(buf); !errors.Is(err, ErrTransportLost) {
			t.Fatalf("round %d: read after the reset: %v, want ErrTransportLost", k, err)
		}
	}

	resets := proxy.Resets()
	if resets != rounds {
		t.Fatalf("proxy injected %d resets, want %d", resets, rounds)
	}
	var lost uint64
	for _, in := range a.mgr.Infos() {
		if n := in.EventCounts["lost"]; n != 1 {
			t.Errorf("transport %s: %d lost events, want 1 (events: %v)", in.ID, n, in.Events)
		}
		lost += in.EventCounts["lost"]
		// The ring holds the narrative: a dial, then the loss.
		if in.Events[0].Kind != "dial" || in.Events[len(in.Events)-1].Kind != "lost" {
			t.Errorf("transport %s events %v, want dial ... lost", in.ID, in.Events)
		}
	}
	if lost != resets {
		t.Errorf("recorded %d lost events, want %d (one per injected RST)", lost, resets)
	}
}
