package rudp

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestRetransmitScheduleFakeClock pins the retransmission schedule down
// deterministically: every outgoing packet is dropped, a fake clock is
// stepped forward, and the observed send times must follow capped
// exponential backoff before the retry budget surfaces ErrPeerUnreachable.
func TestRetransmitScheduleFakeClock(t *testing.T) {
	const (
		base       = 20 * time.Millisecond
		cap        = 160 * time.Millisecond // default 8x base
		maxRetries = 6
	)
	fc := newFakeClock(time.Unix(0, 0))
	sends := make(chan time.Duration, 32)
	cfg := Config{
		RetransmitInterval: base,
		MaxRetries:         maxRetries,
		Jitter:             -1, // disabled: the schedule must be exact
		DropFn: func([]byte) bool {
			sends <- fc.Now().Sub(time.Unix(0, 0))
			return true // blackhole: nothing ever arrives
		},
	}
	e, err := Listen("127.0.0.1:0", nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.clk = fc

	done := make(chan error, 1)
	go func() {
		_, err := e.Request(context.Background(), "127.0.0.1:9", []byte("probe"))
		done <- err
	}()

	// Collect the initial send plus maxRetries retransmissions, advancing
	// the fake clock in small steps so each gap is measured precisely.
	var got []time.Duration
	deadline := time.After(10 * time.Second)
	for len(got) < 1+maxRetries {
		select {
		case d := <-sends:
			got = append(got, d)
			continue
		case <-done:
			t.Fatalf("request failed after only %d sends", len(got))
		case <-deadline:
			t.Fatalf("stalled with %d sends: %v", len(got), got)
		case <-time.After(2 * time.Millisecond):
			fc.Advance(time.Millisecond)
		}
	}

	// Expected gaps: base doubling each retry, capped at 8x base.
	want := []time.Duration{20, 40, 80, 160, 160, 160}
	for i := range want {
		want[i] *= time.Millisecond
	}
	const tol = 8 * time.Millisecond
	for i := 1; i < len(got); i++ {
		gap := got[i] - got[i-1]
		if diff := gap - want[i-1]; diff < -tol || diff > tol {
			t.Errorf("gap %d = %v, want %v (±%v)", i, gap, want[i-1], tol)
		}
	}

	// One more timer fire exhausts the budget.
	var reqErr error
	deadline = time.After(10 * time.Second)
wait:
	for {
		select {
		case reqErr = <-done:
			break wait
		case <-deadline:
			t.Fatal("request never exhausted its retry budget")
		case <-time.After(2 * time.Millisecond):
			fc.Advance(cap / 4)
		}
	}
	if !errors.Is(reqErr, ErrPeerUnreachable) {
		t.Fatalf("err = %v, want ErrPeerUnreachable", reqErr)
	}
	if !errors.Is(reqErr, ErrTimeout) {
		t.Fatalf("err = %v must keep matching ErrTimeout for old call sites", reqErr)
	}
	var ue *UnreachableError
	if !errors.As(reqErr, &ue) || ue.Retries != maxRetries {
		t.Fatalf("err = %#v, want UnreachableError with %d retries", reqErr, maxRetries)
	}
	if st := e.Stats(); st.Retransmits != maxRetries {
		t.Fatalf("Retransmits = %d, want %d", st.Retransmits, maxRetries)
	}
}

// TestJitterBounds checks the jitter perturbation stays within ±Jitter/2.
func TestJitterBounds(t *testing.T) {
	vals := []float64{0, 0.25, 0.5, 0.75, 1}
	i := 0
	e := &Endpoint{cfg: Config{Jitter: 0.5, rng: func() float64 { v := vals[i%len(vals)]; i++; return v }}}
	const d = 100 * time.Millisecond
	for range vals {
		j := e.jittered(d)
		if j < 75*time.Millisecond || j > 125*time.Millisecond {
			t.Fatalf("jittered(%v) = %v outside ±25%%", d, j)
		}
	}
	e.cfg.Jitter = 0
	if e.jittered(d) != d {
		t.Fatal("zero jitter must be exact")
	}
}
