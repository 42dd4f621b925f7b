package netem

import (
	"bytes"
	"io"
	"net"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestDropFnSeededDeterminism(t *testing.T) {
	a, b := NewFaults(42), NewFaults(42)
	a.SetLoss(0.3)
	b.SetLoss(0.3)
	da, db := a.DropFn(), b.DropFn()
	drops := 0
	for i := 0; i < 1000; i++ {
		x, y := da(nil), db(nil)
		if x != y {
			t.Fatalf("decision %d diverged between same-seed plans", i)
		}
		if x {
			drops++
		}
	}
	if drops < 200 || drops > 400 {
		t.Fatalf("%d/1000 drops at p=0.3; seeding or probability broken", drops)
	}
	// Zero loss never drops.
	a.SetLoss(0)
	for i := 0; i < 100; i++ {
		if da(nil) {
			t.Fatal("dropped at loss 0")
		}
	}
}

// TestLossRateMatchesKnob sweeps the loss model at an environment-chosen
// operating point: NETEM_SEED and NETEM_LOSS (default 42 and 0.3) pick
// the plan, and the observed drop rate over a large sample must sit
// within a few points of the configured probability.
func TestLossRateMatchesKnob(t *testing.T) {
	seed := int64(42)
	if v := os.Getenv("NETEM_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("NETEM_SEED = %q: %v", v, err)
		}
		seed = n
	}
	loss := 0.3
	if v := os.Getenv("NETEM_LOSS"); v != "" {
		p, err := strconv.ParseFloat(v, 64)
		if err != nil || p < 0 || p > 1 {
			t.Fatalf("NETEM_LOSS = %q: want a probability in [0,1] (%v)", v, err)
		}
		loss = p
	}
	f := NewFaults(seed)
	f.SetLoss(loss)
	drop := f.DropFn()
	const samples = 20_000
	drops := 0
	for i := 0; i < samples; i++ {
		if drop(nil) {
			drops++
		}
	}
	got := float64(drops) / samples
	if got < loss-0.03 || got > loss+0.03 {
		t.Fatalf("seed %d loss %.2f: observed drop rate %.4f", seed, loss, got)
	}
	t.Logf("seed %d loss %.2f: observed %.4f over %d samples", seed, loss, got, samples)
}

// echoServer accepts one-shot echo connections for proxy tests.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				io.Copy(conn, conn)
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln
}

func TestProxyPassThrough(t *testing.T) {
	ln := echoServer(t)
	p, err := NewProxy(ln.Addr().String(), NewFaults(1))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := bytes.Repeat([]byte("chaos"), 10_000)
	go conn.Write(payload)
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted through clean proxy")
	}
	if p.FlowCount() != 1 {
		t.Fatalf("FlowCount = %d, want 1", p.FlowCount())
	}
}

func TestProxyResetAllBreaksFlows(t *testing.T) {
	ln := echoServer(t)
	p, err := NewProxy(ln.Addr().String(), NewFaults(1))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	conns := make([]net.Conn, 3)
	for i := range conns {
		c, err := net.Dial("tcp", p.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		// Prove each flow is live before the reset.
		if _, err := c.Write([]byte("hi")); err != nil {
			t.Fatal(err)
		}
		b := make([]byte, 2)
		if _, err := io.ReadFull(c, b); err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	if n := p.ResetAll(); n != 3 {
		t.Fatalf("ResetAll killed %d flows, want 3", n)
	}
	if p.Resets() != 3 {
		t.Fatalf("Resets() = %d, want 3", p.Resets())
	}
	for i, c := range conns {
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Read(make([]byte, 1)); err == nil {
			t.Fatalf("conn %d survived ResetAll", i)
		}
	}
	// The proxy still accepts new flows after a reset.
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 2)
	if _, err := io.ReadFull(c, b); err != nil {
		t.Fatalf("echo after reset: %v", err)
	}
}

func TestProxyOneWayPartition(t *testing.T) {
	ln := echoServer(t)
	f := NewFaults(1)
	p, err := NewProxy(ln.Addr().String(), f)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Stall the client-to-server direction: writes vanish into the stall
	// (delayed, not lost) and no echo comes back while it holds.
	f.Stall(Up, true)
	if _, err := conn.Write([]byte("delayed")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	if _, err := conn.Read(make([]byte, 8)); err == nil {
		t.Fatal("bytes crossed a stalled direction")
	}
	// Lifting the stall delivers the held bytes — nothing was dropped.
	f.Stall(Up, false)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got := make([]byte, 7)
	if _, err := io.ReadFull(conn, got); err != nil || string(got) != "delayed" {
		t.Fatalf("post-stall read %q, %v", got, err)
	}
}

func TestBandwidthCapPaces(t *testing.T) {
	ln := echoServer(t)
	f := NewFaults(1)
	f.SetBandwidth(256 << 10) // 256 KiB/s
	p, err := NewProxy(ln.Addr().String(), f)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := make([]byte, 128<<10) // 128 KiB at 256 KiB/s: >= ~250ms one way
	start := time.Now()
	go conn.Write(payload)
	if _, err := io.ReadFull(conn, make([]byte, len(payload))); err != nil {
		t.Fatal(err)
	}
	// Both directions cross the shared budget: 256 KiB total through a
	// 256 KiB/s cap is at least ~1s minus scheduling slop.
	if elapsed := time.Since(start); elapsed < 500*time.Millisecond {
		t.Fatalf("128 KiB echoed in %v through a 256 KiB/s cap", elapsed)
	}
}

func TestWrapStallsAndPreservesCloseWrite(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	f := NewFaults(1)
	wrapped := f.Wrap(client, Up)

	f.Stall(Up, true)
	wrote := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrapped.Write([]byte("x"))
		close(wrote)
	}()
	select {
	case <-wrote:
		t.Fatal("write crossed a stalled wrapper")
	case <-time.After(100 * time.Millisecond):
	}
	go server.Read(make([]byte, 1))
	f.Stall(Up, false)
	select {
	case <-wrote:
	case <-time.After(5 * time.Second):
		t.Fatal("write never completed after stall lifted")
	}
	wg.Wait()

	// CloseWrite on a wrapper over a conn without half-close is a no-op,
	// not a panic.
	if cw, ok := wrapped.(interface{ CloseWrite() error }); !ok {
		t.Fatal("wrapper lost CloseWrite")
	} else if err := cw.CloseWrite(); err != nil {
		t.Fatal(err)
	}
}
