package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"naplet/internal/wire"
)

// testPeer is one host end for transport tests: a listener feeding inbound
// connections to a Manager, with delivered streams exposed on a channel.
type testPeer struct {
	t       *testing.T
	mgr     *Manager
	ln      net.Listener
	inbound chan *Stream
	dials   atomic.Int64

	mu        sync.Mutex
	authErr   error
	noDeliver bool
}

func (p *testPeer) setAuthErr(err error) {
	p.mu.Lock()
	p.authErr = err
	p.mu.Unlock()
}

func (p *testPeer) setNoDeliver(v bool) {
	p.mu.Lock()
	p.noDeliver = v
	p.mu.Unlock()
}

func newTestPeer(t *testing.T, name string, insecure bool) *testPeer {
	return newTestPeerCfg(t, name, insecure, nil)
}

// newTestPeerCfg is newTestPeer with a hook to adjust the Config before the
// Manager starts (keepalive cadence, conn wrappers, dial hooks).
func newTestPeerCfg(t *testing.T, name string, insecure bool, mutate func(*Config)) *testPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &testPeer{t: t, ln: ln, inbound: make(chan *Stream, 64)}
	cfg := Config{
		HostName:         name,
		AdvertiseAddr:    ln.Addr().String(),
		Insecure:         insecure,
		HandshakeTimeout: 5 * time.Second,
		Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			p.dials.Add(1)
			return net.DialTimeout("tcp", addr, timeout)
		},
		Authorize: func(h *wire.HandoffHeader) error {
			p.mu.Lock()
			defer p.mu.Unlock()
			return p.authErr
		},
		Deliver: func(h *wire.HandoffHeader, s *Stream) bool {
			p.mu.Lock()
			skip := p.noDeliver
			p.mu.Unlock()
			if skip {
				return false
			}
			p.inbound <- s
			return true
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	p.mgr = NewManager(cfg)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go p.mgr.HandleConn(conn)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		p.mgr.Close()
	})
	return p
}

func (p *testPeer) addr() string { return p.ln.Addr().String() }

func testHeader(t *testing.T) *wire.HandoffHeader {
	t.Helper()
	id, err := wire.NewConnID()
	if err != nil {
		t.Fatal(err)
	}
	return &wire.HandoffHeader{Purpose: wire.HandoffConnect, ConnID: id, TargetAgent: "srv", FromAgent: "cli"}
}

func recvStream(t *testing.T, p *testPeer) *Stream {
	t.Helper()
	select {
	case s := <-p.inbound:
		return s
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for inbound stream")
		return nil
	}
}

func TestStreamDataBothDirections(t *testing.T) {
	for _, insecure := range []bool{false, true} {
		t.Run(fmt.Sprintf("insecure=%v", insecure), func(t *testing.T) {
			a := newTestPeer(t, "a", insecure)
			b := newTestPeer(t, "b", insecure)
			cs, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			ss := recvStream(t, b)

			if _, err := cs.Write([]byte("ping")); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 16)
			n, err := ss.Read(buf)
			if err != nil || string(buf[:n]) != "ping" {
				t.Fatalf("server read %q, %v", buf[:n], err)
			}
			if _, err := ss.Write([]byte("pong")); err != nil {
				t.Fatal(err)
			}
			n, err = cs.Read(buf)
			if err != nil || string(buf[:n]) != "pong" {
				t.Fatalf("client read %q, %v", buf[:n], err)
			}

			// Both ends derived the same transport secret.
			if !bytes.Equal(
				func() []byte { s, _ := a.mgr.SecretByID(cs.TransportID(), 0); return s }(),
				func() []byte { s, _ := b.mgr.SecretByID(ss.TransportID(), 0); return s }(),
			) {
				t.Fatal("transport secrets differ between the two ends")
			}
		})
	}
}

func TestSecurityModeMismatchRefused(t *testing.T) {
	a := newTestPeer(t, "a", false)
	b := newTestPeer(t, "b", true)
	if _, err := a.mgr.OpenStream(b.addr(), testHeader(t), 3*time.Second); err == nil {
		t.Fatal("secure dialer connected to insecure acceptor")
	}
}

func TestCloseWriteDeliversEOFAfterData(t *testing.T) {
	a := newTestPeer(t, "a", true)
	b := newTestPeer(t, "b", true)
	cs, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ss := recvStream(t, b)

	payload := bytes.Repeat([]byte("x"), 100_000)
	if _, err := cs.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := cs.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(ss)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("read %d bytes, want %d", len(got), len(payload))
	}
	// The reverse direction still works after the half-close.
	if _, err := ss.Write([]byte("bye")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	n, err := cs.Read(buf)
	if err != nil || string(buf[:n]) != "bye" {
		t.Fatalf("read after half-close: %q, %v", buf[:n], err)
	}
}

func TestConcurrentOpensShareOneDial(t *testing.T) {
	a := newTestPeer(t, "a", true)
	b := newTestPeer(t, "b", true)
	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second)
			if err != nil {
				errs <- err
				return
			}
			if _, err := s.Write([]byte("hi")); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := a.dials.Load(); got != 1 {
		t.Fatalf("%d kernel dials for %d concurrent opens, want 1", got, n)
	}
	for i := 0; i < n; i++ {
		recvStream(t, b)
	}
	if tr, st := b.mgr.Counts(); tr != 1 || st != n {
		t.Fatalf("acceptor sees %d transports / %d streams, want 1 / %d", tr, st, n)
	}
}

func TestBulkStreamDoesNotStarveSibling(t *testing.T) {
	a := newTestPeer(t, "a", true)
	b := newTestPeer(t, "b", true)

	bulk, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	bulkSrv := recvStream(t, b)
	_ = bulkSrv // never read: the bulk sender must stall on credit, not jam the pipe

	// Fill the bulk stream's window and keep pushing from a goroutine.
	done := make(chan struct{})
	go func() {
		defer close(done)
		chunk := bytes.Repeat([]byte("B"), 64<<10)
		for i := 0; i < 64; i++ { // 4 MiB >> initialWindow
			if _, err := bulk.Write(chunk); err != nil {
				return
			}
		}
	}()

	// A sibling stream opened while the bulk stream is stalled must still
	// pass data promptly.
	small, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	smallSrv := recvStream(t, b)
	start := time.Now()
	if _, err := small.Write([]byte("urgent")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := smallSrv.Read(buf)
	if err != nil || string(buf[:n]) != "urgent" {
		t.Fatalf("sibling read %q, %v", buf[:n], err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("sibling stream stalled %v behind bulk stream", elapsed)
	}
	bulk.Close()
	<-done
}

func TestBulkTransferIntegrityAcrossWindows(t *testing.T) {
	a := newTestPeer(t, "a", true)
	b := newTestPeer(t, "b", true)
	cs, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ss := recvStream(t, b)

	const total = 5 << 20 // 5 MiB: several window refills and frame splits
	payload := make([]byte, total)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	go func() {
		cs.Write(payload)
		cs.CloseWrite()
	}()
	got, err := io.ReadAll(ss)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("bulk payload corrupted: %d bytes, want %d", len(got), total)
	}
}

// expectReset requires a stream the peer refused to fail its reader with
// the peer's reset and the reason it gave.
func expectReset(t *testing.T, s *Stream, reason string) {
	t.Helper()
	s.SetReadDeadline(time.Now().Add(3 * time.Second))
	_, err := s.Read(make([]byte, 1))
	if err == nil || !strings.Contains(err.Error(), "reset by peer: "+reason) {
		t.Fatalf("read on a refused stream: %v, want a reset saying %q", err, reason)
	}
}

// An open is not waited for, so a refusal is not an open error: the open
// succeeds, and the stream then fails with the peer's reset and its reason.
func TestAuthorizeRefusalResetsOpen(t *testing.T) {
	a := newTestPeer(t, "a", true)
	b := newTestPeer(t, "b", true)
	b.setAuthErr(errors.New("nope"))
	s, err := a.mgr.OpenStream(b.addr(), testHeader(t), 3*time.Second)
	if err != nil {
		t.Fatalf("open: %v (a refusal must arrive as a reset, not as an open error)", err)
	}
	expectReset(t, s, "handoff denied")
	if _, err := s.Write([]byte("x")); err == nil {
		t.Fatal("write succeeded on a refused stream")
	}
	select {
	case <-b.inbound:
		t.Fatal("refused stream was delivered")
	default:
	}
	// The refusal must not have killed the transport.
	b.setAuthErr(nil)
	if _, err := a.mgr.OpenStream(b.addr(), testHeader(t), 3*time.Second); err != nil {
		t.Fatalf("open after refusal: %v", err)
	}
	recvStream(t, b)
	if got := a.dials.Load(); got != 1 {
		t.Fatalf("refusal burned the transport: %d dials", got)
	}
}

func TestUnclaimedStreamReset(t *testing.T) {
	a := newTestPeer(t, "a", true)
	b := newTestPeer(t, "b", true)
	b.setNoDeliver(true)
	s, err := a.mgr.OpenStream(b.addr(), testHeader(t), 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	expectReset(t, s, "unclaimed")
	if n := b.mgr.byID(s.TransportID()).streamCount(); n != 0 {
		t.Fatalf("%d streams left on the refusing side", n)
	}
}

// gatedConn is a shared connection whose reads are held until release: the
// transport read loop behind it stalls while bytes pile up in the kernel.
type gatedConn struct {
	net.Conn
	gate chan struct{}
}

func (c *gatedConn) Read(p []byte) (int, error) {
	<-c.gate
	return c.Conn.Read(p)
}

// An open costs no round trip: OpenStream returns, and the stream takes
// writes, while the peer has not read a byte of it; and what was written
// before the peer's Deliver ran — before its Authorize even returned — is
// what the delivered stream reads, in order.
func TestOpenStreamWaitsForNothing(t *testing.T) {
	a := newTestPeer(t, "a", true)
	gate := make(chan struct{})
	authorizing := make(chan struct{})
	letAuthorize := make(chan struct{})
	b := newTestPeerCfg(t, "b", true, func(cfg *Config) {
		// The handshake ran on the bare connection; the read loop behind
		// the wrapped one reads nothing until the gate opens.
		cfg.WrapData = func(c net.Conn) net.Conn { return &gatedConn{Conn: c, gate: gate} }
		cfg.Authorize = func(*wire.HandoffHeader) error {
			close(authorizing)
			<-letAuthorize
			return nil
		}
	})
	if _, err := a.mgr.Transport(b.addr(), 5*time.Second); err != nil {
		t.Fatal(err)
	}

	opened := make(chan *Stream, 1)
	go func() {
		cs, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second)
		if err != nil {
			t.Error(err)
		}
		opened <- cs
	}()
	var cs *Stream
	select {
	case cs = <-opened:
	case <-time.After(3 * time.Second):
		t.Fatal("OpenStream waited for a peer whose read loop is stalled")
	}
	if cs == nil {
		t.FailNow()
	}
	for _, msg := range []string{"one,", "two,"} {
		if _, err := cs.Write([]byte(msg)); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)

	// The peer's read loop registers the stream on the MuxOpen and queues
	// the data behind it while serveOpen is still inside Authorize.
	<-authorizing
	if _, err := cs.Write([]byte("three")); err != nil {
		t.Fatal(err)
	}
	cs.CloseWrite()
	select {
	case <-b.inbound:
		t.Fatal("stream delivered before its authorization returned")
	case <-time.After(50 * time.Millisecond):
	}
	close(letAuthorize)
	got, err := io.ReadAll(recvStream(t, b))
	if err != nil || string(got) != "one,two,three" {
		t.Fatalf("delivered stream read %q, %v; want what was written before Deliver ran, in order", got, err)
	}
}

func TestTransportFailureFailsStreams(t *testing.T) {
	a := newTestPeer(t, "a", true)
	b := newTestPeer(t, "b", true)
	cs, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	recvStream(t, b)
	a.mgr.CloseTransports()
	if _, err := cs.Read(make([]byte, 1)); err == nil {
		t.Fatal("read succeeded on failed transport")
	}
	if _, err := cs.Write([]byte("x")); err == nil {
		t.Fatal("write succeeded on failed transport")
	}
	// A fresh open redials.
	if _, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := a.dials.Load(); got != 2 {
		t.Fatalf("%d dials, want 2 (one before and one after failure)", got)
	}
}

func TestSelfDialDoesNotDeadlock(t *testing.T) {
	a := newTestPeer(t, "a", true)
	done := make(chan error, 1)
	go func() {
		_, err := a.mgr.OpenStream(a.addr(), testHeader(t), 5*time.Second)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("self-dial deadlocked")
	}
	recvStream(t, a)
}

// TestDialTableEmptiesAfterDials: the in-flight dial table holds an
// address only while its dial runs, whether the dial succeeded or was
// refused, so a host that has dialed many peers keeps no entry for any.
func TestDialTableEmptiesAfterDials(t *testing.T) {
	a := newTestPeer(t, "a", true)
	var addrs []string
	for i := 0; i < 3; i++ {
		addrs = append(addrs, newTestPeer(t, fmt.Sprintf("b%d", i), true).addr())
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, ln.Addr().String())
		ln.Close() // nothing listens there now: the dial is refused
	}
	var wg sync.WaitGroup
	for _, addr := range addrs {
		for j := 0; j < 4; j++ {
			wg.Add(1)
			go func(addr string) {
				defer wg.Done()
				a.mgr.Transport(addr, time.Second)
			}(addr)
		}
	}
	wg.Wait()
	a.mgr.mu.Lock()
	n := len(a.mgr.dialing)
	a.mgr.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d addresses left in the dial table after every dial returned, want 0", n)
	}
	if tr, _ := a.mgr.Counts(); tr != 3 {
		t.Fatalf("%d transports, want one per listening peer (3)", tr)
	}
}

func TestReadDeadline(t *testing.T) {
	a := newTestPeer(t, "a", true)
	b := newTestPeer(t, "b", true)
	cs, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	recvStream(t, b)
	cs.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	start := time.Now()
	if _, err := cs.Read(make([]byte, 1)); err == nil {
		t.Fatal("read returned without data before deadline")
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("deadline ignored")
	}
	// Clearing the deadline restores blocking reads.
	cs.SetReadDeadline(time.Time{})
}

func TestManagerCloseRefusesOpens(t *testing.T) {
	a := newTestPeer(t, "a", true)
	b := newTestPeer(t, "b", true)
	a.mgr.Close()
	if _, err := a.mgr.OpenStream(b.addr(), testHeader(t), time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}
