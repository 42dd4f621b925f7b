package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"naplet/internal/obs"
)

// connTap records the shared connections a manager installs (via WrapData)
// so tests can kill them out from under the transport.
type connTap struct {
	mu    sync.Mutex
	conns []net.Conn
}

func (ct *connTap) wrap(c net.Conn) net.Conn {
	ct.mu.Lock()
	ct.conns = append(ct.conns, c)
	ct.mu.Unlock()
	return c
}

func (ct *connTap) killLatest() {
	ct.mu.Lock()
	c := ct.conns[len(ct.conns)-1]
	ct.mu.Unlock()
	c.Close()
}

func (ct *connTap) count() int {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return len(ct.conns)
}

func resumable(window time.Duration) func(*Config) {
	return func(cfg *Config) { cfg.ResumeWindow = window }
}

func TestStreamSurvivesConnectionKill(t *testing.T) {
	tap := &connTap{}
	met := obs.NewRegistry()
	a := newTestPeerCfg(t, "a", true, func(cfg *Config) {
		cfg.ResumeWindow = 10 * time.Second
		cfg.WrapData = tap.wrap
		cfg.Metrics = met
	})
	b := newTestPeerCfg(t, "b", true, resumable(10*time.Second))
	cs, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ss := recvStream(t, b)

	// A deterministic multi-window payload, streamed while the underlying
	// connection is killed twice: the session must resume in place and the
	// receiver must see every byte exactly once, in order, with no error.
	const total = 4 << 20
	payload := make([]byte, total)
	for i := range payload {
		payload[i] = byte(i*131 + i>>9)
	}
	writeErr := make(chan error, 1)
	go func() {
		var err error
		for off := 0; off < total && err == nil; off += 8 << 10 {
			end := off + 8<<10
			if end > total {
				end = total
			}
			_, err = cs.Write(payload[off:end])
		}
		if err == nil {
			err = cs.CloseWrite()
		}
		writeErr <- err
	}()

	killed := 0
	got := make([]byte, 0, total)
	buf := make([]byte, 32<<10)
	for {
		n, err := ss.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("server read after %d bytes: %v", len(got), err)
		}
		if (killed == 0 && len(got) > total/4) || (killed == 1 && len(got) > total/2) {
			killed++
			tap.killLatest()
		}
	}
	if err := <-writeErr; err != nil {
		t.Fatalf("client write: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted across resume: got %d bytes, want %d", len(got), total)
	}
	if killed != 2 {
		t.Fatalf("killed %d connections, want 2", killed)
	}
	if tap.count() < 3 {
		t.Fatalf("only %d connections installed; resume did not redial", tap.count())
	}
	if got := met.Counter("transport.reconnects").Value(); got < 2 {
		t.Fatalf("transport.reconnects = %d, want >= 2", got)
	}
	if got := met.Counter("transport.resumed_streams").Value(); got < 2 {
		t.Fatalf("transport.resumed_streams = %d, want >= 2", got)
	}

	// The reverse direction still works on the resumed session.
	if _, err := ss.Write([]byte("still here")); err != nil {
		t.Fatal(err)
	}
	rb := make([]byte, 16)
	n, err := cs.Read(rb)
	if err != nil || string(rb[:n]) != "still here" {
		t.Fatalf("client read after resume: %q, %v", rb[:n], err)
	}
}

func TestResumeWindowExpiryFailsStreamsTyped(t *testing.T) {
	tap := &connTap{}
	a := newTestPeerCfg(t, "a", true, func(cfg *Config) {
		cfg.ResumeWindow = 300 * time.Millisecond
		cfg.WrapData = tap.wrap
	})
	b := newTestPeer(t, "b", true)
	cs, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	recvStream(t, b)

	// Take the peer off the air entirely, then kill the connection: every
	// resume attempt fails to dial, and the window expires.
	b.ln.Close()
	b.mgr.Close()
	tap.killLatest()

	cs.SetDeadline(time.Now().Add(10 * time.Second))
	_, err = cs.Read(make([]byte, 1))
	if !errors.Is(err, ErrTransportLost) {
		t.Fatalf("read error = %v, want ErrTransportLost", err)
	}
	if _, err := cs.Write([]byte("x")); !errors.Is(err, ErrTransportLost) {
		t.Fatalf("write error = %v, want ErrTransportLost", err)
	}
}

func TestResumeDeniedFailsPromptly(t *testing.T) {
	tap := &connTap{}
	a := newTestPeerCfg(t, "a", true, func(cfg *Config) {
		cfg.ResumeWindow = 30 * time.Second
		cfg.WrapData = tap.wrap
	})
	b := newTestPeer(t, "b", true)
	cs, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	recvStream(t, b)

	// The acceptor forgets the session (as a restarted host would); the
	// dialer's resume must be denied and fail the streams long before the
	// 30s window — a denial is final.
	b.mgr.CloseTransports()
	cs.SetDeadline(time.Now().Add(10 * time.Second))
	start := time.Now()
	_, err = cs.Read(make([]byte, 1))
	if !errors.Is(err, ErrTransportLost) {
		t.Fatalf("read error = %v, want ErrTransportLost", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("denied resume took %v to fail; should be prompt", elapsed)
	}
}

// stallConn emulates a half-open connection: once stalled, inbound bytes
// are swallowed (reads hang) while the peer still believes it is writing
// into a live socket. Close unblocks any hung read.
type stallConn struct {
	net.Conn
	stalled atomic.Bool
	once    sync.Once
	unblock chan struct{}
}

func newStallConn(c net.Conn) *stallConn {
	return &stallConn{Conn: c, unblock: make(chan struct{})}
}

func (c *stallConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if err == nil && c.stalled.Load() {
		<-c.unblock
		return 0, io.EOF
	}
	return n, err
}

func (c *stallConn) Close() error {
	c.once.Do(func() { close(c.unblock) })
	return c.Conn.Close()
}

func TestKeepaliveDetectsHalfOpenTransport(t *testing.T) {
	var mu sync.Mutex
	var stalls []*stallConn
	met := obs.NewRegistry()
	a := newTestPeerCfg(t, "a", true, func(cfg *Config) {
		cfg.KeepaliveInterval = 50 * time.Millisecond
		cfg.KeepaliveTimeout = 250 * time.Millisecond
		cfg.ResumeWindow = 10 * time.Second
		cfg.Metrics = met
		cfg.WrapData = func(c net.Conn) net.Conn {
			sc := newStallConn(c)
			mu.Lock()
			stalls = append(stalls, sc)
			mu.Unlock()
			return sc
		}
	})
	b := newTestPeerCfg(t, "b", true, resumable(10*time.Second))
	cs, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ss := recvStream(t, b)
	if _, err := cs.Write([]byte("before")); err != nil {
		t.Fatal(err)
	}
	rb := make([]byte, 16)
	if n, err := ss.Read(rb); err != nil || string(rb[:n]) != "before" {
		t.Fatalf("pre-stall read %q, %v", rb[:n], err)
	}

	// Go half-open: the dialer's inbound direction dies silently. Only the
	// keepalive can notice — the socket never errors.
	mu.Lock()
	stalls[0].stalled.Store(true)
	mu.Unlock()

	// The keepalive must declare the transport dead and resume it; the
	// stream then works again without ever surfacing an error.
	if _, err := ss.Write([]byte("through the outage")); err != nil {
		t.Fatal(err)
	}
	cs.SetReadDeadline(time.Now().Add(10 * time.Second))
	n, err := cs.Read(rb)
	if err != nil || string(rb[:n]) != "through the " {
		// Read returns at most len(rb) bytes; accept any prefix.
		if err != nil {
			t.Fatalf("post-stall read: %v", err)
		}
	}
	if got := met.Counter("transport.keepalive_timeouts").Value(); got < 1 {
		t.Fatalf("transport.keepalive_timeouts = %d, want >= 1", got)
	}
	if got := met.Counter("transport.reconnects").Value(); got < 1 {
		t.Fatalf("transport.reconnects = %d, want >= 1", got)
	}
}

func TestErrTransportLostWrapsCause(t *testing.T) {
	s := newStream(&Transport{}, 1)
	s.transportFailed(io.ErrUnexpectedEOF)
	_, err := s.Read(make([]byte, 1))
	if !errors.Is(err, ErrTransportLost) {
		t.Fatalf("errors.Is(err, ErrTransportLost) = false for %v", err)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("cause not preserved: %v", err)
	}
	// An already-typed cause is not double-wrapped.
	s2 := newStream(&Transport{}, 3)
	s2.transportFailed(ErrTransportLost)
	if _, err := s2.Read(make([]byte, 1)); err != ErrTransportLost {
		t.Fatalf("typed cause rewrapped: %v", err)
	}
}

func TestManagerCloseCancelsInflightDial(t *testing.T) {
	dialStarted := make(chan struct{}, 1)
	dialRelease := make(chan struct{})
	var dialExited atomic.Bool
	a := newTestPeerCfg(t, "a", true, func(cfg *Config) {
		cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			select {
			case dialStarted <- struct{}{}:
			default:
			}
			<-dialRelease
			dialExited.Store(true)
			return nil, errors.New("dial released")
		}
	})
	opened := make(chan error, 1)
	go func() {
		_, err := a.mgr.OpenStream("203.0.113.1:9", testHeader(t), 30*time.Second)
		opened <- err
	}()
	<-dialStarted
	start := time.Now()
	a.mgr.Close()
	select {
	case err := <-opened:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("open returned %v, want ErrClosed", err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("open took %v to fail after Close", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("open still blocked after manager close")
	}
	// The dial goroutine is not leaked mid-call: it finishes once the
	// (bounded) dial itself returns.
	close(dialRelease)
	deadline := time.Now().Add(2 * time.Second)
	for !dialExited.Load() {
		if time.Now().After(deadline) {
			t.Fatal("dial goroutine never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestManagerCloseCancelsInflightHandshake(t *testing.T) {
	// A listener that accepts and then says nothing: the dial succeeds and
	// the handshake blocks until Close cuts the connection under it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	a := newTestPeerCfg(t, "a", true, func(cfg *Config) {
		cfg.HandshakeTimeout = 30 * time.Second
	})
	opened := make(chan error, 1)
	go func() {
		_, err := a.mgr.Transport(ln.Addr().String(), 30*time.Second)
		opened <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the dial land in the handshake
	start := time.Now()
	a.mgr.Close()
	select {
	case err := <-opened:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("transport returned %v, want ErrClosed", err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("handshake took %v to fail after Close", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handshake still blocked after manager close")
	}
}

func TestTransportInfoStates(t *testing.T) {
	tap := &connTap{}
	dialGate := make(chan struct{})
	var gated atomic.Bool
	a := newTestPeerCfg(t, "a", true, func(cfg *Config) {
		cfg.ResumeWindow = 10 * time.Second
		cfg.WrapData = tap.wrap
		base := cfg.Dial
		cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			if gated.Load() {
				<-dialGate
			}
			return base(addr, timeout)
		}
	})
	defer close(dialGate)
	b := newTestPeer(t, "b", true)
	if _, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	recvStream(t, b)
	infos := a.mgr.Infos()
	if len(infos) != 1 || infos[0].State != "connected" {
		t.Fatalf("infos = %+v, want one connected transport", infos)
	}

	// Break the connection with redials gated: the transport must report
	// reconnecting while the outage lasts.
	gated.Store(true)
	tap.killLatest()
	deadline := time.Now().Add(5 * time.Second)
	for {
		infos = a.mgr.Infos()
		if len(infos) == 1 && len(infos[0].State) >= len("reconnecting") && infos[0].State[:len("reconnecting")] == "reconnecting" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("transport never reported reconnecting: %+v", infos)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
