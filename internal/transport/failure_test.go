package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"naplet/internal/obs"
	"naplet/internal/wire"
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

// settledGoroutines waits for the goroutine count to fall to at most want
// and reports the last count seen.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	return n
}

// TestKillFailsEveryStreamTyped is the fail-stop contract: when the shared
// connection dies, every stream on both ends — opened by either side —
// fails its reads and writes with an error that errors.Is ErrTransportLost,
// within one keepalive timeout, and the transport leaves no goroutine
// behind. Recovering the data is the NapletSocket layer's job, over a fresh
// transport; the next open dials one.
func TestKillFailsEveryStreamTyped(t *testing.T) {
	for _, insecure := range []bool{true, false} {
		t.Run(fmt.Sprintf("insecure=%v", insecure), func(t *testing.T) {
			const timeout = 250 * time.Millisecond
			tap := &connTap{}
			probing := func(cfg *Config) {
				cfg.KeepaliveInterval = 50 * time.Millisecond
				cfg.KeepaliveTimeout = timeout
			}
			a := newTestPeerCfg(t, "a", insecure, func(cfg *Config) {
				probing(cfg)
				cfg.WrapData = tap.wrap
			})
			b := newTestPeerCfg(t, "b", insecure, probing)
			baseline := runtime.NumGoroutine()

			var streams []*Stream
			for i := 0; i < 2; i++ {
				cs, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				streams = append(streams, cs, recvStream(t, b))
			}
			// b opens one over the same transport, in the other direction.
			ss, err := b.mgr.OpenStream(a.addr(), testHeader(t), 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			streams = append(streams, ss, recvStream(t, a))
			if got := a.dials.Load() + b.dials.Load(); got != 1 {
				t.Fatalf("%d dials, want the one shared transport", got)
			}

			start := time.Now()
			tap.killLatest()
			for i, s := range streams {
				s.SetDeadline(time.Now().Add(timeout))
				if _, err := s.Read(make([]byte, 1)); !errors.Is(err, ErrTransportLost) {
					t.Fatalf("stream %d read: %v, want ErrTransportLost", i, err)
				}
				if _, err := s.Write([]byte("x")); !errors.Is(err, ErrTransportLost) {
					t.Fatalf("stream %d write: %v, want ErrTransportLost", i, err)
				}
			}
			if took := time.Since(start); took > timeout {
				t.Fatalf("streams failed %v after the kill, want within the %v keepalive timeout", took, timeout)
			}
			for _, s := range streams {
				s.Close()
			}
			if n := settledGoroutines(baseline); n > baseline {
				t.Fatalf("%d goroutines after the kill, %d before the transport existed", n, baseline)
			}

			// The next open pays a fresh dial and handshake.
			if _, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second); err != nil {
				t.Fatal(err)
			}
			recvStream(t, b)
			if got := a.dials.Load(); got != 2 {
				t.Fatalf("%d dials by a, want 2 (one before and one after the kill)", got)
			}
		})
	}
}

// TestResumeWindowExpiryFailsStreamsTyped: there is no resume window to wait
// out any more. With the peer off the air entirely and the connection
// killed, the streams fail typed at once, and the transport attempts no
// redial of its own — the connection above decides when to dial again.
func TestResumeWindowExpiryFailsStreamsTyped(t *testing.T) {
	tap := &connTap{}
	a := newTestPeerCfg(t, "a", true, func(cfg *Config) { cfg.WrapData = tap.wrap })
	b := newTestPeer(t, "b", true)
	cs, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	recvStream(t, b)

	b.ln.Close()
	b.mgr.Close()
	start := time.Now()
	tap.killLatest()

	cs.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := cs.Read(make([]byte, 1)); !errors.Is(err, ErrTransportLost) {
		t.Fatalf("read error = %v, want ErrTransportLost", err)
	}
	if _, err := cs.Write([]byte("x")); !errors.Is(err, ErrTransportLost) {
		t.Fatalf("write error = %v, want ErrTransportLost", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("streams failed %v after the kill; a fail-stop transport fails them at once", took)
	}
	time.Sleep(100 * time.Millisecond)
	if got := a.dials.Load(); got != 1 {
		t.Fatalf("%d dials by a, want 1: the transport must not redial on its own", got)
	}
}

// TestResumeDeniedFailsPromptly: the acceptor forgets the session (as a
// restarted host would). The dialer's streams fail typed promptly, and the
// next open is served by a fresh dial and handshake rather than by any
// attempt to revive the forgotten session.
func TestResumeDeniedFailsPromptly(t *testing.T) {
	a := newTestPeer(t, "a", true)
	b := newTestPeer(t, "b", true)
	cs, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	recvStream(t, b)
	old := a.mgr.Infos()[0].ID

	b.mgr.CloseTransports()
	cs.SetDeadline(time.Now().Add(10 * time.Second))
	start := time.Now()
	if _, err := cs.Read(make([]byte, 1)); !errors.Is(err, ErrTransportLost) {
		t.Fatalf("read error = %v, want ErrTransportLost", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("forgotten session took %v to fail; should be prompt", elapsed)
	}

	ns, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ss := recvStream(t, b)
	if _, err := ns.Write([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	rb := make([]byte, 8)
	ss.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := ss.Read(rb); err != nil || string(rb[:n]) != "fresh" {
		t.Fatalf("read on the fresh transport: %q, %v", rb[:n], err)
	}
	if got := a.dials.Load(); got != 2 {
		t.Fatalf("%d dials by a, want 2 (the forgotten session and a fresh one)", got)
	}
	if infos := a.mgr.Infos(); infos[0].ID == old {
		t.Fatalf("the fresh transport reuses the forgotten session id %v", old)
	}
}

// stallConn emulates a half-open connection: once stalled, inbound bytes
// are swallowed (reads hang) while the peer still believes it is writing
// into a live socket. Once writesHeld, every write parks instead — a peer
// whose receive window never opens — and parked hears of each. Close
// unblocks any hung read or write.
type stallConn struct {
	net.Conn
	stalled    atomic.Bool
	writesHeld atomic.Bool
	parked     chan struct{}
	once       sync.Once
	unblock    chan struct{}
}

func newStallConn(c net.Conn) *stallConn {
	return &stallConn{Conn: c, parked: make(chan struct{}, 1), unblock: make(chan struct{})}
}

func (c *stallConn) Write(p []byte) (int, error) {
	if c.writesHeld.Load() {
		select {
		case c.parked <- struct{}{}:
		default:
		}
		<-c.unblock
		return 0, net.ErrClosed
	}
	return c.Conn.Write(p)
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

// TestKeepaliveDetectsHalfOpenTransport: the dialer's inbound direction
// dies silently — the socket never errors — and only the keepalive can
// notice. It must declare the connection half-open and fail the transport,
// so the streams fail with ErrTransportLost instead of hanging.
func TestKeepaliveDetectsHalfOpenTransport(t *testing.T) {
	var mu sync.Mutex
	var stalls []*stallConn
	met := obs.NewRegistry()
	a := newTestPeerCfg(t, "a", true, func(cfg *Config) {
		cfg.KeepaliveInterval = 50 * time.Millisecond
		cfg.KeepaliveTimeout = 250 * time.Millisecond
		cfg.Metrics = met
		cfg.WrapData = func(c net.Conn) net.Conn {
			sc := newStallConn(c)
			mu.Lock()
			stalls = append(stalls, sc)
			mu.Unlock()
			return sc
		}
	})
	b := newTestPeer(t, "b", true)
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

	mu.Lock()
	stalls[0].stalled.Store(true)
	mu.Unlock()
	if _, err := ss.Write([]byte("into the void")); err != nil {
		t.Fatal(err)
	}
	cs.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := cs.Read(rb); !errors.Is(err, ErrTransportLost) {
		t.Fatalf("read on a half-open transport: %v, want ErrTransportLost", err)
	}
	if got := met.Counter("transport.keepalive_timeouts").Value(); got != 1 {
		t.Fatalf("transport.keepalive_timeouts = %d, want 1", got)
	}
	infos := a.mgr.Infos()
	if len(infos) != 1 || infos[0].EventCounts["keepalive-timeout"] != 1 || infos[0].EventCounts["lost"] != 1 {
		t.Fatalf("tombstone %+v, want one keepalive-timeout and one lost event", infos)
	}
}

// TestNothingWaitsOnAStuckKernelSend: with a session's kernel writes held,
// only a data writer over the write queue's bound may wait. A TryWrite, a
// credit grant from TakeSegments, a CloseWrite and the read loop's answer to
// a ping each return at once, on both session kinds — they run on the shared
// data-plane workers and the read loop, which a slow peer must never park.
func TestNothingWaitsOnAStuckKernelSend(t *testing.T) {
	for _, insecure := range []bool{false, true} {
		t.Run(fmt.Sprintf("insecure=%v", insecure), func(t *testing.T) {
			var mu sync.Mutex
			var conns []*stallConn
			a := newTestPeerCfg(t, "a", insecure, func(cfg *Config) {
				cfg.WrapData = func(c net.Conn) net.Conn {
					sc := newStallConn(c)
					mu.Lock()
					conns = append(conns, sc)
					mu.Unlock()
					return sc
				}
			})
			b := newTestPeer(t, "b", insecure)
			cs, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			ss := recvStream(t, b)
			sibling, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			recvStream(t, b)

			// Half a window in from b, so a's next take owes b a grant.
			half := cs.t.streamWindowAt
			readable := make(chan struct{}, 1)
			cs.SetReadable(func() {
				select {
				case readable <- struct{}{}:
				default:
				}
			})
			if _, err := ss.Write(make([]byte, half)); err != nil {
				t.Fatal(err)
			}
			for cs.Buffered() < half {
				select {
				case <-readable:
				case <-time.After(5 * time.Second):
					t.Fatalf("%d of %d bytes arrived", cs.Buffered(), half)
				}
			}

			mu.Lock()
			held := conns[0]
			mu.Unlock()
			held.writesHeld.Store(true)
			go cs.Write([]byte("parks the writer"))
			select {
			case <-held.parked:
			case <-time.After(5 * time.Second):
				t.Fatal("no kernel write parked")
			}

			within := func(what string, f func() error) {
				t.Helper()
				done := make(chan error, 1)
				go func() { done <- f() }()
				select {
				case err := <-done:
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
				case <-time.After(100 * time.Millisecond):
					t.Fatalf("%s waited on the held kernel write", what)
				}
			}
			within("TryWrite", func() error {
				if ok, err := cs.TryWrite([]byte("queued")); !ok || err != nil {
					return fmt.Errorf("got %v, %v; want queued", ok, err)
				}
				return nil
			})
			within("a credit grant", func() error {
				for _, seg := range cs.TakeSegments(nil, 2*half) {
					wire.PutPayload(seg)
				}
				cs.mu.Lock()
				defer cs.mu.Unlock()
				if cs.consumed != 0 {
					return fmt.Errorf("%d bytes taken and not granted", cs.consumed)
				}
				return nil
			})
			within("CloseWrite", sibling.CloseWrite)
			// b's ping, then data behind it: the data arrives only once a's
			// read loop has answered the ping.
			within("the answer to a ping", func() error {
				if err := ss.t.sendFrame(wire.MuxPing, 0, nil); err != nil {
					return err
				}
				if _, err := ss.Write([]byte("behind the ping")); err != nil {
					return err
				}
				buf := make([]byte, 32)
				if n, err := cs.Read(buf); err != nil || string(buf[:n]) != "behind the ping" {
					return fmt.Errorf("read %q, %v", buf[:n], err)
				}
				return nil
			})
		})
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

// TestTransportInfoStates: a live transport reports "connected"; once its
// connection dies it leaves the live set, and the debug surface keeps its
// tombstone, "lost" with the cause, beside the fresh transport the next
// open dials.
func TestTransportInfoStates(t *testing.T) {
	tap := &connTap{}
	a := newTestPeerCfg(t, "a", true, func(cfg *Config) { cfg.WrapData = tap.wrap })
	b := newTestPeer(t, "b", true)
	cs, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	recvStream(t, b)
	infos := a.mgr.Infos()
	if len(infos) != 1 || infos[0].State != "connected" {
		t.Fatalf("infos = %+v, want one connected transport", infos)
	}

	tap.killLatest()
	if _, err := cs.Read(make([]byte, 1)); !errors.Is(err, ErrTransportLost) {
		t.Fatalf("read after the kill: %v, want ErrTransportLost", err)
	}
	if _, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	recvStream(t, b)
	infos = a.mgr.Infos()
	if len(infos) != 2 || infos[0].State != "connected" || !strings.HasPrefix(infos[1].State, "lost (") {
		t.Fatalf("infos = %+v, want the fresh transport connected and the killed one lost", infos)
	}
	if infos[1].EventCounts["lost"] != 1 {
		t.Fatalf("tombstone events %v, want one lost", infos[1].EventCounts)
	}
}

// heldDump holds the first flight-recorder dump a manager logs until
// released: the transport being failed stays closed but registered, the
// window between a transport's death and its removal from the reuse table.
type heldDump struct {
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func newHeldDump() *heldDump {
	return &heldDump{entered: make(chan struct{}), release: make(chan struct{})}
}

// logger is a logger whose flight-recorder dump line is held.
func (h *heldDump) logger() *obs.Logger {
	return obs.NewLogger(func(format string, args ...any) {
		if strings.Contains(fmt.Sprintf(format, args...), "flight recorder") {
			h.once.Do(func() {
				close(h.entered)
				<-h.release
			})
		}
	}, obs.LevelDebug)
}

// failingWrites fails every write once broken is set.
type failingWrites struct {
	net.Conn
	broken *atomic.Bool
}

func (c *failingWrites) Write(p []byte) (int, error) {
	if c.broken.Load() {
		return 0, errors.New("write broken")
	}
	return c.Conn.Write(p)
}

// TestReopenAfterWriteFailureDialsFresh: a write that fails the transport
// is heard of by its caller before Transport.fail has taken the transport
// out of the reuse table (here the fail is held inside its flight-recorder
// dump). An open to the same address at that moment must dial a fresh
// transport on its first try, not be handed the dead one.
func TestReopenAfterWriteFailureDialsFresh(t *testing.T) {
	dump := newHeldDump()
	defer close(dump.release)
	var broken atomic.Bool
	a := newTestPeerCfg(t, "a", true, func(cfg *Config) {
		cfg.Logger = dump.logger()
		cfg.WrapData = func(c net.Conn) net.Conn { return &failingWrites{Conn: c, broken: &broken} }
	})
	b := newTestPeer(t, "b", true)
	cs, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	recvStream(t, b)

	broken.Store(true)
	go cs.Write([]byte("into a broken connection"))
	<-dump.entered
	broken.Store(false)
	dials := a.dials.Load()
	if _, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second); err != nil {
		t.Fatalf("open while the failed transport is still registered: %v", err)
	}
	if n := a.dials.Load() - dials; n != 1 {
		t.Fatalf("%d dials for the reopen, want the one fresh transport", n)
	}
	recvStream(t, b)
}

// TestManagerCloseWaitsForFailingTransport: the peer going away fails a
// transport on its own read loop, which may still be dumping its flight
// recorder into the log when the manager closes. Close must not return
// before that transport is down: a log line after it may land in a test
// that has already ended.
func TestManagerCloseWaitsForFailingTransport(t *testing.T) {
	dump := newHeldDump()
	a := newTestPeerCfg(t, "a", true, func(cfg *Config) { cfg.Logger = dump.logger() })
	b := newTestPeer(t, "b", true)
	if _, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	recvStream(t, b)

	b.mgr.Close()
	<-dump.entered
	closed := make(chan struct{})
	go func() {
		a.mgr.Close()
		close(closed)
	}()
	select {
	case <-closed:
		close(dump.release)
		t.Fatal("Close returned while a transport was still failing")
	case <-time.After(100 * time.Millisecond):
	}
	close(dump.release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned after the failing transport finished")
	}
}
