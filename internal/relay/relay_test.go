package relay

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"naplet/internal/obs"
)

func tcpDial(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

func waitRegistered(t *testing.T, c *Client) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !c.Registered() {
		if time.Now().After(deadline) {
			t.Fatal("client never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// testLogger writes every level into the test's log.
func testLogger(t *testing.T) *obs.Logger { return obs.NewLogger(t.Logf, obs.LevelDebug) }

// TestSpliceBidirectional proves the full rendezvous: a registered callee
// receives a caller's leg, and bytes flow both ways through the blind pipe
// with half-close (CloseWrite) surviving the relay hop.
func TestSpliceBidirectional(t *testing.T) {
	srv, err := New("127.0.0.1:0", testLogger(t))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	accepted := make(chan net.Conn, 1)
	cli := NewClient(ClientConfig{
		RelayAddr: srv.Addr(),
		Advertise: "callee-1",
		Dial:      tcpDial,
		Handle:    func(c net.Conn) { accepted <- c },
		Logger:    testLogger(t),
	})
	defer cli.Close()
	waitRegistered(t, cli)

	caller, err := DialVia(tcpDial, srv.Addr(), "callee-1", 5*time.Second)
	if err != nil {
		t.Fatalf("DialVia: %v", err)
	}
	defer caller.Close()
	var callee net.Conn
	select {
	case callee = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("callee never received the matched leg")
	}
	defer callee.Close()

	// Caller -> callee, then a half-close; the callee must still be able
	// to answer on its own write half.
	if _, err := caller.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if cw, ok := caller.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	} else {
		t.Fatal("caller leg does not support CloseWrite")
	}
	got, err := io.ReadAll(callee)
	if err != nil || !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("callee read %q, %v; want \"hello\"", got, err)
	}
	if _, err := callee.Write([]byte("world")); err != nil {
		t.Fatal(err)
	}
	callee.Close()
	back, err := io.ReadAll(caller)
	if err != nil || !bytes.Equal(back, []byte("world")) {
		t.Fatalf("caller read %q, %v; want \"world\"", back, err)
	}
}

// TestRefusesUnknownTarget proves a CONN for an unregistered address is
// answered with ERR, surfaced as ErrRelayRefused.
func TestRefusesUnknownTarget(t *testing.T) {
	srv, err := New("127.0.0.1:0", testLogger(t))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := DialVia(tcpDial, srv.Addr(), "nobody", 2*time.Second); !errors.Is(err, ErrRelayRefused) {
		t.Fatalf("DialVia to unregistered target: got %v, want ErrRelayRefused", err)
	}
}

// TestClientReregisters proves the callee client survives its registration
// leg dying: a usurping REG replaces (and severs) the old leg, and the
// client re-registers after its backoff.
func TestClientReregisters(t *testing.T) {
	srv, err := New("127.0.0.1:0", testLogger(t))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli := NewClient(ClientConfig{
		RelayAddr:  srv.Addr(),
		Advertise:  "callee-r",
		Dial:       tcpDial,
		Handle:     func(c net.Conn) { c.Close() },
		Logger:     testLogger(t),
		RedialBase: 20 * time.Millisecond,
	})
	defer cli.Close()
	waitRegistered(t, cli)

	// Usurp the registration; the relay closes the client's old leg.
	usurper, err := tcpDial(srv.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeLine(usurper, "NR REG callee-r"); err != nil {
		t.Fatal(err)
	}
	if line, err := readLine(usurper); err != nil || line != "OK" {
		t.Fatalf("usurper REG: %q, %v", line, err)
	}

	// The client notices the dead leg and re-registers, replacing the
	// usurper in turn.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if cli.Registered() {
			// Registered again — but make sure it is the *new* leg, not a
			// stale flag: the usurper's leg must have been replaced/closed.
			usurper.SetReadDeadline(time.Now().Add(2 * time.Second))
			var b [1]byte
			if _, err := usurper.Read(b[:]); err != nil {
				break // usurper severed: the client's fresh leg won
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("client never re-registered")
		}
		time.Sleep(10 * time.Millisecond)
	}
	usurper.Close()
	if n := srv.Registrations(); n != 1 {
		t.Fatalf("registrations = %d, want 1", n)
	}
}

// TestConcurrentCalls proves independent rendezvous: several callers reach
// the same callee at once and each pipe carries its own bytes.
func TestConcurrentCalls(t *testing.T) {
	srv, err := New("127.0.0.1:0", testLogger(t))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli := NewClient(ClientConfig{
		RelayAddr: srv.Addr(),
		Advertise: "callee-c",
		Dial:      tcpDial,
		Handle: func(c net.Conn) {
			// Echo server: mirror whatever the caller sends.
			go func() {
				defer c.Close()
				io.Copy(c, c)
			}()
		},
		Logger: testLogger(t),
	})
	defer cli.Close()
	waitRegistered(t, cli)

	const callers = 8
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := DialVia(tcpDial, srv.Addr(), "callee-c", 5*time.Second)
			if err != nil {
				errs <- fmt.Errorf("caller %d: %v", i, err)
				return
			}
			defer conn.Close()
			msg := []byte(fmt.Sprintf("payload-%d", i))
			if _, err := conn.Write(msg); err != nil {
				errs <- fmt.Errorf("caller %d write: %v", i, err)
				return
			}
			got := make([]byte, len(msg))
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := io.ReadFull(conn, got); err != nil {
				errs <- fmt.Errorf("caller %d read: %v", i, err)
				return
			}
			if !bytes.Equal(got, msg) {
				errs <- fmt.Errorf("caller %d echoed %q, want %q", i, got, msg)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRelayedLegIsOpaque proves the relay sees only what the wire carries:
// the splice starts at the first payload byte (readLine consumed nothing
// beyond the control line), so a byte-exact round trip survives.
func TestRelayedLegIsOpaque(t *testing.T) {
	srv, err := New("127.0.0.1:0", testLogger(t))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	accepted := make(chan net.Conn, 1)
	cli := NewClient(ClientConfig{
		RelayAddr: srv.Addr(),
		Advertise: "callee-o",
		Dial:      tcpDial,
		Handle:    func(c net.Conn) { accepted <- c },
		Logger:    testLogger(t),
	})
	defer cli.Close()
	waitRegistered(t, cli)

	caller, err := DialVia(tcpDial, srv.Addr(), "callee-o", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer caller.Close()
	callee := <-accepted
	defer callee.Close()

	// A binary blob that embeds line breaks and the protocol's own verbs:
	// none of it may be interpreted or eaten by the relay.
	blob := []byte("NR CONN x\nOK\nDIAL y\n\x00\x01\xfe\xff-binary-tail")
	if _, err := caller.Write(blob); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(blob))
	callee.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(callee, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatalf("relay corrupted the stream: got %q want %q", got, blob)
	}
}
