package core

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingDialer installs a Config.DialData hook that counts kernel TCP
// dials, so tests can assert how many physical connections the transport
// layer actually opened.
func countingDialer(dials *atomic.Int64) envOption {
	return func(c *Config) {
		c.DialData = func(addr string, timeout time.Duration) (net.Conn, error) {
			dials.Add(1)
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
}

// TestConnectionStormSharesOneKernelDial opens many logical connections
// between one host pair concurrently and asserts they all ride a single
// kernel TCP connection: the transport manager must coalesce the storm of
// simultaneous first dials into one (singleflight), and every later open
// must reuse the warm transport.
func TestConnectionStormSharesOneKernelDial(t *testing.T) {
	const n = 16
	var dials atomic.Int64
	env := newEnv(t, []string{"h1", "h2"}, countingDialer(&dials))
	hc, hs := env.hosts["h1"], env.hosts["h2"]

	env.place("srv", "h2")
	ss, err := hs.ctrl.ListenAs("srv", hs.cred("srv"))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			s, err := ss.Accept(ctx)
			cancel()
			if err != nil {
				return
			}
			// Echo one message per accepted connection.
			go func() {
				buf := make([]byte, 64)
				n, err := s.Read(buf)
				if err != nil {
					return
				}
				s.Write(buf[:n])
			}()
		}
	}()

	var wg sync.WaitGroup
	conns := make([]*Socket, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		agent := fmt.Sprintf("c%d", i)
		env.place(agent, "h1")
		wg.Add(1)
		go func(i int, agent string) {
			defer wg.Done()
			conns[i], errs[i] = hc.ctrl.OpenAs(agent, hc.cred(agent), "srv")
		}(i, agent)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
	}

	// Every logical connection must carry data independently.
	for i, conn := range conns {
		msg := []byte(fmt.Sprintf("hello-%d", i))
		if _, err := conn.Write(msg); err != nil {
			t.Fatalf("conn %d write: %v", i, err)
		}
	}
	for i, conn := range conns {
		buf := make([]byte, 64)
		rn, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("conn %d read: %v", i, err)
		}
		if want := fmt.Sprintf("hello-%d", i); string(buf[:rn]) != want {
			t.Fatalf("conn %d echoed %q, want %q", i, buf[:rn], want)
		}
	}

	if got := dials.Load(); got != 1 {
		t.Fatalf("%d logical connections used %d kernel dials, want 1", n, got)
	}
	transports, streams := hc.ctrl.transportCounts()
	if transports != 1 {
		t.Fatalf("client holds %d transports, want 1", transports)
	}
	if streams != n {
		t.Fatalf("client transport carries %d streams, want %d", streams, n)
	}

	for _, conn := range conns {
		conn.Close()
	}
}

// TestWarmTransportSpeedsOpen reproduces the Table 1 amortisation claim:
// opening a connection over a warm shared transport must be faster than a
// cold open that pays the kernel dial and the per-host-pair key exchange.
func TestWarmTransportSpeedsOpen(t *testing.T) {
	const iters = 10
	env := newEnv(t, []string{"h1", "h2"})
	hc, hs := env.hosts["h1"], env.hosts["h2"]

	env.place("c", "h1")
	env.place("srv", "h2")
	ss, err := hs.ctrl.ListenAs("srv", hs.cred("srv"))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			s, err := ss.Accept(ctx)
			cancel()
			if err != nil {
				return
			}
			defer s.Close()
		}
	}()

	cred := hc.cred("c")
	open := func() time.Duration {
		start := time.Now()
		conn, err := hc.ctrl.OpenAs("c", cred, "srv")
		if err != nil {
			t.Fatal(err)
		}
		d := time.Since(start)
		conn.Close()
		return d
	}

	// Warm-up so both measurement loops start from the same state.
	open()

	var warm, cold time.Duration
	for i := 0; i < iters; i++ {
		warm += open()
	}
	for i := 0; i < iters; i++ {
		hc.ctrl.CloseTransports()
		cold += open()
	}

	t.Logf("warm open mean %v, cold open mean %v", warm/iters, cold/iters)
	if warm >= cold {
		t.Fatalf("warm opens (%v total) not faster than cold opens (%v total)", warm, cold)
	}
}

// TestConnectWaitsOutTransportRegistration reproduces CONNECT (UDP)
// outrunning the acceptor's transport registration: h2's WrapData hook —
// the first thing registration runs — is held until h2's CONNECT handler is
// in flight, so the handler finds no transport under the id CONNECT names.
// It must wait for the registration rather than answer with a retry:
// OpenAs never retries, so the open succeeding is the proof.
func TestConnectWaitsOutTransportRegistration(t *testing.T) {
	release := make(chan struct{})
	env := newEnv(t, []string{"h1", "h2"}, func(c *Config) {
		if c.HostName == "h2" {
			c.WrapData = func(conn net.Conn) net.Conn {
				<-release
				return conn
			}
		}
	})
	h2 := env.hosts["h2"].ctrl
	go func() {
		defer close(release)
		deadline := time.Now().Add(10 * time.Second)
		for h2.ControlStats().HandlerInvoked == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if served := h2.ControlStats().ResponsesServed; served != 0 {
			t.Errorf("CONNECT answered (%d replies) before the transport registered", served)
		}
	}()
	client, server := env.pair("a", "h1", "b", "h2")
	defer client.Close()
	if err := client.WriteMsg([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if m, err := server.ReadMsg(); err != nil || string(m) != "hello" {
		t.Fatalf("read %q, %v", m, err)
	}
}
