package transport

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"naplet/internal/netem"
	"naplet/internal/obs"
	"naplet/internal/relay"
)

// waitRelayRegistered polls until the callee's registration leg is live.
func waitRelayRegistered(t *testing.T, c *relay.Client) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !c.Registered() {
		if time.Now().After(deadline) {
			t.Fatal("relay client never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRelayFallbackThroughNAT: host a sits behind a default-deny NAT that
// admits only the relay, so its direct dial to b fails and the manager
// falls back to the rendezvous; both ends mark the transport relayed, and
// several credit windows cross it byte-exact in both directions. (A relayed
// transport killed mid-stream is recovered by the connection above it:
// core's TestMigrationSustainedThroughRelayNAT.)
func TestRelayFallbackThroughNAT(t *testing.T) {
	rs, err := relay.New("127.0.0.1:0", obs.NewLogger(t.Logf, obs.LevelDebug))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	met := obs.NewRegistry()
	b := newTestPeer(t, "b", true)

	nat := netem.NewNAT()
	nat.Allow(rs.Addr())
	a := newTestPeerCfg(t, "a", true, func(cfg *Config) {
		cfg.RelayAddr = rs.Addr()
		cfg.Metrics = met
		cfg.Dial = nat.WrapDial(func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		})
	})

	// b cannot be dialed by a, so it holds a registration leg open with the
	// relay and treats matched call-ins as relayed accepts.
	rc := relay.NewClient(relay.ClientConfig{
		RelayAddr: rs.Addr(),
		Advertise: b.addr(),
		Handle:    func(c net.Conn) { b.mgr.HandleRelayedConn(c) },
		Logger:    obs.NewLogger(t.Logf, obs.LevelDebug),
	})
	defer rc.Close()
	waitRelayRegistered(t, rc)

	cs, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second)
	if err != nil {
		t.Fatalf("OpenStream through NAT: %v", err)
	}
	ss := recvStream(t, b)

	if got := met.Counter("transport.relay_dials").Value(); got < 1 {
		t.Fatalf("transport.relay_dials = %d, want >= 1", got)
	}
	for _, peer := range []*testPeer{a, b} {
		infos := peer.mgr.Infos()
		if len(infos) != 1 || !infos[0].Relayed {
			t.Fatalf("peer %s: transport not marked relayed: %+v", peer.mgr.cfg.HostName, infos)
		}
	}

	// A deterministic payload of several credit windows.
	const total = 4 << 20
	payload := make([]byte, total)
	for i := range payload {
		payload[i] = byte(i*31 + i>>7)
	}
	writeErr := make(chan error, 1)
	go func() {
		_, err := cs.Write(payload)
		if err == nil {
			err = cs.CloseWrite()
		}
		writeErr <- err
	}()
	got, err := io.ReadAll(ss)
	if err != nil {
		t.Fatalf("server read after %d bytes: %v", len(got), err)
	}
	if err := <-writeErr; err != nil {
		t.Fatalf("client write: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted over the relay: got %d bytes, want %d", len(got), total)
	}
	if _, err := ss.Write([]byte("over the relay")); err != nil {
		t.Fatal(err)
	}
	rb := make([]byte, 32)
	n, err := cs.Read(rb)
	if err != nil || string(rb[:n]) != "over the relay" {
		t.Fatalf("client read over the relay: %q, %v", rb[:n], err)
	}
}

// TestKeepaliveAdaptsToWANRTT pins the false-positive fix: a 300ms-RTT path
// with jitter, a 50ms keepalive interval, and a configured 150ms timeout —
// shorter than one round trip. The RTT-adaptive timeout must stretch past
// the measured path delay, so an idle-but-healthy WAN session is never
// declared half-open.
func TestKeepaliveAdaptsToWANRTT(t *testing.T) {
	met := obs.NewRegistry()
	fa := netem.NewFaults(1)
	fa.SetDelay(netem.Up, 150*time.Millisecond, 10*time.Millisecond)
	fb := netem.NewFaults(2)
	fb.SetDelay(netem.Up, 150*time.Millisecond, 10*time.Millisecond)

	// The dialer's half of the path delay is installed at dial time, so the
	// handshake itself crosses the slow path and seeds the RTT estimator —
	// exactly what a real WAN dial looks like. The acceptor's half wraps its
	// end post-handshake (WrapData), delaying pongs.
	a := newTestPeerCfg(t, "a", true, func(cfg *Config) {
		cfg.KeepaliveInterval = 50 * time.Millisecond
		cfg.KeepaliveTimeout = 150 * time.Millisecond
		cfg.Metrics = met
		cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			conn, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				return nil, err
			}
			return fa.Wrap(conn, netem.Up), nil
		}
	})
	b := newTestPeerCfg(t, "b", true, func(cfg *Config) {
		cfg.KeepaliveInterval = 50 * time.Millisecond
		cfg.KeepaliveTimeout = 150 * time.Millisecond
		cfg.WrapData = func(c net.Conn) net.Conn { return fb.Wrap(c, netem.Up) }
	})

	cs, err := a.mgr.OpenStream(b.addr(), testHeader(t), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ss := recvStream(t, b)
	if _, err := cs.Write([]byte("warmup")); err != nil {
		t.Fatal(err)
	}
	wb := make([]byte, 16)
	if _, err := ss.Read(wb); err != nil {
		t.Fatal(err)
	}

	// Sit idle for many keepalive intervals: only ping/pong traffic flows,
	// each taking a full 300ms round trip.
	time.Sleep(2 * time.Second)

	if got := met.Counter("transport.keepalive_timeouts").Value(); got != 0 {
		t.Fatalf("transport.keepalive_timeouts = %d on a healthy 300ms path, want 0", got)
	}
	for _, peer := range []*testPeer{a, b} {
		for _, in := range peer.mgr.Infos() {
			if n := in.EventCounts["keepalive-timeout"]; n != 0 {
				t.Fatalf("peer %s recorded %d keepalive-timeout events", peer.mgr.cfg.HostName, n)
			}
			if n := in.EventCounts["lost"]; n != 0 {
				t.Fatalf("peer %s transport lost %d times on a healthy path", peer.mgr.cfg.HostName, n)
			}
			if in.State != "connected" {
				t.Fatalf("peer %s transport state %q, want connected", peer.mgr.cfg.HostName, in.State)
			}
		}
	}

	// The estimator must have converged near the real path RTT, and the
	// exported gauge mirrors it.
	if rtt := a.mgr.MaxRTT(); rtt < 100*time.Millisecond || rtt > 900*time.Millisecond {
		t.Fatalf("dialer MaxRTT = %v, want ~300ms", rtt)
	}
	snap := met.Snapshot()
	if g, ok := snap.Gauges["transport.rtt_ms"]; !ok || g < 100 {
		t.Fatalf("transport.rtt_ms gauge = %v (present=%t), want >= 100", g, ok)
	}

	// And the path still carries data.
	if _, err := cs.Write([]byte("still alive")); err != nil {
		t.Fatal(err)
	}
	rb := make([]byte, 16)
	cs.SetReadDeadline(time.Now().Add(5 * time.Second))
	ss.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := ss.Read(rb)
	if err != nil || string(rb[:n]) != "still alive" {
		t.Fatalf("post-idle read: %q, %v", rb[:n], err)
	}
}
