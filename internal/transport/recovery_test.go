package transport_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"naplet/internal/core"
	"naplet/internal/naming"
	"naplet/internal/obs"
	"naplet/internal/security"
	"naplet/internal/transport"
)

// The transport is fail-stop: a killed connection fails every stream on it,
// and the data is recovered by the NapletSocket connection above, which
// resumes by its own RES over a fresh transport and retransmits from its
// send log. The tests here hold that end-to-end promise for the breaks a
// shared transport can suffer, driving real controllers over loopback.

// connTap records the shared connections a host installs (via WrapData) so
// a test can kill them out from under the transport.
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

// killAll closes every connection the host has installed, so a kill always
// breaks whichever transport is carrying the streams.
func (ct *connTap) killAll() {
	ct.mu.Lock()
	conns := append([]net.Conn(nil), ct.conns...)
	ct.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

func (ct *connTap) count() int {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return len(ct.conns)
}

// connHost is one controller with the registry its counters land in.
type connHost struct {
	name  string
	ctrl  *core.Controller
	guard *security.Guard
	met   *obs.Registry
}

// newConnPair starts controllers "c" and "s" sharing one location service
// and opens one connection from agent cli on c to agent srv on s. tune
// adjusts each host's config before its controller starts.
func newConnPair(t *testing.T, insecure bool, tune func(host string, cfg *core.Config)) (hc, hs *connHost, client, server *core.Socket) {
	t.Helper()
	svc := naming.NewService()
	hosts := make(map[string]*connHost)
	for _, name := range []string{"c", "s"} {
		guard, err := security.NewGuard(security.NewStore(security.AllowAgentAll()...))
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.Config{
			HostName:     name,
			Guard:        guard,
			Locator:      svc,
			Insecure:     insecure,
			Logger:       obs.NewLogger(t.Logf, obs.LevelWarn),
			Metrics:      obs.NewRegistry(),
			OpTimeout:    2 * time.Second,
			ParkTimeout:  20 * time.Second,
			DrainTimeout: 2 * time.Second,
		}
		if tune != nil {
			tune(name, &cfg)
		}
		ctrl, err := core.NewController(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ctrl.Close() })
		h := &connHost{name: name, ctrl: ctrl, guard: guard, met: cfg.Metrics}
		hosts[name] = h
		agentID := map[string]string{"c": "cli", "s": "srv"}[name]
		loc := naming.Location{Host: name, ControlAddr: ctrl.ControlAddr(), DataAddr: ctrl.DataAddr()}
		if err := svc.Register(agentID, loc); err != nil {
			t.Fatal(err)
		}
	}
	hc, hs = hosts["c"], hosts["s"]
	ss, err := hs.ctrl.ListenAs("srv", hs.guard.IssueCredential("srv"))
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan *core.Socket, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s, err := ss.Accept(ctx)
		if err != nil {
			t.Errorf("accept: %v", err)
		}
		accepted <- s
	}()
	client, err = hc.ctrl.OpenAs("cli", hc.guard.IssueCredential("cli"), "srv")
	if err != nil {
		t.Fatal(err)
	}
	if server = <-accepted; server == nil {
		t.FailNow()
	}
	t.Cleanup(func() {
		client.Close()
		server.Close()
	})
	return hc, hs, client, server
}

// watchdog closes both ends if the test outlives limit, so a stalled
// recovery fails the blocked reads instead of hanging the run.
func watchdog(t *testing.T, limit time.Duration, socks ...*core.Socket) {
	timer := time.AfterFunc(limit, func() {
		for _, s := range socks {
			s.Close()
		}
	})
	t.Cleanup(func() { timer.Stop() })
}

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// recoveredEveryFailure checks, on each host, that the kills each degraded
// the connection and that every failure was matched by a recovery.
func recoveredEveryFailure(t *testing.T, kills uint64, hosts ...*connHost) {
	t.Helper()
	for _, h := range hosts {
		failures := h.met.Counter("conn.failures")
		recoveries := h.met.Counter("fault.conn_recoveries")
		eventually(t, h.name+" to recover every failure", func() bool {
			return failures.Value() >= kills && recoveries.Value() == failures.Value()
		})
	}
}

// streamAcrossKills streams a deterministic payload from client to server in
// segments, killing every shared connection the client host holds halfway
// through each of the first kills segments. A segment is written only once
// the reader has the previous one, so each kill after the first lands on
// the fresh transport the previous recovery dialed. The receiver must see
// every byte exactly once, in order, with no error, and the reverse
// direction must work afterwards.
func streamAcrossKills(t *testing.T, tap *connTap, client, server *core.Socket, kills int) {
	t.Helper()
	const segLen = 1 << 20
	segs := kills + 1
	payload := make([]byte, segs*segLen)
	for i := range payload {
		payload[i] = byte(i*131 + i>>9)
	}
	next := make(chan struct{}, segs)
	writeErr := make(chan error, 1)
	go func() {
		for k := 0; k < segs; k++ {
			if k > 0 {
				<-next
			}
			seg := payload[k*segLen : (k+1)*segLen]
			for off := 0; off < segLen; off += 8 << 10 {
				if _, err := client.Write(seg[off : off+8<<10]); err != nil {
					writeErr <- fmt.Errorf("segment %d, offset %d: %w", k, off, err)
					return
				}
			}
		}
		writeErr <- nil
	}()

	got := make([]byte, 0, len(payload))
	buf := make([]byte, 32<<10)
	for k := 0; k < segs; k++ {
		killed := k >= kills
		for end := (k + 1) * segLen; len(got) < end; {
			n, err := server.Read(buf[:min(len(buf), end-len(got))])
			got = append(got, buf[:n]...)
			if err != nil {
				t.Fatalf("server read after %d bytes: %v", len(got), err)
			}
			if !killed && len(got) >= k*segLen+segLen/2 {
				killed = true
				tap.killAll()
			}
		}
		next <- struct{}{}
	}
	if err := <-writeErr; err != nil {
		t.Fatalf("client write: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted across the kills: got %d bytes, want %d", len(got), len(payload))
	}

	if _, err := server.Write([]byte("still here")); err != nil {
		t.Fatal(err)
	}
	rb := make([]byte, 16)
	if n, err := io.ReadFull(client, rb[:len("still here")]); err != nil || string(rb[:n]) != "still here" {
		t.Fatalf("client read after recovery: %q, %v", rb[:n], err)
	}
}

// liveTransport returns the host's one connected transport.
func liveTransport(t *testing.T, h *connHost) transport.Info {
	t.Helper()
	var live []transport.Info
	for _, info := range h.ctrl.TransportInfos() {
		if info.State == "connected" {
			live = append(live, info)
		}
	}
	if len(live) != 1 {
		t.Fatalf("%s holds %d connected transports, want 1: %+v", h.name, len(live), live)
	}
	return live[0]
}

// TestStreamSurvivesConnectionKill: the shared connection under a
// NapletSocket is killed twice mid-stream. The transport fails each time;
// the connection recovers each time over a fresh one, and the application
// sees neither.
func TestStreamSurvivesConnectionKill(t *testing.T) {
	const kills = 2
	tap := &connTap{}
	hc, hs, client, server := newConnPair(t, true, func(host string, cfg *core.Config) {
		if host == "c" {
			cfg.WrapData = tap.wrap
		}
	})
	watchdog(t, 60*time.Second, client, server)
	streamAcrossKills(t, tap, client, server, kills)
	if n := tap.count(); n < kills+1 {
		t.Fatalf("only %d connections installed; recovery did not redial", n)
	}
	recoveredEveryFailure(t, kills, hc, hs)
	if got := hc.met.Counter("conn.transport_lost").Value(); got < kills {
		t.Fatalf("conn.transport_lost = %d, want >= %d: the kills must reach the connection as transport losses", got, kills)
	}
}

// TestEncryptedStreamSurvivesConnectionKill is the same over an encrypted
// transport. Each recovery runs over a fresh session — a new id from a
// fresh Diffie-Hellman exchange, negotiating the cipher again — so no
// record key outlives the connection it was agreed on.
func TestEncryptedStreamSurvivesConnectionKill(t *testing.T) {
	const kills = 2
	tap := &connTap{}
	hc, hs, client, server := newConnPair(t, false, func(host string, cfg *core.Config) {
		if host == "c" {
			cfg.WrapData = tap.wrap
		}
	})
	watchdog(t, 60*time.Second, client, server)
	before := liveTransport(t, hc)
	if before.Cipher != "aes256gcm" {
		t.Fatalf("cipher %q, want aes256gcm", before.Cipher)
	}
	streamAcrossKills(t, tap, client, server, kills)
	recoveredEveryFailure(t, kills, hc, hs)
	after := liveTransport(t, hc)
	if after.Cipher != "aes256gcm" {
		t.Fatalf("recovered over cipher %q, want aes256gcm", after.Cipher)
	}
	if after.ID == before.ID {
		t.Fatalf("recovered over session %v, the one that was killed", after.ID)
	}
}

// TestRedialBackoffConfigHonored: the transport no longer redials on its
// own, so after a kill every redial is the connection's failure resume going
// through the configured dialer. While the dialer refuses, the resume keeps
// retrying with growing gaps; once the dialer admits, the
// connection recovers and what the client wrote during the outage arrives.
func TestRedialBackoffConfigHonored(t *testing.T) {
	const outage = 1500 * time.Millisecond
	tap := &connTap{}
	var (
		mu       sync.Mutex
		attempts = map[string][]time.Time{}
		blocked  atomic.Bool
	)
	hc, hs, client, server := newConnPair(t, true, func(host string, cfg *core.Config) {
		if host == "c" {
			cfg.WrapData = tap.wrap
		}
		cfg.DialData = func(addr string, timeout time.Duration) (net.Conn, error) {
			if blocked.Load() {
				mu.Lock()
				attempts[host] = append(attempts[host], time.Now())
				mu.Unlock()
				return nil, net.ErrClosed
			}
			return net.DialTimeout("tcp", addr, timeout)
		}
	})
	watchdog(t, 60*time.Second, client, server)

	blocked.Store(true)
	tap.killAll()
	wrote := make(chan error, 1)
	go func() {
		_, err := client.Write([]byte("after outage"))
		wrote <- err
	}()
	time.Sleep(outage)
	mu.Lock()
	during := map[string][]time.Time{}
	for h, ts := range attempts {
		during[h] = append([]time.Time(nil), ts...)
	}
	mu.Unlock()
	blocked.Store(false)

	rb := make([]byte, len("after outage"))
	if _, err := io.ReadFull(server, rb); err != nil || string(rb) != "after outage" {
		t.Fatalf("post-outage read: %q, %v", rb, err)
	}
	if err := <-wrote; err != nil {
		t.Fatalf("write during the outage: %v", err)
	}
	recoveredEveryFailure(t, 1, hc, hs)

	total := 0
	for host, ts := range during {
		total += len(ts)
		t.Logf("%s: %d refused redials", host, len(ts))
		for i := 2; i < len(ts); i++ {
			prev, gap := ts[i-1].Sub(ts[i-2]), ts[i].Sub(ts[i-1])
			if gap < prev/2 {
				t.Fatalf("%s: redial gap %v after %v; the backoff must not shrink", host, gap, prev)
			}
		}
		if n := len(ts); n >= 3 {
			if first, last := ts[1].Sub(ts[0]), ts[n-1].Sub(ts[n-2]); last < 4*first {
				t.Fatalf("%s: redial gaps went from %v to %v; the backoff must grow", host, first, last)
			}
		}
	}
	if total < 3 {
		t.Fatalf("only %d refused redials in %v; the failure resume must keep retrying", total, outage)
	}
}
