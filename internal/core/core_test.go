package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"naplet/internal/fsm"
	"naplet/internal/naming"
	"naplet/internal/obs"
	"naplet/internal/security"
	"naplet/internal/transport"
	"naplet/internal/wire"
)

// testHost is one simulated host: a controller plus the identity machinery
// an agent needs, without the full agent runtime.
type testHost struct {
	name  string
	ctrl  *Controller
	guard *security.Guard
}

// cred issues a credential for an agent "resident" on this host.
func (h *testHost) cred(agentID string) [security.CredentialSize]byte {
	return h.guard.IssueCredential(agentID)
}

func (h *testHost) loc() naming.Location {
	return naming.Location{
		Host:        h.name,
		ControlAddr: h.ctrl.ControlAddr(),
		DataAddr:    h.ctrl.DataAddr(),
	}
}

type testEnv struct {
	t     *testing.T
	svc   *naming.Service
	hosts map[string]*testHost
}

type envOption func(*Config)

func insecure() envOption { return func(c *Config) { c.Insecure = true } }
func quickOps() envOption {
	return func(c *Config) { c.OpTimeout = 2 * time.Second; c.DrainTimeout = 2 * time.Second }
}
func parkFor(d time.Duration) envOption { return func(c *Config) { c.ParkTimeout = d } }

func newEnv(t *testing.T, hostNames []string, opts ...envOption) *testEnv {
	t.Helper()
	env := &testEnv{t: t, svc: naming.NewService(), hosts: make(map[string]*testHost)}
	for _, name := range hostNames {
		guard, err := security.NewGuard(security.NewStore(security.AllowAgentAll()...))
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			HostName:     name,
			Guard:        guard,
			Locator:      env.svc,
			Logger:       obs.NewLogger(t.Logf, obs.LevelDebug),
			OpTimeout:    2 * time.Second,
			ParkTimeout:  20 * time.Second,
			DrainTimeout: 2 * time.Second,
		}
		for _, o := range opts {
			o(&cfg)
		}
		ctrl, err := NewController(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ctrl.Close() })
		env.hosts[name] = &testHost{name: name, ctrl: ctrl, guard: guard}
	}
	return env
}

// place registers an agent at a host in the location service.
func (e *testEnv) place(agentID, host string) {
	e.t.Helper()
	if err := e.svc.Register(agentID, e.hosts[host].loc()); err != nil {
		e.t.Fatal(err)
	}
}

// pair establishes a connection: client on hostC dials server agent on
// hostS, returning both endpoints.
func (e *testEnv) pair(clientAgent, hostC, serverAgent, hostS string) (*Socket, *Socket) {
	e.t.Helper()
	e.place(clientAgent, hostC)
	e.place(serverAgent, hostS)
	return e.connect(clientAgent, hostC, serverAgent, hostS)
}

// connect establishes a connection between two agents already placed.
func (e *testEnv) connect(clientAgent, hostC, serverAgent, hostS string) (*Socket, *Socket) {
	e.t.Helper()
	hc, hs := e.hosts[hostC], e.hosts[hostS]
	ss, err := hs.ctrl.ListenAs(serverAgent, hs.cred(serverAgent))
	if err != nil {
		e.t.Fatal(err)
	}
	type acceptResult struct {
		s   *Socket
		err error
	}
	acceptCh := make(chan acceptResult, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s, err := ss.Accept(ctx)
		acceptCh <- acceptResult{s, err}
	}()
	client, err := hc.ctrl.OpenAs(clientAgent, hc.cred(clientAgent), serverAgent)
	if err != nil {
		e.t.Fatal(err)
	}
	res := <-acceptCh
	if res.err != nil {
		e.t.Fatal(res.err)
	}
	return client, res.s
}

// migrate simulates the docking system moving an agent between hosts: the
// origin controller's PreDepart, the location update, the destination
// controller's PostArrive.
func (e *testEnv) migrate(agentID, from, to string, epoch uint64) {
	e.t.Helper()
	blob, err := e.hosts[from].ctrl.PreDepart(agentID)
	if err != nil {
		e.t.Fatalf("PreDepart(%s): %v", agentID, err)
	}
	if err := e.svc.Update(agentID, e.hosts[to].loc(), epoch); err != nil {
		e.t.Fatalf("location update for %s: %v", agentID, err)
	}
	if err := e.hosts[to].ctrl.PostArrive(agentID, blob); err != nil {
		e.t.Fatalf("PostArrive(%s): %v", agentID, err)
	}
}

// waitState blocks until s is in one of the wanted states, closes, or the
// timeout passes, and reports the state it ended in.
func (s *Socket) waitState(timeout time.Duration, wanted ...fsm.State) (fsm.State, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.waitStateLocked(timeout, wanted...)
	return s.m.State(), err
}

func waitEstablished(t *testing.T, sockets ...*Socket) {
	t.Helper()
	for _, s := range sockets {
		if _, err := s.waitState(15*time.Second, fsm.Established); err != nil {
			t.Fatalf("conn %s never established: %v (state %s)", s.ID(), err, s.State())
		}
	}
}

// ---- establishment and data transfer ----

func TestOpenAcceptRoundTrip(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"})
	client, server := env.pair("alice", "h1", "bob", "h2")
	defer client.Close()

	if client.State() != fsm.Established || server.State() != fsm.Established {
		t.Fatalf("states: client %s server %s", client.State(), server.State())
	}
	if client.LocalAgent() != "alice" || client.RemoteAgent() != "bob" {
		t.Fatalf("client agents: %s -> %s", client.LocalAgent(), client.RemoteAgent())
	}
	if server.LocalAgent() != "bob" || server.RemoteAgent() != "alice" {
		t.Fatalf("server agents: %s -> %s", server.LocalAgent(), server.RemoteAgent())
	}
	if client.ID() != server.ID() {
		t.Fatal("endpoint connection ids differ")
	}

	if _, err := client.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := server.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "ping" {
		t.Fatalf("server read %q", buf[:n])
	}
	if _, err := server.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	n, err = client.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "pong" {
		t.Fatalf("client read %q", buf[:n])
	}
}

func TestOpenInsecureMode(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"}, insecure())
	client, server := env.pair("a", "h1", "b", "h2")
	defer client.Close()
	if _, err := client.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if n, err := server.Read(buf); err != nil || string(buf[:n]) != "x" {
		t.Fatalf("read %q, %v", buf[:n], err)
	}
}

func TestSameHostConnection(t *testing.T) {
	env := newEnv(t, []string{"h1"})
	client, server := env.pair("a", "h1", "b", "h1")
	defer client.Close()
	if _, err := client.Write([]byte("local")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if n, _ := server.Read(buf); string(buf[:n]) != "local" {
		t.Fatalf("read %q", buf[:n])
	}
}

func TestMessageBoundaries(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"})
	client, server := env.pair("a", "h1", "b", "h2")
	defer client.Close()
	msgs := []string{"one", "two", "three"}
	for _, m := range msgs {
		if err := client.WriteMsg([]byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := server.ReadMsg()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("ReadMsg = %q, want %q", got, want)
		}
	}
}

func TestLargeTransfer(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"})
	client, server := env.pair("a", "h1", "b", "h2")
	defer client.Close()

	payload := make([]byte, 3<<20) // spans multiple frames
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	go func() {
		if _, err := client.Write(payload); err != nil {
			t.Errorf("write: %v", err)
		}
	}()
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("large transfer corrupted")
	}
}

func TestBidirectionalConcurrentTransfer(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"})
	client, server := env.pair("a", "h1", "b", "h2")
	defer client.Close()

	const per = 200
	var wg sync.WaitGroup
	send := func(s *Socket, tag byte) {
		defer wg.Done()
		for i := 0; i < per; i++ {
			if err := s.WriteMsg([]byte{tag, byte(i)}); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
	}
	recv := func(s *Socket, tag byte) {
		defer wg.Done()
		for i := 0; i < per; i++ {
			m, err := s.ReadMsg()
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			if m[0] != tag || m[1] != byte(i) {
				t.Errorf("got %v, want [%d %d]", m, tag, byte(i))
				return
			}
		}
	}
	wg.Add(4)
	go send(client, 'c')
	go recv(server, 'c')
	go send(server, 's')
	go recv(client, 's')
	wg.Wait()
}

// ---- security ----

func TestOpenDeniedWithoutPolicy(t *testing.T) {
	// A guard with no agent allow rules: default deny.
	env := &testEnv{t: t, svc: naming.NewService(), hosts: make(map[string]*testHost)}
	guard, _ := security.NewGuard(security.NewStore())
	ctrl, err := NewController(Config{HostName: "h1", Guard: guard, Locator: env.svc, Logger: obs.NewLogger(t.Logf, obs.LevelDebug)})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	env.hosts["h1"] = &testHost{name: "h1", ctrl: ctrl, guard: guard}
	env.place("b", "h1")
	_, err = ctrl.OpenAs("a", guard.IssueCredential("a"), "b")
	if !errors.Is(err, security.ErrDenied) {
		t.Fatalf("err = %v, want ErrDenied", err)
	}
}

func TestOpenDeniedWithBadCredential(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"})
	env.place("b", "h2")
	var forged [security.CredentialSize]byte
	_, err := env.hosts["h1"].ctrl.OpenAs("a", forged, "b")
	if !errors.Is(err, security.ErrAuthentication) {
		t.Fatalf("err = %v, want ErrAuthentication", err)
	}
}

func TestListenDeniedWithBadCredential(t *testing.T) {
	env := newEnv(t, []string{"h1"})
	var forged [security.CredentialSize]byte
	_, err := env.hosts["h1"].ctrl.ListenAs("b", forged)
	if !errors.Is(err, security.ErrAuthentication) {
		t.Fatalf("err = %v, want ErrAuthentication", err)
	}
}

func TestOpenToAbsentAgentFails(t *testing.T) {
	env := newEnv(t, []string{"h1"})
	h := env.hosts["h1"]
	_, err := h.ctrl.OpenAs("a", h.cred("a"), "nobody")
	if !errors.Is(err, naming.ErrNotFound) {
		t.Fatalf("err = %v, want naming.ErrNotFound", err)
	}
}

func TestOpenToNonListeningAgentFails(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"})
	env.place("b", "h2") // registered but not listening
	h := env.hosts["h1"]
	_, err := h.ctrl.OpenAs("a", h.cred("a"), "b")
	if err == nil {
		t.Fatal("open to non-listening agent succeeded")
	}
}

// ---- explicit suspend/resume (paper's application-controlled interface) ----

func TestSuspendResumeExplicit(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"})
	client, server := env.pair("a", "h1", "b", "h2")
	defer client.Close()

	if _, err := client.Write([]byte("before")); err != nil {
		t.Fatal(err)
	}
	if err := client.Suspend(); err != nil {
		t.Fatal(err)
	}
	if client.State() != fsm.Suspended {
		t.Fatalf("client state after suspend = %s", client.State())
	}
	if _, err := server.waitState(5*time.Second, fsm.Suspended); err != nil {
		t.Fatalf("server never suspended: %v", err)
	}
	if err := client.Resume(); err != nil {
		t.Fatal(err)
	}
	waitEstablished(t, client, server)

	if _, err := client.Write([]byte(" after")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len("before after"))
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "before after" {
		t.Fatalf("read %q", got)
	}
}

func TestSuspendIsIdempotent(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"})
	client, _ := env.pair("a", "h1", "b", "h2")
	defer client.Close()
	if err := client.Suspend(); err != nil {
		t.Fatal(err)
	}
	if err := client.Suspend(); err != nil {
		t.Fatalf("second suspend: %v", err)
	}
	if err := client.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := client.Resume(); err != nil {
		t.Fatalf("second resume: %v", err)
	}
}

func TestPeerInitiatedSuspendBlocksWriterTransparently(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"})
	client, server := env.pair("a", "h1", "b", "h2")
	defer client.Close()

	if err := server.Suspend(); err != nil {
		t.Fatal(err)
	}
	// The client side is suspended too; a write must block, then complete
	// after resume.
	wrote := make(chan error, 1)
	go func() {
		_, err := client.Write([]byte("delayed"))
		wrote <- err
	}()
	select {
	case err := <-wrote:
		t.Fatalf("write completed while suspended (err=%v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	if err := server.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := server.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "delayed" {
		t.Fatalf("read %q", buf[:n])
	}
}

func TestInFlightDataSurvivesSuspend(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"})
	client, server := env.pair("a", "h1", "b", "h2")
	defer client.Close()

	// Fill the pipe, then suspend before the receiver reads anything: all
	// in-flight frames must be drained into the buffer, none lost.
	const n = 500
	for i := 0; i < n; i++ {
		if err := client.WriteMsg([]byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := server.Suspend(); err != nil {
		t.Fatal(err)
	}
	if err := server.Resume(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		m, err := server.ReadMsg()
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if int(m[0])|int(m[1])<<8 != i {
			t.Fatalf("msg %d: got %v", i, m)
		}
	}
}

// ---- close ----

func TestCloseFromEstablished(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"})
	client, server := env.pair("a", "h1", "b", "h2")
	if _, err := client.Write([]byte("bye")); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if client.State() != fsm.Closed {
		t.Fatalf("client state = %s", client.State())
	}
	// The passive side delivers remaining data then EOF.
	buf := make([]byte, 8)
	n, err := server.Read(buf)
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if n > 0 && string(buf[:n]) != "bye" {
		t.Fatalf("read %q", buf[:n])
	}
	deadline := time.Now().Add(5 * time.Second)
	for server.State() != fsm.Closed {
		if time.Now().After(deadline) {
			t.Fatalf("server state = %s, want CLOSED", server.State())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := server.Read(buf); err != io.EOF {
		t.Fatalf("read after close: %v, want EOF", err)
	}
	if _, err := server.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: %v, want ErrClosed", err)
	}
}

func TestCloseFromSuspended(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"})
	client, server := env.pair("a", "h1", "b", "h2")
	if err := client.Suspend(); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for server.State() != fsm.Closed {
		if time.Now().After(deadline) {
			t.Fatalf("server state = %s, want CLOSED", server.State())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"})
	client, _ := env.pair("a", "h1", "b", "h2")
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
}

// ---- redirector security ----

func TestHandoffWithBadTokenRejected(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"})
	client, server := env.pair("a", "h1", "b", "h2")
	defer client.Close()
	server.mu.Lock()
	gen := server.gen
	server.mu.Unlock()

	// The connection awaits a legitimate handoff, as after a granted RES;
	// the forgery must not take the wait's stream.
	w := &handoffWait{state: fsm.ResAcked}
	server.mu.Lock()
	server.awaitHandoffLocked(w)
	server.mu.Unlock()

	// Forge a resume handoff for the existing connection without the
	// session key.
	hdr := &wire.HandoffHeader{
		Purpose:     wire.HandoffResume,
		ConnID:      client.ID(),
		TargetAgent: "b",
		FromAgent:   "a",
		Nonce:       999,
	}
	expectHandoffRefused(t, env.hosts["h2"].ctrl, hdr, 1)
	server.mu.Lock()
	defer server.mu.Unlock()
	if server.gen != gen || server.m.State() != fsm.Established || w.taken {
		t.Fatalf("forged handoff reached the socket: gen %d -> %d, state %s, wait taken %v", gen, server.gen, server.m.State(), w.taken)
	}
}

// TestStaleHandoffRefused: a resume handoff correctly signed, but at a nonce
// older than the RES being granted — a replay from a cleartext transport, or
// a late stream from an earlier grant — is refused, and the granter keeps
// waiting in RES_ACKED; a handoff signed after the RES is taken.
func TestStaleHandoffRefused(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"})
	client, server := env.pair("a", "h1", "b", "h2")
	defer client.Close()
	ctrl := env.hosts["h2"].ctrl
	sign := func(nonce uint64) *wire.HandoffHeader {
		hdr := &wire.HandoffHeader{Purpose: wire.HandoffResume, ConnID: client.ID(), TargetAgent: "b", FromAgent: "a", Nonce: nonce}
		hdr.Token = client.auth.Sign(hdr.SigningBytes())
		return hdr
	}
	stale := sign(1)

	if err := client.Suspend(); err != nil {
		t.Fatal(err)
	}
	if out, reply := client.send(wire.MsgResume); out != ack {
		t.Fatalf("RES: %s (%+v), want ACK", out, reply)
	}
	if st := server.State(); st != fsm.ResAcked {
		t.Fatalf("server in %s after the granted RES, want RES_ACKED", st)
	}

	// An outsider holding the stale header opens it over a transport of its
	// own: the signature verifies, but no endpoint takes it.
	mgr := transport.NewManager(transport.Config{HostName: "outsider"})
	defer mgr.Close()
	st, err := mgr.OpenStream(ctrl.DataAddr(), stale, 2*time.Second)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	st.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := st.Read(make([]byte, 1)); err == nil || !strings.Contains(err.Error(), "unclaimed") {
		t.Fatalf("stale handoff's stream read %v, want an unclaimed reset", err)
	}
	if st := server.State(); st != fsm.ResAcked || awaitingHandoff(ctrl) != 1 {
		t.Fatalf("server in %s awaiting %d handoffs after the stale one, want RES_ACKED awaiting 1", st, awaitingHandoff(ctrl))
	}

	client.mu.Lock()
	fresh := sign(client.sendNonce + 1)
	client.mu.Unlock()
	if _, err := mgr.OpenStream(ctrl.DataAddr(), fresh, 2*time.Second); err != nil {
		t.Fatalf("open: %v", err)
	}
	waitEstablished(t, server)
	if n := awaitingHandoff(ctrl); n != 0 {
		t.Fatalf("%d handoffs awaited once established, want 0", n)
	}
}

func TestHandoffForUnknownConnRejected(t *testing.T) {
	env := newEnv(t, []string{"h1"})
	id, _ := wire.NewConnID()
	hdr := &wire.HandoffHeader{Purpose: wire.HandoffConnect, ConnID: id, TargetAgent: "x", FromAgent: "y"}
	expectHandoffRefused(t, env.hosts["h1"].ctrl, hdr, 0)
	if n := env.hosts["h1"].ctrl.tab.count(); n != 0 {
		t.Fatalf("%d connections after a refused handoff, want 0", n)
	}
}

// expectHandoffRefused opens a stream carrying hdr to ctrl's redirector
// from a transport manager of the test's own — an outsider that completes
// the host-pair handshake but holds no session key. The open itself
// succeeds (it waits for no verdict); the refusal is the reset the stream
// then reads, with its reason. The transport survives it — a second forgery
// rides the same one — and the awaited handoffs are left as they were, armed
// endpoints awaiting one.
func expectHandoffRefused(t *testing.T, ctrl *Controller, hdr *wire.HandoffHeader, armed int) {
	t.Helper()
	var dials atomic.Int64
	mgr := transport.NewManager(transport.Config{
		HostName: "outsider",
		Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			dials.Add(1)
			return net.DialTimeout("tcp", addr, timeout)
		},
	})
	defer mgr.Close()
	for i := 0; i < 2; i++ {
		st, err := mgr.OpenStream(ctrl.DataAddr(), hdr, 2*time.Second)
		if err != nil {
			t.Fatalf("open: %v (a refusal must arrive as a reset, not as an open error)", err)
		}
		st.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, err = st.Read(make([]byte, 1))
		if err == nil || !strings.Contains(err.Error(), "handoff denied") {
			t.Fatalf("forged handoff's stream read %v, want a handoff-denied reset", err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("%d dials: the refusal burned the transport", n)
	}
	if n := awaitingHandoff(ctrl); n != armed {
		t.Fatalf("%d endpoints awaiting a handoff after a refused one, want %d", n, armed)
	}
}

// awaitingHandoff counts ctrl's endpoints with a handoff wait pending.
func awaitingHandoff(ctrl *Controller) int {
	n := 0
	for _, s := range ctrl.tab.all() {
		s.mu.Lock()
		if s.handoff != nil {
			n++
		}
		s.mu.Unlock()
	}
	return n
}

// A connection that does not open with the transport magic — an old
// length-prefixed handoff header, or two bytes of garbage and then silence
// — is closed on those bytes, not held until the handshake timeout, and
// leaves no goroutine behind.
func TestRedirectorClosesForeignConnectionAtOnce(t *testing.T) {
	env := newEnv(t, []string{"h1"}, func(c *Config) { c.HandshakeTimeout = time.Minute })
	addr := env.hosts["h1"].ctrl.DataAddr()
	var oldHandoff bytes.Buffer
	id, _ := wire.NewConnID()
	(&wire.HandoffHeader{Purpose: wire.HandoffConnect, ConnID: id, TargetAgent: "x", FromAgent: "y"}).Write(&oldHandoff)

	base := settledGoroutines(t, 0)
	for name, first := range map[string][]byte{"old handoff": oldHandoff.Bytes(), "garbage": {0xde, 0xad}} {
		sock, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sock.Write(first); err != nil {
			t.Fatal(err)
		}
		// The redirector's close shows up as EOF, or as a reset when it
		// closed with our bytes still unread; a deadline error means it
		// is still holding the connection.
		sock.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, err = sock.Read(make([]byte, 1))
		var ne net.Error
		if err == nil || (errors.As(err, &ne) && ne.Timeout()) {
			t.Fatalf("%s: connection still open after its first bytes (read: %v)", name, err)
		}
		sock.Close()
	}
	if after := settledGoroutines(t, base); after > base {
		t.Fatalf("goroutines grew from %d to %d after foreign connections", base, after)
	}
}

// ---- control-plane authentication ----

func TestReplayedControlMessageRejected(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"})
	client, _ := env.pair("a", "h1", "b", "h2")
	defer client.Close()

	// Build a correctly signed SUS with a stale nonce: the server conn
	// must reject it even though the tag verifies.
	m := &wire.ControlMsg{
		Type:   wire.MsgSuspend,
		ConnID: client.ID(),
		From:   "a",
		To:     "b",
		Nonce:  0, // never valid: nonces start at 1
	}
	raw := wire.SignEncoded(m.Encode(), client.auth)
	if err := func() error {
		serverConn, ok := env.hosts["h2"].ctrl.tab.byKey(client.ID(), "b")
		if !ok {
			return errors.New("server conn missing")
		}
		return serverConn.checkAuth(m, raw)
	}(); err == nil {
		t.Fatal("replayed nonce accepted")
	}
}

func TestTamperedControlMessageRejected(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"})
	client, _ := env.pair("a", "h1", "b", "h2")
	defer client.Close()
	m := &wire.ControlMsg{
		Type: wire.MsgSuspend, ConnID: client.ID(), From: "a", To: "b", Nonce: 99,
	}
	m.Tag = client.auth.Sign(m.SigningBytes())
	m.Nonce = 100 // tamper after signing
	serverConn, ok := env.hosts["h2"].ctrl.tab.byKey(client.ID(), "b")
	if !ok {
		t.Fatal("server conn missing")
	}
	if err := serverConn.checkAuth(m, m.Encode()); err == nil {
		t.Fatal("tampered message accepted")
	}
}
