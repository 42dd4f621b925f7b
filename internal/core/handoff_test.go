package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"naplet/internal/dhkx"
	"naplet/internal/fsm"
	"naplet/internal/metrics"
	"naplet/internal/netem"
	"naplet/internal/obs"
	"naplet/internal/wire"
)

// A data stream is opened without waiting for the peer's verdict. A resume's
// stream follows the ACK to its RES, given with the wait for the handoff
// already set; an open's stream is opened by the acceptor beside its ACK, and
// the opener awaits it from before its CONNECT leaves. A refusal that comes
// anyway is a reset of a stream already in use. The tests here pin what an
// operation costs in sequential one-way trips, what becomes of a refusal or
// a stream death wherever it lands, and each way an open can go.

// onHost applies opt to the named host's Config only.
func onHost(name string, opt envOption) envOption {
	return func(c *Config) {
		if c.HostName == name {
			opt(c)
		}
	}
}

// readGate holds what a host's shared transports have read off the wire
// until it opens: the host's read loops stall, and with them every stream
// open and reset addressed to it, while its control channel runs on.
type readGate struct {
	mu   sync.Mutex
	held chan struct{} // non-nil while closed
}

func (g *readGate) hold() {
	g.mu.Lock()
	g.held = make(chan struct{})
	g.mu.Unlock()
}

func (g *readGate) open() {
	g.mu.Lock()
	if g.held != nil {
		close(g.held)
		g.held = nil
	}
	g.mu.Unlock()
}

func (g *readGate) wrap(c net.Conn) net.Conn { return &gatedConn{Conn: c, g: g} }

type gatedConn struct {
	net.Conn
	g *readGate
}

// Read holds the bytes it has read, not the call: a read loop parked in Read
// when the gate closed must not let the next frames through.
func (c *gatedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.g.mu.Lock()
	held := c.g.held
	c.g.mu.Unlock()
	if held != nil {
		<-held
	}
	return n, err
}

// eventually polls cond, which must come true well inside the bound.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// assertLiveIfEstablished is the invariant establishedLocked's probe exists
// for: a connection that is ESTABLISHED and at rest holds a
// stream that is not terminal.
func assertLiveIfEstablished(t *testing.T, s *Socket) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m.State() != fsm.Established {
		return
	}
	if s.sock == nil {
		t.Fatalf("conn %s ESTABLISHED without a data stream", s.id)
	}
	if err, terminal := s.sock.TermStatus(); terminal {
		t.Fatalf("conn %s ESTABLISHED over a terminal stream (%v)", s.id, err)
	}
}

// TestRefusedHandoffRace refuses a resume's stream open after the RES was
// acked — the peer's wait ran out before the stream arrived, the one
// refusal an honest peer produces — and lands the reset at each point of the
// opener's way to ESTABLISHED: before installSocket has touched the stream,
// on the installed stream while the FSM step is under way, and after the
// step. (TestStreamDeathAtEstablishment kills an open's stream inside the
// step; TestStreamDeathBetweenInstallAndStep kills an open's or a resume's
// between install and step.) Wherever it lands,
// Resume reports no error, the connection degrades with one conn.failures,
// and its recovery re-establishes it with every message delivered once, in
// order — including one written into the refused stream. With the peer held
// unreachable, the degraded connection stays down, its stream dropped and its
// recovery retrying, until the peer is back.
func TestRefusedHandoffRace(t *testing.T) {
	for _, landing := range []string{"before-install", "during-step", "after-step"} {
		for _, peer := range []string{"reachable", "held-away"} {
			t.Run(landing+"/peer-"+peer, func(t *testing.T) {
				t.Parallel()
				testRefusedHandoff(t, landing, peer == "held-away")
			})
		}
	}
}

func testRefusedHandoff(t *testing.T, landing string, heldAway bool) {
	gate := &readGate{}
	reg := obs.NewRegistry()
	// away drops h1's RES requests: the peer is unreachable for a resume.
	var away atomic.Bool
	var lost atomic.Int64
	env := newEnv(t, []string{"h1", "h2"},
		onHost("h1", func(c *Config) {
			c.Metrics = reg
			c.ControlDropFn = func(pkt []byte) bool {
				const rudpHeader = 12
				if !away.Load() || len(pkt) < rudpHeader {
					return false
				}
				m, err := wire.DecodeControlMsg(pkt[rudpHeader:])
				if err != nil || m.Type != wire.MsgResume {
					return false
				}
				lost.Add(1)
				return true
			}
		}),
		// h2's wait for a granted resume's handoff runs out after its OpTimeout,
		// and the gate keeps the opener's stream from arriving before that.
		onHost("h2", func(c *Config) { c.OpTimeout = 250 * time.Millisecond; c.WrapData = gate.wrap }))
	client, server := env.pair("cli", "h1", "srv", "h2") // cli holds the priority: its failure resume fires at once
	defer client.Close()

	var seqs []uint64
	server.SetObserver(func(seq uint64, _ []byte, _ bool) { seqs = append(seqs, seq) })
	mustExchange := func(from, to *Socket, msg string) {
		t.Helper()
		if err := from.WriteMsg([]byte(msg)); err != nil {
			t.Fatalf("write %q: %v", msg, err)
		}
		if got, err := to.ReadMsg(); err != nil || string(got) != msg {
			t.Fatalf("read %q, %v; want %q", got, err, msg)
		}
	}
	mustExchange(client, server, "before")
	if err := client.Suspend(); err != nil {
		t.Fatal(err)
	}

	// refuse lets h2's wait for the resume run out, then lets the stream
	// open through: nothing is waiting for it, and it is reset.
	refuse := func() {
		t.Helper()
		// The RES was acked before any caller gets here, so h2 is in
		// RES_ACKED, or back in SUSPENDED already.
		if _, err := server.waitState(5*time.Second, fsm.Suspended); err != nil {
			t.Fatalf("h2's wait for the handoff never ran out: %v", err)
		}
		away.Store(heldAway)
		gate.open()
	}
	openerStreams := func() int {
		_, n := env.hosts["h1"].ctrl.tm.Counts()
		return n
	}

	// Not before h2 has finished its side of the suspend: its drain reads the
	// opener's flush marker through the gate.
	if _, err := server.waitState(5*time.Second, fsm.Suspended); err != nil {
		t.Fatal(err)
	}
	gate.hold()
	resumed := make(chan error, 1)
	switch landing {
	case "before-install":
		// installSocket starts by taking flushMu: held, the stream is open
		// and refused before the install has looked at it.
		client.flushMu.Lock()
		go func() { resumed <- client.Resume() }()
		eventually(t, "the opener's stream open", func() bool { return openerStreams() == 1 })
		refuse()
		eventually(t, "the reset to reach the opener", func() bool { return openerStreams() == 0 })
		client.flushMu.Unlock()
	case "during-step":
		// The FSM observer runs inside the step, under mu: the refusal is
		// let through only once the opener is there, and the step does not
		// finish until the reset has landed on the installed stream. The pump
		// pass the reset schedules cannot get mu before the probe that
		// follows the step.
		atStep, landed := make(chan struct{}), make(chan struct{})
		client.m.SetObserver(func(tr fsm.Transition) {
			if tr.To == fsm.Established {
				client.m.SetObserver(nil)
				close(atStep)
				<-landed
			}
		})
		go func() { resumed <- client.Resume() }()
		<-atStep
		refuse()
		// The stepping goroutine holds mu and is parked: sock is stable.
		eventually(t, "the reset to land on the installed stream", func() bool {
			_, terminal := client.sock.TermStatus()
			return terminal
		})
		close(landed)
	case "after-step":
		go func() { resumed <- client.Resume() }()
	}
	if err := <-resumed; err != nil {
		t.Fatalf("Resume over a handoff refused late: %v; a refusal after the ACK is a stream death, not an error", err)
	}
	if landing == "after-step" {
		// The opener is ESTABLISHED over a stream the peer has yet to see; what
		// it writes now goes down with that stream and must be retransmitted.
		if err := client.WriteMsg([]byte("into the refused stream")); err != nil {
			t.Fatal(err)
		}
		refuse()
	}

	eventually(t, "the refusal to degrade the opener", func() bool {
		return reg.Counter("conn.failures").Value() == 1
	})
	if heldAway {
		eventually(t, "the recovery's RES to be lost", func() bool { return lost.Load() > 0 })
		client.mu.Lock()
		st, failing, sock := client.m.State(), client.latches&latchFailing != 0, client.sock
		client.mu.Unlock()
		if st != fsm.ResSent || !failing || sock != nil {
			t.Fatalf("after the refusal, peer away: state %s, failing %v, stream held %v; want a failed connection resuming", st, failing, sock != nil)
		}
		away.Store(false)
	}
	waitEstablished(t, client, server)
	assertLiveIfEstablished(t, client)
	assertLiveIfEstablished(t, server)

	if landing == "after-step" {
		if got, err := server.ReadMsg(); err != nil || string(got) != "into the refused stream" {
			t.Fatalf("read %q, %v; the message written into the refused stream was not retransmitted", got, err)
		}
	}
	mustExchange(client, server, "after")
	mustExchange(server, client, "and back")
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("server delivery order %v: not each message once, in order", seqs)
		}
	}
	if n := reg.Counter("conn.failures").Value(); n != 1 {
		t.Fatalf("conn.failures = %d, want 1: one refusal, one degradation", n)
	}
}

// openAsync starts h's OpenAs of agent to target on its own goroutine.
func openAsync(h *testHost, agent, target string) <-chan opened {
	ch := make(chan opened, 1)
	go func() {
		s, err := h.ctrl.OpenAs(agent, h.cred(agent), target)
		ch <- opened{s, err}
	}()
	return ch
}

type opened struct {
	s   *Socket
	err error
}

// endpointIs reports whether agent's one endpoint on h is in st.
func endpointIs(h *testHost, agent string, st fsm.State) bool {
	socks := h.ctrl.AgentSockets(agent)
	return len(socks) == 1 && socks[0].State() == st
}

// exchangeBothWays writes msg each way and reads it at the other end.
func exchangeBothWays(t *testing.T, a, b *Socket, msg string) {
	t.Helper()
	for _, dir := range [][2]*Socket{{a, b}, {b, a}} {
		if err := dir[0].WriteMsg([]byte(msg)); err != nil {
			t.Fatal(err)
		}
		if got, err := dir[1].ReadMsg(); err != nil || string(got) != msg {
			t.Fatalf("read %q, %v; want %q", got, err, msg)
		}
	}
}

// acceptAsync runs one Accept on agent's server socket at h.
func acceptAsync(t *testing.T, h *testHost, agent string) <-chan opened {
	t.Helper()
	ss, err := h.ctrl.ListenAs(agent, h.cred(agent))
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan opened, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s, err := ss.Accept(ctx)
		ch <- opened{s, err}
	}()
	return ch
}

// The acceptor opens the data stream before it answers CONNECT, so the
// stream and the ACK race to the opener. Either may land first: the opener
// awaits the stream from before its CONNECT leaves and takes it in
// CONNECT_SENT, and OpenAs returns once both are in.
func TestOpenStreamAndACKInEitherOrder(t *testing.T) {
	t.Run("stream-first", func(t *testing.T) {
		// h2's ACK is held back; its stream is not.
		env := newEnv(t, []string{"h1", "h2"}, onHost("h2", func(c *Config) { c.ControlSendDelay = 200 * time.Millisecond }))
		env.place("cli", "h1")
		env.place("srv", "h2")
		h1, h2 := env.hosts["h1"], env.hosts["h2"]
		accepted := acceptAsync(t, h2, "srv")
		open := openAsync(h1, "cli", "srv")
		eventually(t, "the opener to take the stream", func() bool { return endpointIs(h1, "cli", fsm.Established) })
		select {
		case res := <-open:
			t.Fatalf("OpenAs returned (%v) before the ACK was due; the stream did not land first", res.err)
		default:
		}
		res := <-open
		if res.err != nil {
			t.Fatalf("OpenAs: %v", res.err)
		}
		defer res.s.Close()
		acc := <-accepted
		if acc.err != nil {
			t.Fatal(acc.err)
		}
		exchangeBothWays(t, res.s, acc.s, "stream first")
	})

	t.Run("ack-first", func(t *testing.T) {
		// h1's transports read nothing while the gate is held: h2's stream
		// cannot land, its ACK can.
		gate := &readGate{}
		bd := metrics.NewBreakdown()
		env := newEnv(t, []string{"h1", "h2"}, onHost("h1", func(c *Config) { c.WrapData = gate.wrap; c.OpenBreakdown = bd }))
		env.place("cli", "h1")
		env.place("srv", "h2")
		h1, h2 := env.hosts["h1"], env.hosts["h2"]
		// Warm the transport first, so the gate holds only the stream.
		warm, _ := env.connect("cli", "h1", "srv", "h2")
		warm.Close()
		handshook := bd.Get(metrics.PhaseHandshaking)
		accepted := acceptAsync(t, h2, "srv")
		gate.hold()
		open := openAsync(h1, "cli", "srv")
		eventually(t, "the ACK to reach the opener", func() bool { return bd.Get(metrics.PhaseHandshaking) > handshook })
		if !endpointIs(h1, "cli", fsm.ConnectSent) {
			t.Fatalf("opener holds %v with the ACK in and the stream held, want one CONNECT_SENT endpoint", byState(h1.ctrl))
		}
		select {
		case res := <-open:
			t.Fatalf("OpenAs returned (%v) before its stream landed", res.err)
		default:
		}
		gate.open()
		res := <-open
		if res.err != nil {
			t.Fatalf("OpenAs: %v", res.err)
		}
		defer res.s.Close()
		acc := <-accepted
		if acc.err != nil {
			t.Fatal(acc.err)
		}
		exchangeBothWays(t, res.s, acc.s, "ack first")
	})
}

// dropFirst is a ControlDropFn that drops the first outgoing reply match
// accepts, counting it in dropped.
func dropFirst(dropped *atomic.Int64, match func(*wire.ControlReply) bool) func([]byte) bool {
	return func(pkt []byte) bool {
		const rudpHeader = 12
		if len(pkt) < rudpHeader || dropped.Load() > 0 {
			return false
		}
		r, err := wire.DecodeControlReply(pkt[rudpHeader:])
		if err != nil || !match(r) {
			return false
		}
		return dropped.CompareAndSwap(0, 1)
	}
}

// A lost ACK costs a retransmission, not a second connection: the
// opener's CONNECT goes again, the acceptor's control channel replays the
// cached ACK without running the handler, and exactly one stream is opened.
func TestConnectACKLostOnce(t *testing.T) {
	var dropped atomic.Int64
	reg := obs.NewRegistry()
	env := newEnv(t, []string{"h1", "h2"}, onHost("h2", func(c *Config) {
		c.Metrics = reg
		c.ControlDropFn = dropFirst(&dropped, func(r *wire.ControlReply) bool { return r.Verdict == wire.VerdictAck })
	}))
	env.place("cli", "h1")
	env.place("srv", "h2")
	h1, h2 := env.hosts["h1"], env.hosts["h2"]
	before1, before2 := h1.ctrl.ControlStats(), h2.ctrl.ControlStats()
	client, server := env.connect("cli", "h1", "srv", "h2")
	defer client.Close()
	after1, after2 := h1.ctrl.ControlStats(), h2.ctrl.ControlStats()
	if dropped.Load() != 1 {
		t.Fatal("no ACK was dropped")
	}
	if n := after1.RequestsSent - before1.RequestsSent; n != 1 {
		t.Errorf("opener sent %d requests, want the one CONNECT", n)
	}
	if n := after1.Retransmits - before1.Retransmits; n == 0 {
		t.Error("the CONNECT was not retransmitted after its ACK was lost")
	}
	if n := after2.HandlerInvoked - before2.HandlerInvoked; n != 1 {
		t.Errorf("the CONNECT handler ran %d times, want once", n)
	}
	if n := after2.DuplicateRequests - before2.DuplicateRequests; n == 0 {
		t.Error("the retransmitted CONNECT was not answered from the reply cache")
	}
	if n := reg.Counter("conn.accepts").Value(); n != 1 {
		t.Errorf("conn.accepts = %d, want 1", n)
	}
	for name, h := range env.hosts {
		if n := h.ctrl.tab.count(); n != 1 {
			t.Errorf("%s holds %d endpoints, want 1", name, n)
		}
		if _, n := h.ctrl.tm.Counts(); n != 1 {
			t.Errorf("%s has %d streams, want the one", name, n)
		}
	}
	exchangeBothWays(t, client, server, "once")
}

// An opener that gives up before its stream lands leaves no endpoint, and
// tells the acceptor: the endpoint the acceptor already queued for Accept
// is closed within the time one failure recovery would take, and its
// consumer reads an error instead of waiting out the park window. The
// stream that lands late is refused without harm to the transport.
func TestOpenerGivesUpBeforeTheStreamLands(t *testing.T) {
	gate := &readGate{}
	env := newEnv(t, []string{"h1", "h2"},
		onHost("h1", func(c *Config) { c.OpTimeout = 250 * time.Millisecond; c.WrapData = gate.wrap }))
	env.place("cli", "h1")
	env.place("srv", "h2")
	h1, h2 := env.hosts["h1"], env.hosts["h2"]
	warm, _ := env.connect("cli", "h1", "srv", "h2")
	warm.Close()
	eventually(t, "the warm-up connection to close", func() bool { return h2.ctrl.tab.count() == 0 })

	accepted := acceptAsync(t, h2, "srv")
	gate.hold()
	if s, err := h1.ctrl.OpenAs("cli", h1.cred("cli"), "srv"); err == nil {
		s.Close()
		t.Fatal("OpenAs succeeded although its stream never landed")
	}
	gaveUp := time.Now()
	if n := h1.ctrl.tab.count(); n != 0 {
		t.Errorf("h1 holds %d endpoints after a failed open, want 0", n)
	}
	if n := awaitingHandoff(h1.ctrl); n != 0 {
		t.Errorf("%d endpoints awaiting a handoff on h1 after a failed open", n)
	}
	gate.open()
	acceptedEndsSoon(t, h2, accepted, gaveUp)

	// The late stream was refused; the next open rides the same transport.
	eventually(t, "the late stream to be reset", func() bool {
		_, n := h1.ctrl.tm.Counts()
		return n == 0
	})
	client, server := env.connect("cli", "h1", "srv", "h2")
	defer client.Close()
	exchangeBothWays(t, client, server, "after")
	if n := len(h1.ctrl.TransportInfos()); n != 1 {
		t.Fatalf("%d transports on h1 after the refusal, want the one", n)
	}
}

// acceptedEndsSoon checks what the acceptor h is left with after its opener
// gave up at gaveUp: the endpoint it queued for Accept reads an error, not a
// message, and h holds nothing, both within 2 s of the give-up.
func acceptedEndsSoon(t *testing.T, h *testHost, accepted <-chan opened, gaveUp time.Time) {
	t.Helper()
	acc := <-accepted
	if acc.err != nil {
		t.Fatalf("Accept: %v", acc.err)
	}
	read := make(chan error, 1)
	go func() {
		_, err := acc.s.ReadMsg()
		read <- err
	}()
	select {
	case err := <-read:
		if err == nil {
			t.Fatal("the accepted endpoint of a failed open delivered a message")
		}
	case <-time.After(time.Until(gaveUp.Add(2 * time.Second))):
		t.Fatal("the accepted endpoint of a failed open is still readable 2 s later")
	}
	for h.ctrl.tab.count() != 0 {
		if time.Since(gaveUp) > 2*time.Second {
			t.Fatalf("%s holds %v 2 s after the opener gave up, want nothing", h.name, byState(h.ctrl))
		}
		time.Sleep(time.Millisecond)
	}
}

// An opener whose CONNECT gets no ACK at all gives up at its deadline,
// although the acceptor granted it: it holds an endpoint queued for Accept,
// its stream already on the way. The opener's give-up closes that endpoint
// too, and the next open, its ACK let through, succeeds.
func TestOpenerGivesUpWhenEveryACKIsLost(t *testing.T) {
	var dropAcks atomic.Bool
	env := newEnv(t, []string{"h1", "h2"},
		onHost("h1", func(c *Config) { c.OpTimeout = 250 * time.Millisecond }),
		onHost("h2", func(c *Config) {
			c.ControlDropFn = func(pkt []byte) bool {
				const rudpHeader = 12
				if !dropAcks.Load() || len(pkt) < rudpHeader {
					return false
				}
				r, err := wire.DecodeControlReply(pkt[rudpHeader:])
				return err == nil && r.Verdict == wire.VerdictAck
			}
		}))
	env.place("cli", "h1")
	env.place("srv", "h2")
	h1, h2 := env.hosts["h1"], env.hosts["h2"]
	warm, _ := env.connect("cli", "h1", "srv", "h2")
	warm.Close()
	eventually(t, "the warm-up connection to close", func() bool { return h2.ctrl.tab.count() == 0 })

	accepted := acceptAsync(t, h2, "srv")
	dropAcks.Store(true)
	if s, err := h1.ctrl.OpenAs("cli", h1.cred("cli"), "srv"); err == nil {
		s.Close()
		t.Fatal("OpenAs succeeded although no ACK arrived")
	}
	gaveUp := time.Now()
	if n := h1.ctrl.tab.count(); n != 0 {
		t.Errorf("h1 holds %d endpoints after a failed open, want 0", n)
	}
	acceptedEndsSoon(t, h2, accepted, gaveUp)

	dropAcks.Store(false)
	client, server := env.connect("cli", "h1", "srv", "h2")
	defer client.Close()
	exchangeBothWays(t, client, server, "after")
}

// killAt is a Logger sink that tears down the host's transports (through
// *ctrl, set once the host exists) when the first FSM line for edge is
// written — from inside the step, under the endpoint's mu, so the stream
// the step stands on is dead before the step ends.
func killAt(t *testing.T, edge string, ctrl **Controller, fired *atomic.Bool) *obs.Logger {
	return obs.NewLogger(func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		if strings.Contains(line, "--["+edge+"]-->") && fired.CompareAndSwap(false, true) {
			(*ctrl).CloseTransports()
		}
		t.Log(line)
	}, obs.LevelDebug)
}

// A stream that dies on either side before that side is ESTABLISHED ends in
// a failed open or a failed generation, never in ESTABLISHED over a
// terminal stream. The stream is killed at each step of establishment: the
// acceptor's CONNECT_ACKED (before its stream is open: the named transport
// is gone, so the answer is REJECT retry with no endpoint left), its
// recv:ID, and the opener's recv:ACK+ID.
func TestStreamDeathAtEstablishment(t *testing.T) {
	for _, c := range []struct{ name, host, edge string }{
		{"acceptor-transport-gone", "h2", "recv:CONNECT"},
		{"acceptor-established", "h2", "recv:ID"},
		{"opener-established", "h1", "recv:ACK+ID"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var killer *Controller
			var fired atomic.Bool
			regs := map[string]*obs.Registry{"h1": obs.NewRegistry(), "h2": obs.NewRegistry()}
			env := newEnv(t, []string{"h1", "h2"},
				// An acceptor whose stream died before the opener gave up is in
				// its recovery when the opener's CLS comes, and it chases the
				// connection for the park window: shorten that.
				func(cfg *Config) { cfg.Metrics = regs[cfg.HostName]; cfg.ParkTimeout = 3 * time.Second },
				onHost(c.host, func(cfg *Config) { cfg.Logger = killAt(t, c.edge, &killer, &fired) }))
			env.place("cli", "h1")
			env.place("srv", "h2")
			h1, h2 := env.hosts["h1"], env.hosts["h2"]
			killer = env.hosts[c.host].ctrl
			accepted := acceptAsync(t, h2, "srv")
			client, err := h1.ctrl.OpenAs("cli", h1.cred("cli"), "srv")
			if !fired.Load() {
				t.Fatalf("the open never stepped %s on %s", c.edge, c.host)
			}
			if c.name == "acceptor-transport-gone" {
				if !errors.Is(err, errTargetNotReady) {
					t.Fatalf("OpenAs over a transport gone at CONNECT_ACKED: %v, want a REJECT retry", err)
				}
			}
			if err != nil {
				// A failed open: neither host keeps an endpoint.
				t.Logf("failed open: %v", err)
				eventually(t, "both hosts to drop the failed open", func() bool {
					return h1.ctrl.tab.count() == 0 && h2.ctrl.tab.count() == 0
				})
				return
			}
			defer client.Close()
			acc := <-accepted
			if acc.err != nil {
				t.Fatal(acc.err)
			}
			// A failed generation: the killed side degraded and recovered.
			eventually(t, c.host+" to take up the stream death", func() bool {
				return regs[c.host].Counter("conn.failures").Value() >= 1
			})
			waitEstablished(t, client, acc.s)
			assertLiveIfEstablished(t, client)
			assertLiveIfEstablished(t, acc.s)
			exchangeBothWays(t, client, acc.s, "after")
		})
	}
}

// A stream can also die after its endpoint has installed it, with the pump
// watching it, but before the endpoint steps into ESTABLISHED: the pump
// then meets the death in CONNECT_ACKED, CONNECT_SENT or RES_SENT, where
// readerExit has nothing to degrade, and nothing raises it again. The
// step's own probe (establishedLocked) is what fails that generation. The
// stream dies in that window (Controller.afterInstall) on an open's
// acceptor and opener and on a resume's requester, and the death is taken
// in by a pump pass before the step; the peer's mux reads are held
// meanwhile, so it does not notice the loss. The side that lost its stream
// must not rest in ESTABLISHED over it and must have counted the failure;
// once the peer reads again the open ends failed or recovered, and the
// resume recovered.
func TestStreamDeathBetweenInstallAndStep(t *testing.T) {
	for _, c := range []struct {
		name, host, peer string
		before           fsm.State
	}{
		{"acceptor", "h2", "h1", fsm.ConnectAcked},
		{"opener", "h1", "h2", fsm.ConnectSent},
		{"resumer", "h1", "h2", fsm.ResSent},
	} {
		t.Run(c.name, func(t *testing.T) {
			gate := &readGate{}
			regs := map[string]*obs.Registry{"h1": obs.NewRegistry(), "h2": obs.NewRegistry()}
			env := newEnv(t, []string{"h1", "h2"},
				func(cfg *Config) { cfg.Metrics = regs[cfg.HostName]; cfg.ParkTimeout = 3 * time.Second },
				onHost(c.peer, func(cfg *Config) { cfg.WrapData = gate.wrap }))
			env.place("cli", "h1")
			env.place("srv", "h2")
			h1, h2 := env.hosts["h1"], env.hosts["h2"]
			client, server := env.connect("cli", "h1", "srv", "h2")
			if c.name == "resumer" {
				if err := client.Suspend(); err != nil {
					t.Fatal(err)
				}
				if _, err := server.waitState(5*time.Second, fsm.Suspended); err != nil {
					t.Fatal(err)
				}
			} else {
				client.Close()
				eventually(t, "the warm-up connection to close", func() bool {
					return h1.ctrl.tab.count() == 0 && h2.ctrl.tab.count() == 0
				})
			}

			killer := env.hosts[c.host].ctrl
			killed := make(chan *Socket, 1)
			var fired atomic.Bool
			hook := func(s *Socket) {
				if !fired.CompareAndSwap(false, true) {
					return
				}
				killer.CloseTransports()
				// The stream's death has kicked the pump; let its pass end.
				for s.pumpReq.Load() || s.pumpRun.Load() {
					time.Sleep(time.Millisecond)
				}
				killed <- s
			}
			killer.afterInstall.Store(&hook)
			gate.hold()
			var done, accepted <-chan opened
			if c.name == "resumer" {
				resumed, acc := make(chan opened, 1), make(chan opened, 1)
				go func() { resumed <- opened{client, client.Resume()} }()
				acc <- opened{server, nil}
				done, accepted = resumed, acc
			} else {
				accepted = acceptAsync(t, h2, "srv")
				done = openAsync(h1, "cli", "srv")
			}

			var s *Socket
			select {
			case s = <-killed:
			case <-time.After(5 * time.Second):
				gate.open()
				t.Fatalf("no stream was installed on %s", c.host)
			}
			eventually(t, "the step after the install", func() bool { return s.State() != c.before })
			// The killed side may have recovered onto a new stream already.
			assertLiveIfEstablished(t, s)
			eventually(t, c.host+" to count the stream death", func() bool {
				return regs[c.host].Counter("conn.failures").Value() >= 1
			})
			gate.open()

			res := <-done
			if res.err != nil && c.name != "resumer" {
				t.Logf("failed open: %v", res.err)
				eventually(t, "both hosts to drop the failed open", func() bool {
					return h1.ctrl.tab.count() == 0 && h2.ctrl.tab.count() == 0
				})
				return
			}
			if res.err != nil {
				t.Fatalf("Resume: %v", res.err)
			}
			defer res.s.Close()
			acc := <-accepted
			if acc.err != nil {
				t.Fatal(acc.err)
			}
			waitEstablished(t, res.s, acc.s)
			assertLiveIfEstablished(t, res.s)
			assertLiveIfEstablished(t, acc.s)
			exchangeBothWays(t, res.s, acc.s, "after")
		})
	}
}

// A cold open after the opener's transports were torn down goes on the
// transport CONNECT names: the acceptor, which has not yet noticed the old
// transport die (its reads are held), must not open the stream on that one,
// found by the opener's address, or the open waits out its timeout.
func TestColdOpenUsesTheNamedTransport(t *testing.T) {
	gate := &readGate{}
	env := newEnv(t, []string{"h1", "h2"}, onHost("h2", func(c *Config) { c.WrapData = gate.wrap }))
	env.place("cli", "h1")
	env.place("srv", "h2")
	h1, h2 := env.hosts["h1"], env.hosts["h2"]
	warm, _ := env.connect("cli", "h1", "srv", "h2")
	stale := warm.Info().Transport
	warm.Close()
	eventually(t, "the warm-up connection to close", func() bool { return h2.ctrl.tab.count() == 0 })
	gate.hold()
	h1.ctrl.CloseTransports()
	if n, _ := h2.ctrl.tm.Counts(); n != 1 {
		t.Fatalf("h2 holds %d transports, want the stale one it has not seen die", n)
	}
	start := time.Now()
	accepted := acceptAsync(t, h2, "srv")
	open := openAsync(h1, "cli", "srv")
	var res opened
	select {
	case res = <-open:
	case <-time.After(time.Second):
		gate.open()
		t.Fatal("the cold open is still waiting after 1 s: its stream went on a stale transport")
	}
	if res.err != nil {
		gate.open()
		t.Fatalf("OpenAs: %v", res.err)
	}
	defer res.s.Close()
	t.Logf("cold open took %v", time.Since(start).Round(time.Millisecond))
	if tr := res.s.Info().Transport; tr == "" || tr == stale {
		t.Errorf("the stream rides transport %q, the stale one is %s", tr, stale)
	}
	gate.open()
	acc := <-accepted
	if acc.err != nil {
		t.Fatal(acc.err)
	}
	exchangeBothWays(t, res.s, acc.s, "cold")
}

// The ID message (type 2) is retired: a peer that sends one, even signed
// for a live connection, gets one unsigned REJECT and changes nothing.
func TestRetiredIDMessageRefused(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"})
	client, server := env.pair("cli", "h1", "srv", "h2")
	defer client.Close()
	h1, h2 := env.hosts["h1"].ctrl, env.hosts["h2"].ctrl
	server.mu.Lock()
	nonce := server.lastPeerNonce
	server.mu.Unlock()
	m := &wire.ControlMsg{Type: 2, ConnID: client.ID(), From: "cli", To: "srv", Nonce: nonce + 1}
	before := h2.ControlStats()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	raw, err := h1.ep.Request(ctx, h2.ControlAddr(), wire.SignEncoded(m.Encode(), client.auth))
	if err != nil {
		t.Fatal(err)
	}
	r, err := wire.DecodeControlReply(raw)
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != wire.VerdictReject || r.Tag != [wire.TagSize]byte{} {
		t.Fatalf("type 2 answered %s (tag %x), want an unsigned REJECT", r.Verdict, r.Tag[:4])
	}
	if n := h2.ControlStats().ResponsesServed - before.ResponsesServed; n != 1 {
		t.Errorf("%d replies to one type-2 message, want 1", n)
	}
	server.mu.Lock()
	st, got := server.m.State(), server.lastPeerNonce
	server.mu.Unlock()
	if st != fsm.Established || got != nonce {
		t.Fatalf("after a type-2 message: %s, peer nonce %d (was %d); want nothing changed", st, got, nonce)
	}
	exchangeBothWays(t, client, server, "unchanged")
}

// CONNECT names its transport by an id that travels in the clear; what
// proves the sender is that transport's peer host is the tag under the key
// derived from the transport's secret. A CONNECT with no tag, or with one
// under any other key, naming the live transport gets one unsigned REJECT:
// no endpoint, no stream, nothing to Accept.
func TestForgedConnectOpensNothing(t *testing.T) {
	reg := obs.NewRegistry()
	env := newEnv(t, []string{"h1", "h2"}, onHost("h2", func(c *Config) { c.Metrics = reg }))
	client, server := env.pair("cli", "h1", "srv", "h2")
	defer client.Close()
	h1, h2 := env.hosts["h1"].ctrl, env.hosts["h2"].ctrl
	tr, err := h1.tm.Transport(h2.DataAddr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := h2.ListenAs("srv", env.hosts["h2"].cred("srv"))
	if err != nil {
		t.Fatal(err)
	}
	trID := tr.ID()
	wrongKey, err := dhkx.NewAuthenticator(dhkx.DeriveSessionKey([]byte("not the transport secret"), trID[:]))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		sign func(b []byte) []byte
	}{
		{"unsigned", func(b []byte) []byte { return b }},
		{"wrong-key", func(b []byte) []byte { return wire.SignEncoded(b, wrongKey) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			id, err := wire.NewConnID()
			if err != nil {
				t.Fatal(err)
			}
			m := &wire.ControlMsg{
				Type: wire.MsgConnect, ConnID: id, From: "mallory", To: "srv", Nonce: 1,
				ControlAddr: h1.ControlAddr(), DataAddr: h1.DataAddr(), TransportID: trID,
			}
			before := reg.Counter(`control.rejected{reason="unauthenticated"}`).Value()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			raw, err := h1.ep.Request(ctx, h2.ControlAddr(), c.sign(m.Encode()))
			if err != nil {
				t.Fatal(err)
			}
			r, err := wire.DecodeControlReply(raw)
			if err != nil {
				t.Fatal(err)
			}
			if r.Verdict != wire.VerdictReject || r.Code != wire.RejectOther || r.Tag != [wire.TagSize]byte{} {
				t.Fatalf("forged CONNECT answered %s/%v (tag %x), want an unsigned REJECT other", r.Verdict, r.Code, r.Tag[:4])
			}
			if n := reg.Counter(`control.rejected{reason="unauthenticated"}`).Value() - before; n != 1 {
				t.Errorf("unauthenticated rejections rose by %d, want 1", n)
			}
			if _, ok := h2.tab.byKey(id, "srv"); ok {
				t.Error("the forged CONNECT left an endpoint on h2")
			}
			for name, h := range map[string]*Controller{"h1": h1, "h2": h2} {
				if n := h.tab.count(); n != 1 {
					t.Errorf("%s holds %d endpoints, want the one real connection", name, n)
				}
				if n, streams := h.tm.Counts(); n != 1 || streams != 1 {
					t.Errorf("%s has %d transports and %d streams, want 1 and the real connection's 1", name, n, streams)
				}
			}
			actx, acancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer acancel()
			if s, err := ss.Accept(actx); err == nil {
				t.Fatalf("Accept returned %s from a forged CONNECT", s.ID())
			}
		})
	}
	exchangeBothWays(t, client, server, "unharmed")
}

// TestRoundTripCensus counts what each operation costs in sequential one-way
// trips, independent of host speed: every control packet and every data-path
// write is delayed by D, so an operation's wall time over D is its trip
// count. A stream open is not waited for, so a resume is RES, ACK (2 D — with
// the MuxOpen/MuxAccept wait it was 4), and an open is CONNECT, ACK with the
// acceptor's stream open travelling beside the ACK (2 D; with the ID message
// it was 4). The control-channel requests per operation are pinned with
// them. Each operation runs three times: every run must take at least its
// trips and send exactly its requests, and the fastest must come within
// slack of the trips, so a loaded host slows a run without failing it while
// a change that puts a wait back still fails a named number here.
func TestRoundTripCensus(t *testing.T) {
	const (
		D     = 50 * time.Millisecond
		slack = 4 * D / 5
		runs  = 3
	)
	env := newEnv(t, []string{"h1", "h2"}, func(c *Config) {
		c.ControlSendDelay = D
		// The transport handshake runs on the bare connection; every mux
		// frame after it pays D.
		c.WrapData = func(conn net.Conn) net.Conn { return netem.Delay(conn, D) }
	})
	// The first connection pays the cold transport; the census is of warm
	// operations.
	first, _ := env.pair("cli", "h1", "srv", "h2")
	h1 := env.hosts["h1"]

	trips := map[string]int{"OpenAs": 2, "Suspend": 2, "Resume": 2, "byte after Resume": 3, "Close": 2}
	order := []string{"OpenAs", "Suspend", "Resume", "byte after Resume", "Close"}
	fastest := make(map[string]time.Duration)
	// took records one run of op: never under its trips, and the fastest kept.
	took := func(op string, d time.Duration) {
		t.Helper()
		if lo := time.Duration(trips[op]) * D; d < lo {
			t.Errorf("%s took %v = %.1f D, want at least %d sequential one-way trips",
				op, d.Round(time.Millisecond), float64(d)/float64(D), trips[op])
		}
		if f, seen := fastest[op]; !seen || d < f {
			fastest[op] = d
		}
	}
	// census runs op once, pinning the control requests h1 sends for it.
	census := func(op string, requests uint64, fn func()) {
		t.Helper()
		before := h1.ctrl.ControlStats().RequestsSent
		start := time.Now()
		fn()
		took(op, time.Since(start))
		if got := h1.ctrl.ControlStats().RequestsSent - before; got != requests {
			t.Errorf("%s sent %d control requests, want %d", op, got, requests)
		}
	}

	for range runs {
		var client, server *Socket
		census("OpenAs", 1, func() { client, server = env.connect("cli", "h1", "srv", "h2") })
		census("Suspend", 1, func() {
			if err := client.Suspend(); err != nil {
				t.Fatal(err)
			}
		})
		resumeStart := time.Now()
		census("Resume", 1, func() {
			if err := client.Resume(); err != nil {
				t.Fatal(err)
			}
		})
		// A byte written right behind the resume travels right behind the
		// MuxOpen: the peer has it one trip after the resume returned (RES,
		// ACK, data behind the MuxOpen).
		if _, err := client.Write([]byte{0x42}); err != nil {
			t.Fatal(err)
		}
		if n, err := server.Read(make([]byte, 1)); n != 1 || err != nil {
			t.Fatal(n, err)
		}
		took("byte after Resume", time.Since(resumeStart))
		census("Close", 1, func() { client.Close() })
	}
	for _, op := range order {
		t.Logf("%s: %.2f D at the fastest of %d runs", op, float64(fastest[op])/float64(D), runs)
		if f, hi := fastest[op], time.Duration(trips[op])*D+slack; f > hi {
			t.Errorf("%s took %v = %.1f D at the fastest of %d runs, want %d sequential one-way trips (at most %v)",
				op, f.Round(time.Millisecond), float64(f)/float64(D), runs, trips[op], hi)
		}
	}
	first.Close()
}
