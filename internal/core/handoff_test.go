package core

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"naplet/internal/fsm"
	"naplet/internal/netem"
	"naplet/internal/obs"
	"naplet/internal/wire"
)

// A data stream is opened without waiting for the peer's verdict: the ACK to
// the RES or CONNECT, given with the wait for the handoff already set, is the
// verdict, and a refusal that comes anyway is a reset of a stream already in
// use. The tests here pin both halves: what an operation costs in sequential
// one-way trips, and what becomes of a refusal wherever it lands.

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

// assertLiveIfEstablished is the invariant establishLocked's probe exists
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
// step. (Between install and step there is nothing of the opener's to hold;
// TestStreamDeathBeforeEstablished parks a connect there.) Wherever it lands,
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
		st, failing, sock := client.m.State(), client.failing, client.sock
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

// TestStreamDeathBeforeEstablished parks a connect where a stream death used
// to be lost: both ends have the data stream installed, neither is
// ESTABLISHED yet (the ID message is held back), and the stream dies. The
// pump pass that finds it dead runs to completion in CONNECT_SENT /
// CONNECT_ACKED, where there is nothing to degrade, and a dead stream raises
// no second event — so the step the ID then completes must itself notice. It
// does: the open succeeds, each end counts one failure and degrades, and
// failure resume re-establishes the connection. Without the probe in
// establishLocked both ends rest in ESTABLISHED over a dead stream and the
// first read never returns.
func TestStreamDeathBeforeEstablished(t *testing.T) {
	var holdID atomic.Bool
	holdID.Store(true)
	regs := map[string]*obs.Registry{"h1": obs.NewRegistry(), "h2": obs.NewRegistry()}
	env := newEnv(t, []string{"h1", "h2"},
		func(c *Config) { c.Metrics = regs[c.HostName] },
		onHost("h1", func(c *Config) { c.ControlDropFn = dropIDs(holdID.Load) }))
	env.place("cli", "h1")
	env.place("srv", "h2")
	h1, h2 := env.hosts["h1"], env.hosts["h2"]
	ss, err := h2.ctrl.ListenAs("srv", h2.cred("srv"))
	if err != nil {
		t.Fatal(err)
	}
	type opened struct {
		s   *Socket
		err error
	}
	openCh := make(chan opened, 1)
	go func() {
		s, err := h1.ctrl.OpenAs("cli", h1.cred("cli"), "srv")
		openCh <- opened{s, err}
	}()

	// parked waits for agent's endpoint to hold its stream short of
	// ESTABLISHED.
	parked := func(h *testHost, agent string, st fsm.State) *Socket {
		var s *Socket
		eventually(t, agent+"'s endpoint to install its stream", func() bool {
			socks := h.ctrl.AgentSockets(agent)
			if len(socks) != 1 {
				return false
			}
			s = socks[0]
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.sock != nil
		})
		if got := s.State(); got != st {
			t.Fatalf("%s's endpoint is in %s with the ID held back, want %s", agent, got, st)
		}
		return s
	}
	client := parked(h1, "cli", fsm.ConnectSent)
	server := parked(h2, "srv", fsm.ConnectAcked)

	client.KillDataSocket()
	for _, s := range []*Socket{client, server} {
		eventually(t, "the pump to have found the stream dead", func() bool {
			s.mu.Lock()
			_, terminal := s.sock.TermStatus()
			s.mu.Unlock()
			if !terminal || s.pumpReq.Load() || s.dpQueued.Load() {
				return false
			}
			s.pumpMu.Lock() // wait out a pass in flight
			s.pumpMu.Unlock()
			return true
		})
	}
	if cs, ss := client.State(), server.State(); cs != fsm.ConnectSent || ss != fsm.ConnectAcked {
		t.Fatalf("states %s / %s after the stream died, want the connect still parked", cs, ss)
	}

	holdID.Store(false) // the next retransmission of the ID gets through
	res := <-openCh
	if res.err != nil {
		t.Fatalf("OpenAs: %v", res.err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := ss.Accept(ctx); err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for host, reg := range regs {
		eventually(t, host+" to take up the stream death", func() bool {
			return reg.Counter("conn.failures").Value() == 1
		})
	}
	waitEstablished(t, client, server)
	assertLiveIfEstablished(t, client)
	assertLiveIfEstablished(t, server)
	for _, dir := range [][2]*Socket{{client, server}, {server, client}} {
		if err := dir[0].WriteMsg([]byte("after")); err != nil {
			t.Fatal(err)
		}
		if got, err := dir[1].ReadMsg(); err != nil || string(got) != "after" {
			t.Fatalf("read %q, %v", got, err)
		}
	}
}

// dropIDs is a ControlDropFn that drops every ID message while hold says so.
func dropIDs(hold func() bool) func([]byte) bool {
	return func(pkt []byte) bool {
		const rudpHeader = 12
		if len(pkt) < rudpHeader {
			return false
		}
		m, err := wire.DecodeControlMsg(pkt[rudpHeader:])
		return err == nil && m.Type == wire.MsgIDExchange && hold()
	}
}

// TestOpenRefusedHandoffLeavesNoEndpoint: the ID exchange is the verdict of a
// connect's handoff. A server whose wait for the stream ran out before it
// arrived answers the ID with REJECT, OpenAs fails synchronously, and neither
// host is left holding an endpoint; the stream, when it does arrive, is reset
// as a handoff for a connection nobody knows. The server's wait covers the ID
// too: an open whose stream lands but whose ID never does is given up at
// OpTimeout, not left half open in CONNECT_ACKED.
func TestOpenRefusedHandoffLeavesNoEndpoint(t *testing.T) {
	t.Run("stream-late", func(t *testing.T) {
		gate := &readGate{}
		env := newEnv(t, []string{"h1", "h2"},
			onHost("h2", func(c *Config) { c.OpTimeout = 250 * time.Millisecond; c.WrapData = gate.wrap }))
		env.place("cli", "h1")
		env.place("srv", "h2")
		h1, h2 := env.hosts["h1"], env.hosts["h2"]
		if _, err := h2.ctrl.ListenAs("srv", h2.cred("srv")); err != nil {
			t.Fatal(err)
		}

		gate.hold()
		start := time.Now()
		s, err := h1.ctrl.OpenAs("cli", h1.cred("cli"), "srv")
		if err == nil {
			s.Close()
			t.Fatal("OpenAs succeeded although the server never got the data stream")
		}
		t.Logf("OpenAs failed after %v: %v", time.Since(start).Round(time.Millisecond), err)
		for name, h := range env.hosts {
			if n := h.ctrl.Stats().Connections; n != 0 {
				t.Errorf("%s holds %d endpoints after a refused open, want 0", name, n)
			}
		}
		if n := awaitingHandoff(h2.ctrl); n != 0 {
			t.Errorf("%d endpoints awaiting a handoff on h2 after a refused open", n)
		}

		// The late stream is refused without harm to the transport: the next
		// open rides it.
		gate.open()
		eventually(t, "the late stream to be reset", func() bool {
			_, n := h1.ctrl.tm.Counts()
			return n == 0
		})
		client, server := env.connect("cli", "h1", "srv", "h2")
		defer client.Close()
		assertLiveIfEstablished(t, client)
		assertLiveIfEstablished(t, server)
		if n := len(h1.ctrl.TransportInfos()); n != 1 {
			t.Fatalf("%d transports on h1 after the refusal, want the one", n)
		}
	})

	t.Run("id-lost", func(t *testing.T) {
		const opTimeout = 250 * time.Millisecond
		env := newEnv(t, []string{"h1", "h2"},
			func(c *Config) { c.OpTimeout = opTimeout },
			onHost("h1", func(c *Config) { c.ControlDropFn = dropIDs(func() bool { return true }) }))
		env.place("cli", "h1")
		env.place("srv", "h2")
		h1, h2 := env.hosts["h1"], env.hosts["h2"]
		if _, err := h2.ctrl.ListenAs("srv", h2.cred("srv")); err != nil {
			t.Fatal(err)
		}

		if s, err := h1.ctrl.OpenAs("cli", h1.cred("cli"), "srv"); err == nil {
			s.Close()
			t.Fatal("OpenAs succeeded although the server never got the ID")
		}
		for deadline := time.Now().Add(4 * opTimeout); ; time.Sleep(time.Millisecond) {
			st := h2.ctrl.Stats()
			if st.Connections == 0 && h1.ctrl.Stats().Connections == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("h2 holds %v, h1 %d endpoints %v after the open failed, want none",
					st.ByState, h1.ctrl.Stats().Connections, 4*opTimeout)
			}
		}
	})
}

// TestRoundTripCensus counts what each operation costs in sequential one-way
// trips, independent of host speed: every control packet and every data-path
// write is delayed by D, so an operation's wall time over D is its trip
// count. A stream open is not waited for, so a resume is RES, ACK (2 D — with
// the MuxOpen/MuxAccept wait it was 4) and an open CONNECT, ACK, ID, ACK with
// the stream open travelling beside the ID (4 D, was 6). The control-channel
// requests per operation are pinned with them. A change that puts a wait back
// fails a named number here.
func TestRoundTripCensus(t *testing.T) {
	const (
		D     = 50 * time.Millisecond
		slack = 4 * D / 5
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

	census := func(op string, trips int, requests uint64, fn func()) time.Duration {
		t.Helper()
		before := h1.ctrl.ControlStats().RequestsSent
		start := time.Now()
		fn()
		took := time.Since(start)
		if lo, hi := time.Duration(trips)*D, time.Duration(trips)*D+slack; took < lo || took > hi {
			t.Errorf("%s took %v = %.1f D, want %d sequential one-way trips (%v..%v)",
				op, took.Round(time.Millisecond), float64(took)/float64(D), trips, lo, hi)
		}
		if got := h1.ctrl.ControlStats().RequestsSent - before; got != requests {
			t.Errorf("%s sent %d control requests, want %d", op, got, requests)
		}
		return took
	}

	var client, server *Socket
	census("OpenAs", 4, 2, func() { client, server = env.connect("cli", "h1", "srv", "h2") })
	census("Suspend", 2, 1, func() {
		if err := client.Suspend(); err != nil {
			t.Fatal(err)
		}
	})
	var resumeStart time.Time
	census("Resume", 2, 1, func() {
		resumeStart = time.Now()
		if err := client.Resume(); err != nil {
			t.Fatal(err)
		}
	})
	// A byte written right behind the resume travels right behind the
	// MuxOpen: the peer has it one trip after the resume returned.
	if _, err := client.Write([]byte{0x42}); err != nil {
		t.Fatal(err)
	}
	if n, err := server.Read(make([]byte, 1)); n != 1 || err != nil {
		t.Fatal(n, err)
	}
	if at := time.Since(resumeStart); at < 3*D || at > 3*D+slack {
		t.Errorf("a byte written after Resume was readable at the peer after %v = %.1f D, want 3 D (RES, ACK, data behind the MuxOpen)",
			at.Round(time.Millisecond), float64(at)/float64(D))
	}
	census("Close", 2, 1, func() { client.Close() })
	first.Close()
}
