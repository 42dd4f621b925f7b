package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"naplet/internal/fsm"
	"naplet/internal/journal"
	"naplet/internal/naming"
	"naplet/internal/obs"
	"naplet/internal/security"
)

// newFaultHost builds one controller outside the shared newEnv harness, so
// fault-injection tests can give each host its own journal, metrics
// registry, and control-channel drop hook.
func newFaultHost(t *testing.T, name string, svc *naming.Service, mutate func(*Config)) *testHost {
	t.Helper()
	guard, err := security.NewGuard(security.NewStore(security.AllowAgentAll()...))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		HostName:     name,
		Guard:        guard,
		Locator:      svc,
		Logger:       obs.NewLogger(t.Logf, obs.LevelDebug),
		OpTimeout:    2 * time.Second,
		ParkTimeout:  20 * time.Second,
		DrainTimeout: 2 * time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	ctrl, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctrl.Close() })
	return &testHost{name: name, ctrl: ctrl, guard: guard}
}

// faultPair opens a connection between agents resident on two fault hosts.
func faultPair(t *testing.T, svc *naming.Service, hc, hs *testHost, clientAgent, serverAgent string) (*Socket, *Socket) {
	t.Helper()
	if err := svc.Register(clientAgent, hc.loc()); err != nil {
		t.Fatal(err)
	}
	if err := svc.Register(serverAgent, hs.loc()); err != nil {
		t.Fatal(err)
	}
	ss, err := hs.ctrl.ListenAs(serverAgent, hs.cred(serverAgent))
	if err != nil {
		t.Fatal(err)
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
		t.Fatal(err)
	}
	res := <-acceptCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	return client, res.s
}

// counterLog records, in delivery order, the 8-byte big-endian counters a
// connection delivers.
type counterLog struct {
	mu  sync.Mutex
	got []uint64
}

// recordInto installs a delivery observer feeding the log.
func recordInto(rec *counterLog, s *Socket) {
	s.SetObserver(func(_ uint64, payload []byte, _ bool) {
		if len(payload) < 8 {
			return
		}
		rec.mu.Lock()
		rec.got = append(rec.got, binary.BigEndian.Uint64(payload))
		rec.mu.Unlock()
	})
}

// Events returns a copy of the delivered counters.
func (l *counterLog) Events() []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]uint64(nil), l.got...)
}

// Render prints the delivered counters for a failure message.
func (l *counterLog) Render() string { return fmt.Sprint(l.Events()) }

// VerifyExactlyOnceInOrder checks that every counter from the first to the
// last delivered arrived exactly once, in increasing order.
func (l *counterLog) VerifyExactlyOnceInOrder() error {
	got := l.Events()
	for i := 1; i < len(got); i++ {
		if got[i] != got[i-1]+1 {
			return fmt.Errorf("counter %d followed %d (out of order, gap, or duplicate)", got[i], got[i-1])
		}
	}
	return nil
}

func writeCounter(t *testing.T, s *Socket, i int) {
	t.Helper()
	var payload [8]byte
	binary.BigEndian.PutUint64(payload[:], uint64(i))
	if err := s.WriteMsg(payload[:]); err != nil {
		t.Fatalf("sending %d: %v", i, err)
	}
}

// readCounters drains total messages from s in a goroutine; the returned
// channel yields nil on success.
func readCounters(s *Socket, total int) <-chan error {
	done := make(chan error, 1)
	go func() {
		for n := 0; n < total; n++ {
			if _, err := s.ReadMsg(); err != nil {
				done <- fmt.Errorf("read %d: %w", n, err)
				return
			}
		}
		done <- nil
	}()
	return done
}

// TestCrashRecoveryExactlyOnce is the in-process half of the kill-and-
// recover story: a journaling controller streaming checkpointed messages is
// torn down abruptly, a fresh controller reopens the same journal,
// RecoverConns restores the stranded connection, and the surviving receiver
// observes every counter exactly once, in order, across the crash.
func TestCrashRecoveryExactlyOnce(t *testing.T) {
	svc := naming.NewService()
	dir := t.TempDir()
	j, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}

	ha := newFaultHost(t, "ha", svc, func(c *Config) { c.Journal = j })
	hb := newFaultHost(t, "hb", svc, nil)
	client, server := faultPair(t, svc, ha, hb, "alice", "bob")

	const total = 40
	rec := &counterLog{}
	recordInto(rec, server)
	done := readCounters(server, total)

	for i := 0; i < total/2; i++ {
		writeCounter(t, client, i)
		ha.ctrl.checkpointConn(client)
	}

	// Crash: the controller goes away without dropping its journal records,
	// exactly as Close is specified to behave.
	id := client.ID()
	if err := ha.ctrl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: same host name and journal directory, fresh addresses.
	j2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j2.Close() })
	reg2 := obs.NewRegistry()
	ha2 := newFaultHost(t, "ha", svc, func(c *Config) {
		c.Journal = j2
		c.Metrics = reg2
	})
	n, err := ha2.ctrl.RecoverConns()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("RecoverConns restored %d connections, want 1", n)
	}
	if err := svc.Update("alice", ha2.loc(), 2); err != nil {
		t.Fatal(err)
	}

	client2, err := ha2.ctrl.AgentSocket("alice", id)
	if err != nil {
		t.Fatal(err)
	}
	waitEstablished(t, client2)
	for i := total / 2; i < total; i++ {
		writeCounter(t, client2, i)
		ha2.ctrl.checkpointConn(client2)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("receiver: %v\n%s", err, rec.Render())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("receiver never finished; %d delivered\n%s", len(rec.Events()), rec.Render())
	}
	if err := rec.VerifyExactlyOnceInOrder(); err != nil {
		t.Fatalf("reliability violated across crash: %v\n%s", err, rec.Render())
	}
	if got := len(rec.Events()); got != total {
		t.Fatalf("delivered %d messages, want %d", got, total)
	}

	snap := reg2.Snapshot()
	if snap.Counters["fault.conn_recoveries"] == 0 {
		t.Errorf("fault.conn_recoveries = 0 after recovery; counters = %v", snap.Counters)
	}
	if h := snap.Histograms["fault.recovery_ms"]; h.Count == 0 {
		t.Errorf("fault.recovery_ms has no samples; histograms = %v", snap.Histograms)
	}
}

// patterned returns the 64-byte message carrying counter i: the counter,
// then filler derived from it, so a reader can check every byte.
func patterned(i uint64) []byte {
	msg := make([]byte, 64)
	binary.BigEndian.PutUint64(msg, i)
	for k := 8; k < len(msg); k++ {
		msg[k] = byte(i) ^ byte(k)
	}
	return msg
}

// endOfStream is the message that ends a patterned stream: a marker byte
// and how many patterned messages went before it.
func endOfStream(n uint64) []byte {
	return binary.BigEndian.AppendUint64([]byte{0xff}, n)
}

// readPatterned reads a patterned stream from s up to its end marker and
// requires messages 0, 1, 2, … each exactly once, in order, byte for byte,
// and as many as the marker says were written.
func readPatterned(s *Socket) <-chan error {
	done := make(chan error, 1)
	go func() {
		for i := uint64(0); ; i++ {
			m, err := s.ReadMsg()
			switch {
			case err != nil:
				done <- fmt.Errorf("read %d: %w", i, err)
			case len(m) == 9 && m[0] == 0xff:
				if n := binary.BigEndian.Uint64(m[1:]); n != i {
					done <- fmt.Errorf("read %d messages, the peer wrote %d", i, n)
				} else {
					done <- nil
				}
			case string(m) != string(patterned(i)):
				done <- fmt.Errorf("message %d arrived as %x", i, m)
			default:
				continue
			}
			return
		}
	}()
	return done
}

// TestControlPartitionLeavesEstablishedAlone: the control channel carries
// the migration protocol and nothing else, so losing it must not touch an
// established connection whose data path is healthy. Every control packet
// of both hosts is dropped for a second while both sides stream; the
// connection never leaves ESTABLISHED, every message arrives exactly once
// in order, and a suspend/resume issued after the heal succeeds.
func TestControlPartitionLeavesEstablishedAlone(t *testing.T) {
	svc := naming.NewService()
	var partition atomic.Bool
	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	ha := newFaultHost(t, "pa", svc, func(c *Config) {
		c.Metrics = regA
		c.ControlDropFn = func([]byte) bool { return partition.Load() }
	})
	hb := newFaultHost(t, "pb", svc, func(c *Config) {
		c.Metrics = regB
		c.ControlDropFn = func([]byte) bool { return partition.Load() }
	})
	client, server := faultPair(t, svc, ha, hb, "alice", "bob")

	// Each side streams to the other for as long as the partition lasts,
	// then a tail after the suspend/resume that follows the heal. The
	// channel yields the reader's verdict, or the writer's error.
	const tail = 20
	resumed := make(chan struct{})
	stream := func(from, to *Socket) <-chan error {
		done := make(chan error, 2)
		go func() {
			n := uint64(0)
			send := func(m []byte) bool {
				if err := from.WriteMsg(m); err != nil {
					done <- fmt.Errorf("write %d: %w", n, err)
					return false
				}
				return true
			}
			for partition.Load() {
				if !send(patterned(n)) {
					return
				}
				n++
				time.Sleep(time.Millisecond)
			}
			<-resumed
			for i := 0; i < tail; i++ {
				if !send(patterned(n)) {
					return
				}
				n++
			}
			send(endOfStream(n))
		}()
		go func() { done <- <-readPatterned(to) }()
		return done
	}

	partition.Store(true)
	aToB, bToA := stream(client, server), stream(server, client)
	time.Sleep(time.Second)
	if cs, ss := client.State(), server.State(); cs != fsm.Established || ss != fsm.Established {
		t.Fatalf("states after 1 s without a control channel: client %s, server %s; want ESTABLISHED", cs, ss)
	}
	partition.Store(false)

	if err := client.Suspend(); err != nil {
		t.Fatalf("suspend after the heal: %v", err)
	}
	if err := client.Resume(); err != nil {
		t.Fatalf("resume after the heal: %v", err)
	}
	waitEstablished(t, client, server)
	close(resumed)

	for name, done := range map[string]<-chan error{"alice->bob": aToB, "bob->alice": bToA} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: stream never completed", name)
		}
	}
	for host, reg := range map[string]*obs.Registry{"pa": regA, "pb": regB} {
		if n := reg.Snapshot().Counters["conn.failures"]; n != 0 {
			t.Errorf("%s: conn.failures = %d; the partition reached the data path", host, n)
		}
	}
}

// silentConn is a kernel connection whose peer can go silent: while the
// shared flag is up nothing arrives (reads block) and nothing leaves (writes
// are swallowed), and no error or reset says so.
type silentConn struct {
	net.Conn
	silent *atomic.Bool
	healed <-chan struct{}
	closed chan struct{}
	once   sync.Once
}

func (c *silentConn) Read(p []byte) (int, error) {
	if c.silent.Load() {
		select {
		case <-c.healed:
		case <-c.closed:
			return 0, net.ErrClosed
		}
	}
	return c.Conn.Read(p)
}

func (c *silentConn) Write(p []byte) (int, error) {
	if c.silent.Load() {
		return len(p), nil
	}
	return c.Conn.Write(p)
}

func (c *silentConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestSilentPeerRecoversByKeepalive is the dead-peer chain end to end, on
// its first rung: the peer's host goes silent mid-stream — no FIN, no RST,
// dials time out — and only the transport keepalive can notice. It must
// declare the connection half-open, and once the path heals the session
// resumes and the stream continues byte for byte; the application sees no
// error and the connection never degrades.
func TestSilentPeerRecoversByKeepalive(t *testing.T) {
	svc := naming.NewService()
	var silent atomic.Bool
	healed := make(chan struct{})
	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	ha := newFaultHost(t, "sa", svc, func(c *Config) {
		c.Metrics = regA
		c.TransportKeepaliveInterval = 50 * time.Millisecond
		c.DialData = func(addr string, timeout time.Duration) (net.Conn, error) {
			if silent.Load() {
				return nil, errors.New("dial: peer silent")
			}
			return net.DialTimeout("tcp", addr, timeout)
		}
		c.WrapData = func(conn net.Conn) net.Conn {
			return &silentConn{Conn: conn, silent: &silent, healed: healed, closed: make(chan struct{})}
		}
	})
	hb := newFaultHost(t, "sb", svc, func(c *Config) {
		c.Metrics = regB
		c.TransportKeepaliveInterval = 50 * time.Millisecond
	})
	client, server := faultPair(t, svc, ha, hb, "alice", "bob")

	// events polls the dialer's flight recorder until it holds an event of
	// the wanted kind later than after, and returns that event's time.
	events := func(kind string, after time.Time) time.Time {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			infos := ha.ctrl.TransportInfos()
			for _, in := range infos {
				for _, ev := range in.Events {
					if ev.Kind == kind && ev.At.After(after) {
						return ev.At
					}
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("flight recorder never showed %q; transports: %+v", kind, infos)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	const phase = 50
	done := readPatterned(server)
	write := func(from, to uint64) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := client.WriteMsg(patterned(i)); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
	}
	write(0, phase)
	silent.Store(true)
	write(phase, 2*phase) // into the void: only the transport's send log has these
	timedOut := events("keepalive-timeout", time.Time{})
	silent.Store(false)
	close(healed)
	events("resumed", timedOut)
	write(2*phase, 3*phase)
	if err := client.WriteMsg(endOfStream(3 * phase)); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("receiver never finished after the heal")
	}
	if st := client.State(); st != fsm.Established {
		t.Errorf("client state %s, want ESTABLISHED", st)
	}
	for host, reg := range map[string]*obs.Registry{"sa": regA, "sb": regB} {
		if n := reg.Snapshot().Counters["conn.failures"]; n != 0 {
			t.Errorf("%s: conn.failures = %d; the outage reached the application's connection", host, n)
		}
	}
	if n := regA.Snapshot().Counters["transport.keepalive_timeouts"]; n == 0 {
		t.Error("transport.keepalive_timeouts = 0 on the dialer")
	}
}

// TestSuspendResumeUnderControlLoss streams numbered messages through two
// mid-stream migrations while every fourth outgoing control packet — on
// every host — is dropped. The RUDP retransmission machinery must carry the
// suspend/resume handshakes through the loss, and the receiver must still
// observe every counter exactly once, in order.
func TestSuspendResumeUnderControlLoss(t *testing.T) {
	var sends atomic.Uint64
	lossy := func([]byte) bool { return sends.Add(1)%4 == 0 }
	env := newEnv(t, []string{"h1", "h2", "h3"}, func(c *Config) { c.ControlDropFn = lossy })
	client, server := env.pair("left", "h1", "right", "h2")

	const total = 30
	rec := &counterLog{}
	recordInto(rec, server)
	done := readCounters(server, total)

	hops := []struct {
		at       int
		from, to string
	}{{total / 3, "h1", "h3"}, {2 * total / 3, "h3", "h1"}}
	epoch := uint64(1)
	hop := 0
	cur := client
	for i := 0; i < total; i++ {
		if hop < len(hops) && i == hops[hop].at {
			epoch++
			env.migrate("left", hops[hop].from, hops[hop].to, epoch)
			moved, err := env.hosts[hops[hop].to].ctrl.AgentSocket("left", client.ID())
			if err != nil {
				t.Fatalf("reattach after hop %d: %v", hop, err)
			}
			waitEstablished(t, moved)
			cur = moved
			hop++
		}
		writeCounter(t, cur, i)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("receiver: %v\n%s", err, rec.Render())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("receiver never finished under loss; %d delivered", len(rec.Events()))
	}
	if err := rec.VerifyExactlyOnceInOrder(); err != nil {
		t.Fatalf("reliability violated under control loss: %v\n%s", err, rec.Render())
	}
	if got := len(rec.Events()); got != total {
		t.Fatalf("delivered %d messages, want %d", got, total)
	}
}

// TestDoubleFailureConcurrentMigrationWithCrash composes the two failure
// modes: both endpoints migrate concurrently (the Fig 4 overlap machinery),
// and then the host one of them landed on crashes and is rebuilt from its
// journal. The connection must survive both — migration state through the
// journaled checkpoint, and the final resume through crash recovery.
func TestDoubleFailureConcurrentMigrationWithCrash(t *testing.T) {
	svc := naming.NewService()
	dir := t.TempDir()
	j4, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}

	h1 := newFaultHost(t, "h1", svc, nil)
	h2 := newFaultHost(t, "h2", svc, nil)
	h3 := newFaultHost(t, "h3", svc, nil)
	h4 := newFaultHost(t, "h4", svc, func(c *Config) { c.Journal = j4 })

	client, server := faultPair(t, svc, h1, h2, "left", "right")

	if err := client.WriteMsg([]byte("pre-l")); err != nil {
		t.Fatal(err)
	}
	if err := server.WriteMsg([]byte("pre-r")); err != nil {
		t.Fatal(err)
	}

	migrate := func(agentID string, from, to *testHost, epoch uint64) {
		t.Helper()
		blob, err := from.ctrl.PreDepart(agentID)
		if err != nil {
			t.Errorf("PreDepart(%s): %v", agentID, err)
			return
		}
		if err := svc.Update(agentID, to.loc(), epoch); err != nil {
			t.Errorf("location update for %s: %v", agentID, err)
			return
		}
		if err := to.ctrl.PostArrive(agentID, blob); err != nil {
			t.Errorf("PostArrive(%s): %v", agentID, err)
		}
	}

	// Both endpoints migrate at once: left h1→h3, right h2→h4.
	migDone := make(chan struct{}, 2)
	go func() { migrate("left", h1, h3, 2); migDone <- struct{}{} }()
	go func() { migrate("right", h2, h4, 2); migDone <- struct{}{} }()
	<-migDone
	<-migDone

	movedL, err := h3.ctrl.AgentSocket("left", client.ID())
	if err != nil {
		t.Fatal(err)
	}
	movedR, err := h4.ctrl.AgentSocket("right", server.ID())
	if err != nil {
		t.Fatal(err)
	}
	waitEstablished(t, movedL, movedR)
	if m, err := movedR.ReadMsg(); err != nil || string(m) != "pre-l" {
		t.Fatalf("right pre msg: %q, %v", m, err)
	}
	if m, err := movedL.ReadMsg(); err != nil || string(m) != "pre-r" {
		t.Fatalf("left pre msg: %q, %v", m, err)
	}
	// Consuming a message is externally visible progress: checkpoint it, as
	// a receiving behaviour would (Context.Checkpoint), so the crash below
	// cannot roll the delivery cursor back and redeliver pre-l.
	h4.ctrl.checkpointConn(movedR)

	// Second failure: the host the server landed on crashes and restarts
	// from its journal.
	if err := h4.ctrl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j4.Close(); err != nil {
		t.Fatal(err)
	}
	j4b, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j4b.Close() })
	h4b := newFaultHost(t, "h4", svc, func(c *Config) { c.Journal = j4b })
	n, err := h4b.ctrl.RecoverConns()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("RecoverConns restored %d connections, want 1", n)
	}
	if err := svc.Update("right", h4b.loc(), 3); err != nil {
		t.Fatal(err)
	}

	movedR2, err := h4b.ctrl.AgentSocket("right", server.ID())
	if err != nil {
		t.Fatal(err)
	}
	waitEstablished(t, movedL, movedR2)

	if err := movedL.WriteMsg([]byte("post-l")); err != nil {
		t.Fatal(err)
	}
	if m, err := movedR2.ReadMsg(); err != nil || string(m) != "post-l" {
		t.Fatalf("right post msg: %q, %v", m, err)
	}
	if err := movedR2.WriteMsg([]byte("post-r")); err != nil {
		t.Fatal(err)
	}
	if m, err := movedL.ReadMsg(); err != nil || string(m) != "post-r" {
		t.Fatalf("left post msg: %q, %v", m, err)
	}
}
