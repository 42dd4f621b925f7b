package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"naplet/internal/fsm"
	"naplet/internal/journal"
	"naplet/internal/naming"
	"naplet/internal/obs"
	"naplet/internal/security"
	"naplet/internal/trace"
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

// recordInto installs a delivery observer feeding the recorder with the
// 8-byte big-endian counters the tests stream.
func recordInto(rec *trace.Recorder, s *Socket) {
	s.SetObserver(func(seq uint64, payload []byte, fromBuffer bool) {
		counter := uint64(0)
		if len(payload) >= 8 {
			counter = binary.BigEndian.Uint64(payload)
		}
		src := trace.FromSocket
		if fromBuffer {
			src = trace.FromBuffer
		}
		rec.Record(seq, counter, src)
	})
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

func waitCounter(t *testing.T, reg *obs.Registry, name string, min uint64, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for reg.Snapshot().Counters[name] < min {
		if time.Now().After(deadline) {
			t.Fatalf("counter %s never reached %d; snapshot = %v", name, min, reg.Snapshot().Counters)
		}
		time.Sleep(5 * time.Millisecond)
	}
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
	rec := trace.NewRecorder()
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

// TestPartitionFalseSuspicionRecovers checks that a short control-channel
// partition makes the detector suspect — but never confirm — the peer, and
// that returning evidence clears the suspicion without the connection ever
// leaving ESTABLISHED.
func TestPartitionFalseSuspicionRecovers(t *testing.T) {
	svc := naming.NewService()
	var partition atomic.Bool
	reg := obs.NewRegistry()
	ha := newFaultHost(t, "pa", svc, func(c *Config) {
		c.HeartbeatInterval = 20 * time.Millisecond
		c.SuspicionThreshold = 1.5
		c.ConfirmFailures = 1000 // out of reach: a short partition must not confirm
		c.Metrics = reg
		c.ControlDropFn = func([]byte) bool { return partition.Load() }
	})
	hb := newFaultHost(t, "pb", svc, nil)
	client, server := faultPair(t, svc, ha, hb, "alice", "bob")

	// The reconciler must begin watching the peer controller.
	deadline := time.Now().Add(10 * time.Second)
	for reg.Snapshot().Gauges["fault.watched"] < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("detector never watched the peer; gauges = %v", reg.Snapshot().Gauges)
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitCounter(t, reg, "fault.probes", 1, 10*time.Second)

	partition.Store(true)
	waitCounter(t, reg, "fault.suspects", 1, 15*time.Second)
	partition.Store(false)
	waitCounter(t, reg, "fault.recoveries", 1, 15*time.Second)

	if got := reg.Snapshot().Counters["fault.confirms"]; got != 0 {
		t.Errorf("short partition confirmed the peer down %d times; want 0", got)
	}
	if st := client.State(); st != fsm.Established {
		t.Errorf("client state = %s after false suspicion, want ESTABLISHED", st)
	}

	// The connection carried no scars: data still flows both ways.
	if err := client.WriteMsg([]byte("after")); err != nil {
		t.Fatal(err)
	}
	if m, err := server.ReadMsg(); err != nil || string(m) != "after" {
		t.Fatalf("server read %q, %v", m, err)
	}
	if err := server.WriteMsg([]byte("back")); err != nil {
		t.Fatal(err)
	}
	if m, err := client.ReadMsg(); err != nil || string(m) != "back" {
		t.Fatalf("client read %q, %v", m, err)
	}
}

// TestPartitionConfirmedFailureHeals drives the detector all the way to
// Confirm: the connection degrades to SUSPENDED, and once the partition
// heals the failure-resume loop re-establishes it and the stream continues.
func TestPartitionConfirmedFailureHeals(t *testing.T) {
	svc := naming.NewService()
	var partition atomic.Bool
	reg := obs.NewRegistry()
	ha := newFaultHost(t, "ca", svc, func(c *Config) {
		c.HeartbeatInterval = 20 * time.Millisecond
		c.SuspicionThreshold = 1.5
		c.ConfirmFailures = 3
		c.Metrics = reg
		c.ControlDropFn = func([]byte) bool { return partition.Load() }
	})
	hb := newFaultHost(t, "cb", svc, nil)
	client, server := faultPair(t, svc, ha, hb, "alice", "bob")

	deadline := time.Now().Add(10 * time.Second)
	for reg.Snapshot().Gauges["fault.watched"] < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("detector never watched the peer; gauges = %v", reg.Snapshot().Gauges)
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitCounter(t, reg, "fault.probes", 1, 10*time.Second)

	partition.Store(true)
	waitCounter(t, reg, "fault.confirms", 1, 15*time.Second)

	// Confirm must have failed the established connection over to SUSPENDED.
	if _, err := client.waitState(10*time.Second, fsm.Suspended); err != nil {
		t.Fatalf("client never degraded to SUSPENDED after confirm: %v (state %s)", err, client.State())
	}

	partition.Store(false)
	waitEstablished(t, client)

	if err := client.WriteMsg([]byte("healed")); err != nil {
		t.Fatal(err)
	}
	if m, err := server.ReadMsg(); err != nil || string(m) != "healed" {
		t.Fatalf("server read %q, %v", m, err)
	}

	snap := reg.Snapshot()
	if snap.Counters["fault.conn_recoveries"] == 0 {
		t.Errorf("fault.conn_recoveries = 0 after heal; counters = %v", snap.Counters)
	}
	if h := snap.Histograms["fault.recovery_ms"]; h.Count == 0 {
		t.Errorf("fault.recovery_ms has no samples after heal; histograms = %v", snap.Histograms)
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
	rec := trace.NewRecorder()
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
