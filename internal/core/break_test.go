package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"naplet/internal/fsm"
	"naplet/internal/obs"
	"naplet/internal/wire"
)

// A broken transport is recovered one way: every connection on it fails,
// degrades to SUSPENDED, and resumes by its own RES over a fresh transport,
// retransmitting from its send log what the peer reports missing. The tests
// here pin what that costs and the bound it rests on.

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

func (ct *connTap) killLatest() {
	ct.mu.Lock()
	c := ct.conns[len(ct.conns)-1]
	ct.mu.Unlock()
	c.Close()
}

func (ct *connTap) count() int {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return len(ct.conns)
}

// TestSendLogCoversCreditWindow is the bound a lossless break rests on. With
// no replay log below it, a broken transport loses whatever the peer's core
// had not yet pulled off its stream, and the send log must still hold all of
// it when the RES reports how far the peer got. Credit bounds that to one
// stream window — the controller never overrides the transport's limits, so
// the window is at most wire.DefaultInitialWindow (a peer can only negotiate
// it down) — plus the batch a stalled flush is writing and the pending bytes
// behind it. Eviction past maxSendLog must never reach them, for every window
// a default-configured host can negotiate with any peer; and both buffer
// bounds are derived from that window, not set beside it.
func TestSendLogCoversCreditWindow(t *testing.T) {
	if maxSendLog != 2*wire.DefaultInitialWindow || maxRecvBuffer != 2*wire.DefaultInitialWindow {
		t.Fatalf("maxSendLog %d and maxRecvBuffer %d, want both twice the default window %d",
			maxSendLog, maxRecvBuffer, wire.DefaultInitialWindow)
	}
	local := &wire.TransportHello{Versions: wire.SupportedVersions(), Limits: wire.DefaultLimits()}
	for _, adv := range []uint32{4 << 10, 64 << 10, 1 << 20, wire.DefaultInitialWindow - 1, wire.DefaultInitialWindow, 4 << 20, 1 << 30} {
		remote := &wire.TransportHello{Versions: wire.SupportedVersions(), Limits: wire.DefaultLimits()}
		remote.Limits.InitialWindow = adv
		n, err := wire.Negotiate(local, remote)
		if err != nil {
			t.Fatalf("peer advertising a %d-byte window: %v", adv, err)
		}
		window := int(n.Limits.InitialWindow)
		if window > wire.DefaultInitialWindow {
			t.Fatalf("peer advertising %d negotiated a %d-byte window, above the local %d", adv, window, wire.DefaultInitialWindow)
		}
		if window+sendSegBytes+coalesceFlushBytes >= maxSendLog {
			t.Fatalf("window %d + sendSegBytes %d + coalesceFlushBytes %d >= maxSendLog %d: a break could lose frames the log evicted",
				window, sendSegBytes, coalesceFlushBytes, maxSendLog)
		}
	}
}

// bigMsg is message i of the credit-stall stream: 64 KiB, numbered, every
// byte a function of i.
func bigMsg(i int) []byte {
	p := make([]byte, 64<<10)
	binary.BigEndian.PutUint64(p, uint64(i))
	for j := 8; j < len(p); j++ {
		p[j] = byte(i*7 + j)
	}
	return p
}

// unrecoverableLog is a host logger that also notes whether any line
// reported ErrUnrecoverable.
func unrecoverableLog(t *testing.T, seen *atomic.Bool) envOption {
	return func(c *Config) {
		c.Logger = obs.NewLogger(func(format string, args ...any) {
			if line := fmt.Sprintf(format, args...); strings.Contains(line, ErrUnrecoverable.Error()) {
				seen.Store(true)
			}
			t.Logf(format, args...)
		}, obs.LevelDebug)
	}
}

// TestBreakWhileCreditStalled breaks the transport at the worst point for
// the send-log bound: a writer of 64 KiB messages is stalled on credit,
// the reader's buffer is full and its pump paused, so a window's worth of
// frames sits in the stream where the break destroys it. Both ends must
// degrade while the reader is still paused — a full buffer must not hide a
// dead stream — and the recovery must retransmit exactly the lost frames:
// no ErrUnrecoverable, every message delivered byte-exact, in order, once,
// and every failure matched by a recovery.
func TestBreakWhileCreditStalled(t *testing.T) {
	// Twice what the reader's buffer and a window hold: the writer is still
	// far from done when both fill.
	const msgs = 2 * (maxRecvBuffer + wire.DefaultInitialWindow) / sendSegBytes
	regs := map[string]*obs.Registry{"h1": obs.NewRegistry(), "h2": obs.NewRegistry()}
	tap := &connTap{}
	var unrecoverable atomic.Bool
	env := newEnv(t, []string{"h1", "h2"},
		func(c *Config) { c.Metrics = regs[c.HostName] },
		unrecoverableLog(t, &unrecoverable),
		onHost("h1", func(c *Config) { c.WrapData = tap.wrap }))
	writer, reader := env.pair("writer", "h1", "reader", "h2")
	defer writer.Close()

	wrote := make(chan error, 1)
	go func() {
		for i := 0; i < msgs; i++ {
			if err := writer.WriteMsg(bigMsg(i)); err != nil {
				wrote <- fmt.Errorf("write %d: %w", i, err)
				return
			}
		}
		wrote <- nil
	}()

	eventually(t, "the writer to stall on credit behind a full reader", func() bool {
		writer.mu.Lock()
		sock := writer.sock
		writer.mu.Unlock()
		reader.mu.Lock()
		full := reader.pumpPaused
		reader.mu.Unlock()
		return sock != nil && sock.SendWindow() == 0 && full
	})
	tap.killLatest()
	for host, reg := range regs {
		eventually(t, host+" to degrade with the reader still paused", func() bool {
			return reg.Counter("conn.failures").Value() == 1
		})
	}

	for i := 0; i < msgs; i++ {
		m, err := reader.ReadMsg()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(m, bigMsg(i)) {
			t.Fatalf("message %d arrived as message %d (%d bytes)", i, binary.BigEndian.Uint64(m), len(m))
		}
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	for host, reg := range regs {
		eventually(t, host+" to count its recovery", func() bool {
			return reg.Counter("fault.conn_recoveries").Value() == 1
		})
		if n := reg.Counter("conn.failures").Value(); n != 1 {
			t.Errorf("%s: conn.failures = %d, want the one break", host, n)
		}
	}
	if unrecoverable.Load() {
		t.Error("a recovery reported ErrUnrecoverable: the send log had evicted frames the peer never got")
	}
}

// resumeRaces counts, in a host's outgoing control packets, the replies
// that refused a RES as a resume race: each costs its requester a retry.
func resumeRaces(n *atomic.Int64) envOption {
	return func(c *Config) {
		c.ControlDropFn = func(pkt []byte) bool {
			const rudpHeader, kindResponse = 12, 2
			if len(pkt) > rudpHeader && pkt[3] == kindResponse {
				if r, err := wire.DecodeControlReply(pkt[rudpHeader:]); err == nil &&
					r.Verdict == wire.VerdictReject && r.Code == wire.RejectResumeRace {
					n.Add(1)
				}
			}
			return false
		}
	}
}

// TestBreakCensus counts what one TCP break costs: eight connections share
// the transport between two hosts, and it is killed once mid-stream. Each
// connection pays its own recovery — one failure and one recovery on each
// end, one RES (plus a retry for each resume race the priority rule
// settles) — while the fresh transports they resume over are shared: at
// most one per resuming direction, not one per connection. Every stream,
// half of them in each direction, delivers exactly once, in order.
func TestBreakCensus(t *testing.T) {
	const n, phase = 8, 20
	regs := map[string]*obs.Registry{"h1": obs.NewRegistry(), "h2": obs.NewRegistry()}
	races := map[string]*atomic.Int64{"h1": {}, "h2": {}}
	tap := &connTap{}
	env := newEnv(t, []string{"h1", "h2"},
		func(c *Config) {
			c.Metrics = regs[c.HostName]
			resumeRaces(races[c.HostName])(c)
		},
		onHost("h1", func(c *Config) { c.WrapData = tap.wrap }))

	type flow struct{ from, to *Socket }
	flows := make([]flow, n)
	for i := range flows {
		client, server := env.pair(fmt.Sprintf("c%d", i), "h1", fmt.Sprintf("s%d", i), "h2")
		defer client.Close()
		flows[i] = flow{client, server}
		if i%2 == 1 {
			flows[i] = flow{server, client}
		}
	}
	if got := tap.count(); got != 1 {
		t.Fatalf("%d transports between the hosts, want the one shared", got)
	}
	done := make([]<-chan error, n)
	for i, f := range flows {
		done[i] = readPatterned(f.to)
	}
	write := func(from, to uint64) {
		t.Helper()
		for _, f := range flows {
			for i := from; i < to; i++ {
				if err := f.from.WriteMsg(patterned(i)); err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
			}
		}
	}

	requests := func() uint64 {
		return env.hosts["h1"].ctrl.ControlStats().RequestsSent + env.hosts["h2"].ctrl.ControlStats().RequestsSent
	}
	write(0, phase)
	before := requests()
	tap.killLatest()
	write(phase, 2*phase)
	for _, f := range flows {
		if err := f.from.WriteMsg(endOfStream(2 * phase)); err != nil {
			t.Fatal(err)
		}
	}
	for i, d := range done {
		if err := <-d; err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
	}

	for host, reg := range regs {
		eventually(t, host+" to recover every connection", func() bool {
			return reg.Counter("fault.conn_recoveries").Value() == n
		})
		if f := reg.Counter("conn.failures").Value(); f != n {
			t.Errorf("%s: conn.failures = %d, want %d: one per connection on the broken transport", host, f, n)
		}
	}
	raced := races["h1"].Load() + races["h2"].Load()
	res := requests() - before
	if res > n+uint64(raced) {
		t.Errorf("%d RES requests for %d connections and %d resume races, want at most %d", res, n, raced, n+raced)
	}
	fresh := tap.count() - 1
	if fresh < 1 || fresh > 2 {
		t.Errorf("%d fresh transports after one break, want 1 or 2 (one per resuming direction)", fresh)
	}
	t.Logf("one break, %d connections: %d RES, %d resume races, %d fresh transports", n, res, raced, fresh)
}

// TestBreakWithoutFailureResume: with DisableFailureResume a break still
// reaches both ends' state machines, and leaves the connection SUSPENDED —
// nothing resumes it behind the application's back — until an explicit
// Resume, which succeeds and delivers what was written across the break
// exactly once.
func TestBreakWithoutFailureResume(t *testing.T) {
	tap := &connTap{}
	env := newEnv(t, []string{"h1", "h2"}, noFailureResume(),
		onHost("h1", func(c *Config) { c.WrapData = tap.wrap }))
	client, server := env.pair("cli", "h1", "srv", "h2")
	defer client.Close()
	done := readPatterned(server)
	for i := uint64(0); i < 10; i++ {
		if err := client.WriteMsg(patterned(i)); err != nil {
			t.Fatal(err)
		}
	}
	tap.killLatest()
	for _, s := range []*Socket{client, server} {
		eventually(t, "the break to degrade "+s.localAgent, func() bool {
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.failing && s.m.State() == fsm.Suspended
		})
	}
	// Failure resume would have fired 50 ms after the break on the
	// high-priority end; nothing does.
	time.Sleep(200 * time.Millisecond)
	if cs, ss := client.State(), server.State(); cs != fsm.Suspended || ss != fsm.Suspended {
		t.Fatalf("states %s / %s without failure resume, want both SUSPENDED", cs, ss)
	}
	if err := client.Resume(); err != nil {
		t.Fatalf("explicit Resume after the break: %v", err)
	}
	waitEstablished(t, client, server)
	if err := client.WriteMsg(endOfStream(10)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// deafConn never reads: bytes sent to it stay in the kernel until Close.
type deafConn struct {
	net.Conn
	closed chan struct{}
	once   sync.Once
}

func (c *deafConn) Read([]byte) (int, error) {
	<-c.closed
	return 0, net.ErrClosed
}

func (c *deafConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestHandoffLostWithItsTransportStandsDown: a break lands on a recovery
// in flight. The transport the resume's handoff rides goes deaf on both
// ends — its MuxOpen is never read — and dies by keepalive, so the granter
// sits in RES_ACKED for a handoff that will never land while the opener,
// failed again, sends a new RES. That RES must make the granter stand down
// at once (RES_ACKED to SUSPENDED, then grant the retry), not when its
// rendezvous times out an OpTimeout later.
func TestHandoffLostWithItsTransportStandsDown(t *testing.T) {
	const opTimeout = 10 * time.Second
	regs := map[string]*obs.Registry{"h1": obs.NewRegistry(), "h2": obs.NewRegistry()}
	tap := &connTap{}
	var deaf atomic.Int32
	env := newEnv(t, []string{"h1", "h2"}, func(c *Config) {
		c.Metrics = regs[c.HostName]
		c.OpTimeout = opTimeout
		c.TransportKeepaliveInterval = 50 * time.Millisecond
		c.TransportKeepaliveTimeout = 300 * time.Millisecond
		host := c.HostName
		c.WrapData = func(conn net.Conn) net.Conn {
			if host == "h1" {
				tap.wrap(conn)
			}
			if deaf.Add(-1) >= 0 {
				return &deafConn{Conn: conn, closed: make(chan struct{})}
			}
			return conn
		}
	})
	client, server := env.pair("cli", "h1", "srv", "h2")
	defer client.Close()
	done := readPatterned(server)
	if err := client.WriteMsg(patterned(0)); err != nil {
		t.Fatal(err)
	}

	deaf.Store(2) // both ends of the next transport: the recovery's
	start := time.Now()
	tap.killLatest()
	if err := client.WriteMsg(patterned(1)); err != nil {
		t.Fatal(err)
	}
	if err := client.WriteMsg(endOfStream(2)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > opTimeout/2 {
		t.Fatalf("recovered %v after the break, want well inside the %v rendezvous timeout", took, opTimeout)
	}
	stoodDown := uint64(0)
	for host, reg := range regs {
		stoodDown += reg.Counter("fsm.transition.RES_ACKED->SUSPENDED").Value()
		f, r := reg.Counter("conn.failures"), reg.Counter("fault.conn_recoveries")
		eventually(t, host+" to recover every failure", func() bool {
			return f.Value() >= 1 && r.Value() == f.Value()
		})
	}
	if stoodDown == 0 {
		t.Error("no RES_ACKED -> SUSPENDED transition: the lost handoff was not what the test exercised")
	}
}
