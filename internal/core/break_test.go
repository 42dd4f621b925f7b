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
// settles) — while the one fresh transport they resume over is shared: the
// high-priority side resumes at once, and the other side's backstop finds
// nothing left to do. Every stream, half of them in each direction,
// delivers exactly once, in order.
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
	if fresh != 1 {
		t.Errorf("%d fresh transports after one break, want the one every connection resumes over", fresh)
	}
	t.Logf("one break, %d connections: %d RES, %d resume races, %d fresh transports", n, res, raced, fresh)
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
// wait for the handoff times out an OpTimeout later.
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
		t.Fatalf("recovered %v after the break, want well inside the %v handoff timeout", took, opTimeout)
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

// unnoticedBreak pairs hi (cli on h1, the high-priority end) with lo (srv on
// h2) and breaks their transport so that only hi notices: h1's end is killed,
// while h2 holds what the first transport reads, so lo stays ESTABLISHED over
// a dead stream until open is called. hi recovers at once. h1's control
// packets leave delay late, so hi's RES reaches lo that much after hi sends
// it. requests counts the control requests h1 has sent since the break;
// regs, when non-nil, gets each host's metrics.
func unnoticedBreak(t *testing.T, delay time.Duration, regs map[string]*obs.Registry) (hi, lo *Socket, open func(), requests func() uint64) {
	t.Helper()
	tap := &connTap{}
	gate := &readGate{}
	var wrapped atomic.Bool
	env := newEnv(t, []string{"h1", "h2"},
		func(c *Config) { c.Metrics = regs[c.HostName] },
		onHost("h1", func(c *Config) { c.WrapData = tap.wrap; c.ControlSendDelay = delay }),
		onHost("h2", func(c *Config) {
			c.WrapData = func(conn net.Conn) net.Conn {
				if wrapped.CompareAndSwap(false, true) {
					return gate.wrap(conn)
				}
				return conn
			}
		}))
	hi, lo = env.pair("cli", "h1", "srv", "h2")
	if !hi.highPriority {
		t.Fatal("cli does not hold the priority")
	}
	if err := hi.WriteMsg([]byte("before")); err != nil {
		t.Fatal(err)
	}
	if got, err := lo.ReadMsg(); err != nil || string(got) != "before" {
		t.Fatalf("read %q, %v", got, err)
	}
	t.Cleanup(gate.open)
	gate.hold()
	h1 := env.hosts["h1"].ctrl
	before := h1.ControlStats().RequestsSent
	tap.killLatest()
	return hi, lo, gate.open, func() uint64 { return h1.ControlStats().RequestsSent - before }
}

// TestResumeMeetsUnnoticedBreak: a RES that reaches the peer before the peer
// has noticed the break meets ESTABLISHED. The RES itself says the stream is
// gone, so the peer degrades and grants it: one RES recovers the connection,
// instead of a refusal and a retry for as long as the peer has not noticed.
func TestResumeMeetsUnnoticedBreak(t *testing.T) {
	regs := map[string]*obs.Registry{"h1": obs.NewRegistry(), "h2": obs.NewRegistry()}
	hi, lo, _, requests := unnoticedBreak(t, 0, regs)
	for deadline := time.Now().Add(3 * time.Second); regs["h1"].Counter("fault.conn_recoveries").Value() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the high side never recovered while its peer had not noticed the break (state %s)", hi.State())
		}
	}
	waitEstablished(t, hi, lo)
	for host, reg := range regs {
		eventually(t, host+" to count its recovery", func() bool { return reg.Counter("fault.conn_recoveries").Value() == 1 })
		if f := reg.Counter("conn.failures").Value(); f != 1 {
			t.Errorf("%s: %d failures; want the break counted on each end", host, f)
		}
	}
	if n := requests(); n != 1 {
		t.Errorf("%d control requests to recover, want the one RES", n)
	}
	for from, to := range map[*Socket]*Socket{hi: lo, lo: hi} {
		if err := from.WriteMsg([]byte("after")); err != nil {
			t.Fatal(err)
		}
		if got, err := to.ReadMsg(); err != nil || string(got) != "after" {
			t.Fatalf("read %q, %v after the recovery", got, err)
		}
	}
}

// TestResumeMeetsSuspendSent: the high side's recovery RES crosses the low
// side's application suspend — the low side has not noticed the break, and
// its SUS reaches the resumer in RES_SENT, where it waits for the resume to
// settle. The RES meets SUS_SENT and is parked (RESUME_WAIT), as a resume
// behind a suspend is in Fig 4(b); that answers the held SUS, so the suspend
// completes in a few control trips, not after a timeout. The suspender's own
// later Resume meets RESUME_WAIT and is granted, and the connection carries
// data both ways.
func TestResumeMeetsSuspendSent(t *testing.T) {
	const delay = 100 * time.Millisecond
	hi, lo, open, _ := unnoticedBreak(t, delay, nil)
	eventually(t, "the high side's recovery to send its RES", func() bool { return hi.State() == fsm.ResSent })
	start := time.Now()
	suspended := make(chan error, 1)
	go func() { suspended <- lo.Suspend() }()
	eventually(t, "the low side's SUS", func() bool { return lo.State() == fsm.SusSent })
	// The low side may hear of the break now: its suspend is under way.
	open()
	if err := <-suspended; err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 10*delay {
		t.Fatalf("suspend took %v across the crossing RES, want a few %v control trips", took, delay)
	}
	if st := hi.State(); st != fsm.ResumeWait {
		t.Fatalf("the resumer is in %s after the suspend, want RESUME_WAIT", st)
	}
	if err := lo.Resume(); err != nil {
		t.Fatal(err)
	}
	waitEstablished(t, hi, lo)
	for from, to := range map[*Socket]*Socket{hi: lo, lo: hi} {
		if err := from.WriteMsg([]byte("after")); err != nil {
			t.Fatal(err)
		}
		if got, err := to.ReadMsg(); err != nil || string(got) != "after" {
			t.Fatalf("read %q, %v after the recovery", got, err)
		}
	}
	time.Sleep(2 * delay)
	if hs, ls := hi.State(), lo.State(); hs != fsm.Established || ls != fsm.Established {
		t.Fatalf("states %s / %s after the recovery settled, want both ESTABLISHED", hs, ls)
	}
}
