package core

import (
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"naplet/internal/obs"
	"naplet/internal/wire"
)

// TestSmallMessageSteadyState is the small-message budget, stated in counts
// rather than wall clock: once a connected pair on cleartext records is warm,
// streaming 100 B messages costs next to no heap allocations and next to no
// payload-pool traffic per message — each message is encoded once into a
// send segment that serves a few hundred messages, and read at a cursor out
// of the segment the transport delivered. The same test is the profiling
// driver behind `make profile-small`.
func TestSmallMessageSteadyState(t *testing.T) {
	const (
		size   = 100
		warmup = 20_000
		msgs   = 200_000
	)
	env := newEnv(t, []string{"h1", "h2"}, func(c *Config) {
		c.DisableTransportEncryption = true
	})
	client, server := env.pair("src", "h1", "sink", "h2")
	defer client.Close()

	stream := func(n int) {
		t.Helper()
		done := make(chan error, 1)
		go func() {
			buf := make([]byte, 64<<10)
			for left := n * size; left > 0; {
				m, err := server.Read(buf[:min(len(buf), left)])
				if err != nil {
					done <- err
					return
				}
				left -= m
			}
			done <- nil
		}()
		msg := make([]byte, size)
		for i := 0; i < n; i++ {
			if _, err := client.Write(msg); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		if err := <-done; err != nil {
			t.Fatalf("read: %v", err)
		}
	}

	stream(warmup)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	hits0, misses0 := wire.PoolStats()
	stream(msgs)
	hits1, misses1 := wire.PoolStats()
	runtime.ReadMemStats(&m1)

	allocs := float64(m1.Mallocs-m0.Mallocs) / msgs
	draws := float64((hits1-hits0)+(misses1-misses0)) / msgs
	t.Logf("%d x %d B: %.4f allocs/msg, %.1f B/msg, one pool draw per %.1f msgs",
		msgs, size, allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/msgs, 1/draws)
	if raceDetector() {
		// The race detector's sync.Pool drops a quarter of what is put into
		// it, on purpose, and the instrumented run batches differently: the
		// counts are not the program's there.
		return
	}
	if allocs > 0.05 {
		t.Errorf("%.3f heap allocations per message, want <= 0.05", allocs)
	}
	if draws > 1.0/32 {
		t.Errorf("one payload-pool draw per %.1f messages, want at most one per 32", 1/draws)
	}
}

// countingConn counts the Write calls made on a shared transport's kernel
// connection. Hiding the *net.TCPConn turns every writev into one Write per
// buffer, so the count is the number of buffers handed to the kernel.
type countingConn struct {
	net.Conn
	writes *atomic.Uint64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestBulkMessageSteadyState is the bulk-message budget, stated in counts
// rather than wall clock, on sealed and cleartext sessions alike: once a pair
// is warm, a 64 KiB message is one data-plane segment and one mux frame in
// one chunk of the transport writer's queue.
//
// Sealed, the chunk goes out as one record: a header and a record handed to
// the kernel (two Writes once writev is defeated), and five payload-pool
// draws end to end — the send segment, the chunk, the sealed record, the
// received record and the data segment copied out of it. Cleartext, the chunk
// is the wire bytes: one Write, and three draws — the send segment, the chunk
// and the received data segment.
//
// The only extras are bounded by the credit window: a window grant (half a
// window, some sixteen messages) is one small chunk back, and a sender that
// ran its credit out mid-message splits that one message in two — at most
// one split per grant, each an extra chunk and a frame the receiver
// reassembles. A mux payload bound below the segment size splits every
// message in two instead. The same test is what `make profile-bulk`
// profiles (the sealed row).
func TestBulkMessageSteadyState(t *testing.T) {
	const (
		size   = 64 << 10
		warmup = 100
		msgs   = 1000
	)
	for _, tc := range []struct {
		name      string
		cleartext bool
		// writes is the sender's kernel Writes per chunk; draws the pool
		// draws per message, per grant and per split; allocs the heap
		// allocations per message.
		writes                        float64
		draws, grantDraws, splitDraws float64
		allocs                        float64
	}{
		// A grant costs a chunk, a seal and a read; a split a chunk, a
		// seal, a read, a copy-out and a reassembly.
		{name: "sealed", writes: 2, draws: 5, grantDraws: 3, splitDraws: 5, allocs: 3},
		// A grant costs a chunk; a split a chunk, a read and a reassembly.
		{name: "cleartext", cleartext: true, writes: 1, draws: 3, grantDraws: 1, splitDraws: 3, allocs: 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var writes atomic.Uint64
			env := newEnv(t, []string{"h1", "h2"}, func(c *Config) {
				c.DisableTransportEncryption = tc.cleartext
			}, onHost("h1", func(c *Config) {
				c.WrapData = func(conn net.Conn) net.Conn { return countingConn{Conn: conn, writes: &writes} }
			}))
			client, server := env.pair("src", "h1", "sink", "h2")
			defer client.Close()

			stream := func(n int) {
				t.Helper()
				done := make(chan error, 1)
				go func() {
					buf := make([]byte, size)
					for left := n * size; left > 0; {
						m, err := server.Read(buf[:min(len(buf), left)])
						if err != nil {
							done <- err
							return
						}
						left -= m
					}
					done <- nil
				}()
				msg := make([]byte, size)
				for i := 0; i < n; i++ {
					if _, err := client.Write(msg); err != nil {
						t.Fatalf("write %d: %v", i, err)
					}
				}
				if err := <-done; err != nil {
					t.Fatalf("read: %v", err)
				}
			}

			stream(warmup)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			hits0, misses0 := wire.PoolStats()
			writes0 := writes.Load()
			stream(msgs)
			writesPerMsg := float64(writes.Load()-writes0) / msgs
			hits1, misses1 := wire.PoolStats()
			runtime.ReadMemStats(&m1)

			draws := float64((hits1-hits0)+(misses1-misses0)) / msgs
			allocs := float64(m1.Mallocs-m0.Mallocs) / msgs
			t.Logf("%d x %d B %s: %.2f kernel writes/msg on the sender, %.2f pool draws/msg, %.2f allocs/msg, %.0f B/msg",
				msgs, size, tc.name, writesPerMsg, draws, allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/msgs)
			// Grants, and so splits, come at most once per half window of messages.
			perGrant := float64(wire.DefaultInitialWindow/2) / (size + wire.FrameHeaderSize)
			if limit := tc.writes * (1 + 1/perGrant + 1.0/msgs); writesPerMsg > limit {
				t.Errorf("%.3f kernel writes per message on the sender, want <= %.3f: one chunk per message, one more per split", writesPerMsg, limit)
			}
			if raceDetector() {
				return // see TestSmallMessageSteadyState
			}
			if limit := tc.draws + (tc.splitDraws+tc.grantDraws)/perGrant; draws > limit {
				t.Errorf("%.2f payload-pool draws per message, want <= %.2f: one per buffer a 64 KiB message passes through", draws, limit)
			}
			if allocs > tc.allocs {
				t.Errorf("%.2f heap allocations per message, want <= %.0f", allocs, tc.allocs)
			}
		})
	}
}

// raceDetector reports whether the test binary was built with -race.
func raceDetector() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestMigrationSteadyState is the control cycle's budget, stated in counts
// rather than wall clock: an agent holding two connections, each with eight
// unread 1 KiB messages, goes round three hosts two hundred times. After
// every move each message is read once, in order. The blob is the buffered
// frames plus a fixed overhead per connection — nothing is re-encoded, so
// nothing grows; the two hooks of a migration cost a bounded number of heap
// allocations (the reflection codec this form replaced compiled its engines
// anew for every blob, and cost over twice the ceiling); and every pooled
// buffer drawn between setting the hosts up and closing them is back in the
// pool. The same test is the profiling driver behind `make profile-control`.
func TestMigrationSteadyState(t *testing.T) {
	const (
		conns  = 2
		unread = 8
		size   = 1 << 10
		warmup = 10
		moves  = 200
	)
	hits0, misses0 := wire.PoolStats()
	returns0 := wire.PoolReturns()
	env := newEnv(t, []string{"h1", "h2", "h3", "h4"}, quickOps(), func(c *Config) {
		c.Logger = obs.NewLogger(t.Logf, obs.LevelWarn) // the allocations counted are the protocol's
	})
	env.place("mover", "h1")
	var anchors [conns]*Socket
	var ids [conns]wire.ConnID
	perConn := 0
	for i := range anchors {
		name := fmt.Sprintf("anchor%d", i)
		env.place(name, "h4")
		c, s := env.connect("mover", "h1", name, "h4")
		anchors[i], ids[i] = s, c.ID()
		info := c.Info()
		perConn = 256 + len(c.sessionKey) + len("mover") + len(name) + len(info.PeerControlAddr) + len(info.PeerDataAddr)
	}

	hosts := []string{"h1", "h2", "h3"}
	msg := make([]byte, size)
	var sent, got [conns]uint64
	var hookAllocs uint64
	mallocs := func() uint64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.Mallocs
	}
	move := func(k int) {
		t.Helper()
		for i, a := range anchors {
			for j := 0; j < unread; j++ {
				sent[i]++
				binary.BigEndian.PutUint64(msg, sent[i])
				if err := a.WriteMsg(msg); err != nil {
					t.Fatalf("move %d: write: %v", k, err)
				}
			}
		}
		from, to := env.hosts[hosts[k%3]].ctrl, env.hosts[hosts[(k+1)%3]]
		a0 := mallocs()
		blob, err := from.PreDepart("mover")
		hookAllocs += mallocs() - a0
		if err != nil {
			t.Fatalf("move %d: PreDepart: %v", k, err)
		}
		if limit := conns * (unread*(size+wire.FrameHeaderSize) + perConn); len(blob) < conns*unread*size || len(blob) > limit {
			t.Fatalf("move %d: blob of %d bytes for %d buffered, limit %d", k, len(blob), conns*unread*size, limit)
		}
		if err := env.svc.Update("mover", to.loc(), uint64(k+2)); err != nil {
			t.Fatalf("move %d: location update: %v", k, err)
		}
		a0 = mallocs()
		err = to.ctrl.PostArrive("mover", blob)
		hookAllocs += mallocs() - a0
		if err != nil {
			t.Fatalf("move %d: PostArrive: %v", k, err)
		}
		for i, id := range ids {
			s, err := to.ctrl.AgentSocket("mover", id)
			if err != nil {
				t.Fatalf("move %d: %v", k, err)
			}
			for j := 0; j < unread; j++ {
				m, err := s.ReadMsg()
				if err != nil {
					t.Fatalf("move %d: read: %v", k, err)
				}
				if got[i]++; len(m) != size || binary.BigEndian.Uint64(m) != got[i] {
					t.Fatalf("move %d, connection %d: message %d of %d bytes where %d was due", k, i, binary.BigEndian.Uint64(m), len(m), got[i])
				}
			}
			waitEstablished(t, s)
			if info := s.Info(); info.RecvBufferedMsgs != 0 {
				t.Fatalf("move %d, connection %d: %d messages beyond those sent", k, i, info.RecvBufferedMsgs)
			}
		}
	}

	for k := 0; k < warmup; k++ {
		move(k)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for k := warmup; k < warmup+moves; k++ {
		move(k)
	}
	runtime.ReadMemStats(&m1)
	for _, a := range anchors {
		a.Close()
	}
	for _, h := range env.hosts {
		h.ctrl.Close()
	}
	// Teardown is asynchronous (read loops and flushes let go of their
	// buffers as they exit): the balance is due soon after Close, not at it.
	var drawn, returned uint64
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		hits1, misses1 := wire.PoolStats()
		drawn, returned = (hits1-hits0)+(misses1-misses0), wire.PoolReturns()-returns0
		if drawn == returned || time.Now().After(deadline) {
			break
		}
	}

	allocs := float64(hookAllocs) / (warmup + moves)
	t.Logf("%d migrations of %d x %d x %d B: %.0f allocs inside PreDepart and PostArrive, %.0f allocs and %.0f B in the whole cycle; %d pooled buffers drawn, %d returned",
		moves, conns, unread, size, allocs, float64(m1.Mallocs-m0.Mallocs)/moves, float64(m1.TotalAlloc-m0.TotalAlloc)/moves, drawn, returned)
	if raceDetector() {
		return // see TestSmallMessageSteadyState
	}
	// Measured 233 (722 with the blob in gob): the suspends' and the
	// arrival's control messages, spans and sockets, not the serialization.
	if allocs > 330 {
		t.Errorf("%.0f heap allocations inside the hooks per migration, want <= 330", allocs)
	}
	if drawn != returned {
		t.Errorf("%d pooled buffers drawn, %d returned", drawn, returned)
	}
}
