package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"naplet/internal/obs"
)

// ---- coalescing ----

// TestCoalescedWritesFlushBeforeSuspendDrain proves the write-coalescing
// barrier: frames sitting in the coalescing buffer when a suspend starts
// must reach the wire ahead of the flush marker, so the drain handshake
// still proves complete delivery. A burst of small writes is followed
// immediately by Suspend — no sleep, so frames are still buffered when the
// drain begins — and the peer must observe every message exactly once, in
// order, with the drain recorded as graceful.
func TestCoalescedWritesFlushBeforeSuspendDrain(t *testing.T) {
	regs := make(map[string]*obs.Registry)
	env := newEnv(t, []string{"h1", "h2"}, withMetrics(regs))
	client, server := env.pair("burster", "h1", "sink", "h2")
	defer client.Close()

	const burst = 500
	done := readCounters(server, burst+1)
	var seqs []uint64
	server.SetObserver(func(seq uint64, payload []byte, fromBuffer bool) {
		seqs = append(seqs, seq)
	})

	for i := 0; i < burst; i++ {
		writeCounter(t, client, i)
	}
	// Suspend immediately: the coalescing buffer almost certainly still
	// holds the tail of the burst. WriteFlush shares the buffer, so the
	// marker cannot overtake the frames.
	if err := client.Suspend(); err != nil {
		t.Fatalf("suspend: %v", err)
	}
	if err := client.Resume(); err != nil {
		t.Fatalf("resume: %v", err)
	}
	writeCounter(t, client, burst)

	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("receiver timed out; coalesced frames lost across suspend")
	}

	server.mu.Lock()
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("delivery %d carried seq %d; coalesced frames reordered or lost", i, seq)
		}
	}
	server.mu.Unlock()

	if g := regs["h1"].Snapshot().Counters["conn.drains.graceful"]; g < 1 {
		t.Fatalf("suspend drain was not graceful (graceful drains = %d): barrier flush missing", g)
	}
	if f := regs["h1"].Snapshot().Counters["data.frames"]; f != burst+1 {
		t.Fatalf("data.frames = %d, want %d", f, burst+1)
	}
	// The whole point of coalescing: far fewer flushes than frames.
	if fl := regs["h1"].Snapshot().Counters["data.flushes"]; fl >= burst {
		t.Fatalf("data.flushes = %d for %d frames; coalescing is not batching", fl, burst)
	}
}

// TestConcurrentWritersKeepWireOrder: several goroutines WriteMsg on one
// socket at once, with sizes from 1 B to 70 KiB — across the 32 KiB inline
// flush threshold and the 64 KiB send-segment rollover — while a reader
// ReadMsgs and the socket is suspended and resumed under them. Every
// writer's messages must arrive complete, in order and exactly once. A batch
// that reached the stream behind a later one would have its frames dropped
// by the peer's sequence-number dedup without a sound: this is where that
// loss becomes loud.
func TestConcurrentWritersKeepWireOrder(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"}, quickOps())
	client, server := env.pair("writers", "h1", "reader", "h2")
	defer client.Close()

	const writers, perWriter = 4, 120
	sizes := []int{1, 70 << 10, 2, 100, 33 << 10, 7, 60 << 10, 1000, 20 << 10, 9}
	// msg is writer w's message number c: the writer id, then as much of the
	// counter as fits, then filler; its size is a function of (w, c) too, so
	// a lost, repeated or reordered message changes what the reader sees.
	msg := func(w, c int) []byte {
		b := make([]byte, sizes[(c+w)%len(sizes)])
		b[0] = byte(w)
		var ctr [8]byte
		binary.BigEndian.PutUint64(ctr[:], uint64(c))
		n := copy(b[1:], ctr[:])
		for i := 1 + n; i < len(b); i++ {
			b[i] = byte(c*7 + w + i)
		}
		return b
	}

	readErr := make(chan error, 1)
	go func() {
		var next [writers]int
		for n := 0; n < writers*perWriter; n++ {
			m, err := server.ReadMsg()
			if err != nil {
				readErr <- fmt.Errorf("read %d: %w", n, err)
				return
			}
			if len(m) == 0 || int(m[0]) >= writers {
				readErr <- fmt.Errorf("read %d: %d bytes from no writer", n, len(m))
				return
			}
			w := int(m[0])
			if next[w] >= perWriter || !bytes.Equal(m, msg(w, next[w])) {
				readErr <- fmt.Errorf("read %d: writer %d's message is not its number %d (%d bytes)", n, w, next[w], len(m))
				return
			}
			next[w]++
		}
		readErr <- nil
	}()

	// The goroutines below report through errs, never through t: after a
	// failure they may still be running when the test has returned.
	errs := make(chan error, writers+1)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; c < perWriter; c++ {
				if err := client.WriteMsg(msg(w, c)); err != nil {
					errs <- fmt.Errorf("writer %d, message %d: %w", w, c, err)
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	cycled := make(chan int, 1)
	go func() {
		n := 0
		defer func() { cycled <- n }()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if err := client.Suspend(); err != nil {
				errs <- fmt.Errorf("suspend: %w", err)
				return
			}
			if err := client.Resume(); err != nil {
				errs <- fmt.Errorf("resume: %w", err)
				return
			}
			n++
		}
	}()

	select {
	case err := <-readErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("reader timed out: messages lost")
	}
	wg.Wait()
	close(stop)
	t.Logf("%d suspend/resume cycles under %d writers", <-cycled, writers)
	for len(errs) > 0 {
		t.Error(<-errs)
	}
}

// ---- event-driven waits ----

// TestIdleConnectionsNoPeriodicWakeups pins the thundering-herd fix: an
// idle node full of established connections must perform zero
// condition-variable timer wakeups. Before the fix, every blocked wait woke
// every 20 ms and Broadcast every waiter on the socket.
func TestIdleConnectionsNoPeriodicWakeups(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"}, insecure())
	const pairs = 25 // 50 connection endpoints across the two nodes
	sockets := make([]*Socket, 0, 2*pairs)
	for i := 0; i < pairs; i++ {
		c, s := env.pair(fmt.Sprintf("c%d", i), "h1", fmt.Sprintf("s%d", i), "h2")
		sockets = append(sockets, c, s)
	}
	waitEstablished(t, sockets...)

	// Park a reader on every connection so each socket has a blocked
	// waiter — the population the old code woke 50 times per tick.
	var wg sync.WaitGroup
	for _, s := range sockets[:pairs] {
		wg.Add(1)
		go func(s *Socket) {
			defer wg.Done()
			s.ReadMsg()
		}(s)
	}

	before := condTimerFires.Load()
	time.Sleep(500 * time.Millisecond)
	if delta := condTimerFires.Load() - before; delta != 0 {
		t.Fatalf("%d cond timer wakeups on an idle %d-connection node, want 0", delta, 2*pairs)
	}

	// A wait that actually reaches its deadline fires its timer exactly
	// once — the one wakeup the design budgets for.
	before = condTimerFires.Load()
	if _, err := sockets[0].waitState(100 * time.Millisecond /* no states */); err == nil {
		t.Fatal("waitState with no wanted states should time out")
	}
	if delta := condTimerFires.Load() - before; delta != 1 {
		t.Fatalf("deadline wait fired timer %d times, want 1", delta)
	}

	for _, s := range sockets[:pairs] {
		s.Close()
	}
	wg.Wait()
}

// ---- send log memory ----

// TestSendLogEvictionReleasesMemory is the regression test for the
// send-log pinning bug: eviction used to re-slice s.sendLog forward,
// leaving every evicted payload reachable through the backing array for
// the life of the connection.
func TestSendLogEvictionReleasesMemory(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"})
	client, server := env.pair("a", "h1", "b", "h2")
	defer client.Close()

	// Stream far more than maxSendLog through the connection; with evicted
	// segments recycled (and the log's backing array compacted) the heap
	// must not grow anywhere near the volume written.
	go io.Copy(io.Discard, server)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	const total = 64 << 20
	chunk := make([]byte, 1<<20)
	for sent := 0; sent < total; sent += len(chunk) {
		if _, err := client.Write(chunk); err != nil {
			t.Fatalf("write at %d: %v", sent, err)
		}
	}

	// Direct check: the log is within its bound, and the slots eviction
	// vacated in its backing array hold no buffer.
	client.mu.Lock()
	if client.sendHeld > maxSendLog {
		t.Errorf("send log holds %d bytes, cap %d", client.sendHeld, maxSendLog)
	}
	back := client.sendLog[:cap(client.sendLog)]
	for i := len(client.sendLog); i < len(back); i++ {
		if back[i].buf != nil {
			t.Errorf("evicted slot %d still pins a %d-byte segment", i, cap(back[i].buf))
		}
	}
	client.mu.Unlock()

	runtime.GC()
	runtime.GC() // second cycle lets sync.Pool victims go too
	runtime.ReadMemStats(&after)
	growth := int64(after.HeapInuse) - int64(before.HeapInuse)
	if growth > 32<<20 {
		t.Fatalf("heap grew %d MiB after streaming %d MiB; evicted send-log segments are pinned",
			growth>>20, total>>20)
	}
}

// ---- leftover provenance ----

// TestLeftoverProvenanceSurvivesMigration pins the leftoverBuf fix: the
// tail of a partially read message that crosses a migration inside the
// buffer must keep its identity — Info reports it as buffer-resident, and
// its eventual delivery is announced to the observer as a from-buffer
// event, so Fig 7's socket-vs-buffer accounting covers leftover bytes.
func TestLeftoverProvenanceSurvivesMigration(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2", "h3"})
	client, server := env.pair("mover", "h1", "anchor", "h2")

	if _, err := server.Write([]byte("12345678")); err != nil {
		t.Fatal(err)
	}
	small := make([]byte, 3)
	if _, err := io.ReadFull(client, small); err != nil {
		t.Fatal(err)
	}

	env.migrate("mover", "h1", "h3", 2)
	moved, err := env.hosts["h3"].ctrl.AgentSocket("mover", client.ID())
	if err != nil {
		t.Fatal(err)
	}

	if info := moved.Info(); !info.LeftoverFromBuffer {
		t.Fatalf("restored leftover tail lost its buffer provenance: %+v", info)
	}

	type delivery struct {
		seq        uint64
		payload    []byte
		fromBuffer bool
	}
	var deliveries []delivery
	var mu sync.Mutex
	moved.SetObserver(func(seq uint64, payload []byte, fromBuffer bool) {
		mu.Lock()
		deliveries = append(deliveries, delivery{seq, append([]byte(nil), payload...), fromBuffer})
		mu.Unlock()
	})

	rest := make([]byte, 5)
	if _, err := io.ReadFull(moved, rest); err != nil {
		t.Fatal(err)
	}
	if string(rest) != "45678" {
		t.Fatalf("leftover after migration = %q", rest)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(deliveries) != 1 {
		t.Fatalf("observer saw %d deliveries for the restored tail, want 1", len(deliveries))
	}
	d := deliveries[0]
	if d.seq != 1 || !d.fromBuffer || !bytes.Equal(d.payload, []byte("45678")) {
		t.Fatalf("restored tail delivery = seq %d fromBuffer %v payload %q; want seq 1, from buffer, %q",
			d.seq, d.fromBuffer, d.payload, "45678")
	}
}

// ---- pooled-buffer stress ----

// TestDataPlaneStressConcurrent hammers the pooled data plane from every
// side at once: a message stream with suspend/resume cycles and data-socket
// kills in both directions, plus a byte stream exercising the leftover
// path with tiny reads. Run under -race, this is the ownership/aliasing
// test for the buffer pool: any recycled-while-referenced buffer shows up
// as a data race or a corrupted counter sequence.
func TestDataPlaneStressConcurrent(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"}, quickOps())
	client, server := env.pair("chaosA", "h1", "chaosB", "h2")
	defer client.Close()

	const msgs = 4000
	var wg sync.WaitGroup

	// Direction 1: counter messages client -> server via ReadMsg, verified
	// exactly-once in order.
	readErr := make(chan error, 1)
	go func() {
		next := uint64(0)
		for n := 0; n < msgs; n++ {
			m, err := server.ReadMsg()
			if err != nil {
				readErr <- fmt.Errorf("read %d: %w", n, err)
				return
			}
			if got := binary.BigEndian.Uint64(m); got != next {
				readErr <- fmt.Errorf("delivery %d carried counter %d, want %d", n, got, next)
				return
			}
			next++
		}
		readErr <- nil
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		var payload [8]byte
		for i := 0; i < msgs; i++ {
			binary.BigEndian.PutUint64(payload[:], uint64(i))
			if err := client.WriteMsg(payload[:]); err != nil {
				t.Errorf("sending %d: %v", i, err)
				return
			}
		}
	}()

	// Direction 2: a byte stream server -> client drained through tiny
	// reads, keeping the leftover/pool recycling path hot.
	const streamBytes = 1 << 20
	streamErr := make(chan error, 1)
	go func() {
		var got int
		buf := make([]byte, 7) // never frame-aligned: every read leaves a tail
		for got < streamBytes {
			n, err := client.Read(buf)
			if err != nil {
				streamErr <- fmt.Errorf("stream read at %d: %w", got, err)
				return
			}
			got += n
		}
		streamErr <- nil
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		chunk := make([]byte, 997)
		var sent int
		for sent < streamBytes {
			if len(chunk) > streamBytes-sent {
				chunk = chunk[:streamBytes-sent]
			}
			n, err := server.Write(chunk)
			if err != nil {
				t.Errorf("stream write at %d: %v", sent, err)
				return
			}
			sent += n
		}
	}()

	// Chaos: suspend/resume cycles from the client side, data-socket kills
	// from both, all while the streams run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			time.Sleep(60 * time.Millisecond)
			if err := client.Suspend(); err != nil {
				return // connection wound down under us; streams will report
			}
			time.Sleep(20 * time.Millisecond)
			if err := client.Resume(); err != nil {
				return
			}
			time.Sleep(60 * time.Millisecond)
			if i%2 == 0 {
				client.KillDataSocket()
			} else {
				server.KillDataSocket()
			}
		}
	}()

	deadline := time.After(60 * time.Second)
	for _, ch := range []<-chan error{readErr, streamErr} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("stress streams timed out")
		}
	}
	wg.Wait()
}

// TestBulkSiblingsLeaveThePoolFree: two bulk streams and a small-message
// sibling share one encrypted transport. The bulk writers keep the
// transport's write queue at its bound, so a flush pass that wrote
// the sibling's batch from a pool worker would park that worker in
// recordFlusher.waitSpace — holding the worker every connection's pump and
// flush share. A batch the stream cannot take without waiting goes to a
// transient goroutine instead, and a window grant never waits for queue
// room: the sibling's round trips keep completing, and no goroutine dump
// taken throughout finds a pool worker inside waitSpace.
func TestBulkSiblingsLeaveThePoolFree(t *testing.T) {
	const rounds = 500
	env := newEnv(t, []string{"h1", "h2"})
	var stop atomic.Bool
	var wg sync.WaitGroup
	defer wg.Wait()
	defer stop.Store(true)
	for i := 0; i < 2; i++ {
		w, r := env.pair(fmt.Sprintf("bulk%d", i), "h1", fmt.Sprintf("drain%d", i), "h2")
		defer w.Close()
		wg.Add(2)
		go func() {
			defer wg.Done()
			msg := make([]byte, 64<<10)
			for !stop.Load() {
				if err := w.WriteMsg(msg); err != nil {
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			buf := make([]byte, 64<<10)
			for {
				if _, err := r.Read(buf); err != nil {
					return
				}
			}
		}()
	}
	client, echo := env.pair("small", "h1", "echo", "h2")
	defer client.Close()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			m, err := echo.ReadMsg()
			if err != nil || echo.WriteMsg(m) != nil {
				return
			}
		}
	}()

	var samples, parked int
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		buf := make([]byte, 1<<20)
		for !stop.Load() {
			n := runtime.Stack(buf, true)
			for _, g := range bytes.Split(buf[:n], []byte("\n\n")) {
				if bytes.Contains(g, []byte("(*dpPool).worker")) && bytes.Contains(g, []byte("(*recordFlusher).waitSpace")) {
					parked++
				}
			}
			samples++
			time.Sleep(200 * time.Microsecond)
		}
	}()

	msg := make([]byte, 100)
	var worst time.Duration
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		if err := client.WriteMsg(msg); err != nil {
			t.Fatalf("round %d: write: %v", i, err)
		}
		if _, err := client.ReadMsg(); err != nil {
			t.Fatalf("round %d: read: %v", i, err)
		}
		worst = max(worst, time.Since(t0))
	}
	stop.Store(true)
	<-sampled
	t.Logf("%d small round trips beside two bulk streams, the slowest %v; a pool worker in waitSpace in %d of %d goroutine dumps",
		rounds, worst, parked, samples)
	if parked > 0 {
		t.Errorf("a pool worker sat in waitSpace in %d of %d goroutine dumps, want none", parked, samples)
	}
}

// writeGate parks a host's kernel writes toward one peer's data address once
// held — a peer whose receive window never opens — and counts them; first
// closes at the first write it parks. Releasing it lets every parked write go
// on.
type writeGate struct {
	target  string // set before held
	held    atomic.Bool
	parked  atomic.Int64
	once    sync.Once
	first   chan struct{}
	release chan struct{}
}

type writeGatedConn struct {
	net.Conn
	g *writeGate
}

func (c writeGatedConn) Write(p []byte) (int, error) {
	if g := c.g; g.held.Load() && c.RemoteAddr().String() == g.target {
		g.parked.Add(1)
		g.once.Do(func() { close(g.first) })
		<-g.release
	}
	return c.Conn.Write(p)
}

// TestSlowPeerDoesNotStallOtherPeers: h1 holds ten connections to h2, whose
// kernel writes from h1 never complete, and one to h3. Every flush pass runs
// on the data-plane pool that all of h1's connections share, so a pass that
// waited on the kernel toward h2 would hold a worker, and ten of them hold
// them all (the pool is FIFO and at most eight strong): h3's message would
// queue behind them for as long as h2 stalls. Flush passes only hand frames
// to the transport's writer, on cleartext and sealed sessions alike, so h3's
// message arrives at once.
func TestSlowPeerDoesNotStallOtherPeers(t *testing.T) {
	for _, cleartext := range []bool{true, false} {
		name := "sealed"
		if cleartext {
			name = "cleartext"
		}
		t.Run(name, func(t *testing.T) {
			g := &writeGate{first: make(chan struct{}), release: make(chan struct{})}
			env := newEnv(t, []string{"h1", "h2", "h3"}, func(c *Config) {
				c.DisableTransportEncryption = cleartext
			}, onHost("h1", func(c *Config) {
				c.WrapData = func(conn net.Conn) net.Conn { return writeGatedConn{Conn: conn, g: g} }
			}))
			// Cleanups run last-in first-out: the gate opens before the
			// controllers close.
			t.Cleanup(func() { close(g.release) })

			writers := make([]*Socket, 10)
			for i := range writers {
				writers[i], _ = env.pair(fmt.Sprintf("w%d", i), "h1", fmt.Sprintf("r%d", i), "h2")
			}
			near, far := env.pair("near", "h1", "far", "h3")

			g.target = env.hosts["h2"].ctrl.DataAddr()
			g.held.Store(true)
			for i, w := range writers {
				if err := w.WriteMsg([]byte("toward the slow peer")); err != nil {
					t.Fatalf("writer %d: %v", i, err)
				}
			}
			select {
			case <-g.first:
			case <-time.After(5 * time.Second):
				t.Fatal("no write toward h2 reached the gate")
			}

			const msg = "toward a healthy peer"
			if err := near.WriteMsg([]byte(msg)); err != nil {
				t.Fatal(err)
			}
			got := make(chan error, 1)
			go func() {
				m, err := far.ReadMsg()
				if err == nil && string(m) != msg {
					err = fmt.Errorf("read %q", m)
				}
				got <- err
			}()
			select {
			case err := <-got:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(time.Second):
				t.Fatalf("h1's message to h3 undelivered after 1 s, with %d writes toward h2 parked", g.parked.Load())
			}
		})
	}
}
