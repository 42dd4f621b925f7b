package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"naplet/internal/wire"
)

// These tests pin the data plane's one representation — runs of encoded
// frames in pooled segments — at its seams: segment boundaries in the pump,
// the bounds counted in held bytes, a retransmit that starts inside a
// segment, and the conversion to and from the checkpoint form.

// frameTrain encodes payloads as consecutive data frames starting at seq.
func frameTrain(seq uint64, payloads ...[]byte) []byte {
	var b []byte
	for i, p := range payloads {
		b, _ = wire.AppendFrame(b, wire.Frame{Seq: seq + uint64(i), Flags: wire.FlagData, Payload: p})
	}
	return b
}

// pooledCopy is b in a pooled buffer of its own, as the transport's read
// loop would hand it over.
func pooledCopy(b []byte) []byte {
	seg := wire.GetPayload(len(b))
	copy(seg, b)
	return seg
}

func seededBytes(rng *rand.Rand, n int) []byte {
	p := make([]byte, n)
	rng.Read(p)
	return p
}

// quiescent fails the test unless the receive side of s holds nothing and
// has nothing left to do: ROADMAP item 1's "no quiescent state with
// undelivered bytes", stated for the pump.
func quiescent(t *testing.T, s *Socket, dec *wire.FrameDecoder, when string) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.recvQ) != 0 || s.recvHeld != 0 || s.readDone != 0 {
		t.Fatalf("%s: receive buffer not read out: %d segments, %d bytes held, %d bytes into a frame",
			when, len(s.recvQ), s.recvHeld, s.readDone)
	}
	if dec.Partial() {
		t.Fatalf("%s: the pump sits on part of a frame with nothing more to come", when)
	}
	if s.pumpReq.Load() || s.pumpPaused {
		t.Fatalf("%s: pump event pending (%v) or pump paused (%v) with everything delivered",
			when, s.pumpReq.Load(), s.pumpPaused)
	}
	if s.sock != nil && s.sock.Buffered() != 0 {
		t.Fatalf("%s: %d bytes left in the stream", when, s.sock.Buffered())
	}
}

// TestPumpDeliversAcrossEverySplit hands the pump one 64 KiB frame among
// runs of 100 B frames cut in two at every byte offset — inside headers,
// inside payloads, on frame boundaries — as one hand-over or two, with a
// readable event fired on the idle stream before and after each, and
// requires every byte delivered in order with nothing left anywhere and no
// event pending. A frame that straddles the cut is the one case the pump
// copies; everything else is queued where it lies.
func TestPumpDeliversAcrossEverySplit(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"})
	client, server := env.pair("src", "h1", "sink", "h2")
	defer client.Close()

	rng := rand.New(rand.NewSource(17))
	payloads := [][]byte{
		seededBytes(rng, 100), seededBytes(rng, 100), seededBytes(rng, 100),
		seededBytes(rng, 64<<10),
		seededBytes(rng, 100), seededBytes(rng, 100), {}, seededBytes(rng, 100),
	}
	want := bytes.Join(payloads, nil)
	got := make([]byte, len(want))

	stride := 1
	if testing.Short() || raceDetector() {
		stride = 61 // the race detector checks the locking, not the arithmetic
	}
	hits0, misses0 := wire.PoolStats()
	returns0 := wire.PoolReturns()
	seq := server.delivered() + 1
	for cut := 1; ; cut += stride {
		train := frameTrain(seq, payloads...)
		if cut >= len(train) {
			break
		}
		seq += uint64(len(payloads))
		when := fmt.Sprintf("cut at %d of %d", cut, len(train))
		dec := &wire.FrameDecoder{}
		handOvers := [][][]byte{{pooledCopy(train[:cut]), pooledCopy(train[cut:])}}
		if cut%2 == 1 {
			handOvers = [][][]byte{handOvers[0][:1], handOvers[0][1:]}
		}
		server.pumpEvent()
		for _, segs := range handOvers {
			server.pumpMu.Lock()
			ok, err := server.ingest(server.gen, dec, server.delivered(), segs)
			server.pumpMu.Unlock()
			if !ok || err != nil {
				t.Fatalf("%s: ingest: ok=%v err=%v", when, ok, err)
			}
			server.pumpEvent()
		}
		if info := server.Info(); info.RecvBufferedBytes != len(want) || info.RecvBufferedMsgs != len(payloads) {
			t.Fatalf("%s: %d bytes in %d messages buffered, want %d in %d",
				when, info.RecvBufferedBytes, info.RecvBufferedMsgs, len(want), len(payloads))
		}
		// Everything is buffered, so these reads cannot block; uneven read
		// sizes leave the cursor inside frames on the way.
		for n := 0; n < len(got); {
			m, err := server.Read(got[n:min(len(got), n+40_000)])
			if err != nil {
				t.Fatalf("%s: read at %d: %v", when, n, err)
			}
			n += m
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: delivered bytes differ from those sent", when)
		}
		quiescent(t, server, dec, when)
	}
	// (The idle connection underneath may still return a buffer or two it
	// drew while being set up; the pump must not keep any.)
	hits, misses := wire.PoolStats()
	if drawn, returned := (hits-hits0)+(misses-misses0), wire.PoolReturns()-returns0; drawn > returned {
		t.Fatalf("%d pooled buffers drawn, %d returned", drawn, returned)
	}
}

// TestPumpDeliversLiveSplits is the same property end to end: the raw bytes
// of a frame train go onto the live stream in two writes — cleartext, so two
// mux frames, two segments at the receiver — with spurious readable events
// around them, and the reader must get every byte without a further event.
func TestPumpDeliversLiveSplits(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"}, func(c *Config) { c.DisableTransportEncryption = true })
	client, server := env.pair("src", "h1", "sink", "h2")
	defer client.Close()

	rng := rand.New(rand.NewSource(23))
	payloads := [][]byte{seededBytes(rng, 100), seededBytes(rng, 300), seededBytes(rng, 64<<10), seededBytes(rng, 100)}
	want := bytes.Join(payloads, nil)
	got := make([]byte, len(want))
	client.mu.Lock()
	raw := client.sock
	client.mu.Unlock()

	trainLen := len(frameTrain(1, payloads...))
	var cuts []int
	for cut := 1; cut < trainLen; cut++ {
		// Every offset through the small frames and the big frame's header,
		// the tail of the big frame and what follows it, and a sample of
		// its payload.
		if cut < 500 || cut > trainLen-200 || cut%4099 == 0 {
			cuts = append(cuts, cut)
		}
	}
	seq := uint64(1)
	for _, cut := range cuts {
		train := frameTrain(seq, payloads...)
		seq += uint64(len(payloads))
		server.schedulePump()
		for _, part := range [][]byte{train[:cut], train[cut:]} {
			if _, err := raw.Write(part); err != nil {
				t.Fatal(err)
			}
			server.schedulePump()
		}
		done := make(chan error, 1)
		go func() {
			_, err := io.ReadFull(server, got)
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("cut at %d: %v", cut, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("cut at %d: quiescent with undelivered bytes: %+v", cut, server.Info())
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("cut at %d: delivered bytes differ from those sent", cut)
		}
	}
	// The spurious events drain on the worker pool; then nothing is left.
	deadline := time.Now().Add(5 * time.Second)
	for (server.pumpReq.Load() || server.dpQueued.Load()) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	server.pumpMu.Lock()
	dec := server.pumpDec
	server.pumpMu.Unlock()
	quiescent(t, server, dec, "after the last cut")
}

// TestBuffersBoundHeldBytes: maxSendLog and maxRecvBuffer bound the memory
// the buffers hold — segment capacities, headers and slack included — not
// the payload bytes in them. With the reader idle the writer fills everything
// there is and stalls; both ends then hold at most their bound plus one
// segment, every message still arrives exactly once, and an eviction the peer
// needed is still an unrecoverable failure, not silence.
func TestBuffersBoundHeldBytes(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"}, noFailureResume())
	client, server := env.pair("src", "h1", "sink", "h2")
	defer client.Close()

	const msgs, size = 100_000, 100
	hits0, misses0 := wire.PoolStats()
	returns0 := wire.PoolReturns()
	wrote := make(chan error, 1)
	go func() {
		msg := make([]byte, size)
		for i := 0; i < msgs; i++ {
			msg[0], msg[1], msg[2] = byte(i), byte(i>>8), byte(i>>16)
			if _, err := client.Write(msg); err != nil {
				wrote <- err
				return
			}
		}
		wrote <- nil
	}()

	// Wait for the writer to stall against the unread receive buffer.
	for last, still := uint64(0), 0; still < 20; {
		time.Sleep(10 * time.Millisecond)
		if next := client.Info().NextSendSeq; next == last {
			still++
		} else {
			last, still = next, 0
		}
	}
	client.mu.Lock()
	sendHeld, sendSegs := client.sendHeld, len(client.sendLog)
	client.mu.Unlock()
	server.mu.Lock()
	recvHeld, recvSegs := server.recvHeld, len(server.recvQ)
	server.mu.Unlock()
	if sendHeld > maxSendLog+sendSegBytes {
		t.Errorf("send log holds %d bytes in %d segments, bound %d", sendHeld, sendSegs, maxSendLog)
	}
	if recvHeld > maxRecvBuffer+sendSegBytes {
		t.Errorf("receive buffer holds %d bytes in %d segments, bound %d", recvHeld, recvSegs, maxRecvBuffer)
	}
	if recvHeld < maxRecvBuffer/2 {
		t.Errorf("receive buffer holds %d bytes with the writer stalled; the bound is %d", recvHeld, maxRecvBuffer)
	}
	hits, misses := wire.PoolStats()
	if out := int((hits-hits0)+(misses-misses0)) - int(wire.PoolReturns()-returns0); out > 4*(maxSendLog+maxRecvBuffer)/sendSegBytes {
		t.Errorf("%d pooled buffers outstanding for %d held bytes", out, sendHeld+recvHeld)
	}

	buf := make([]byte, 64<<10/size*size)
	for i := 0; i < msgs; {
		n, err := io.ReadAtLeast(server, buf, size)
		if err != nil {
			t.Fatalf("read at message %d: %v", i, err)
		}
		n -= n % size
		for off := 0; off < n; off, i = off+size, i+1 {
			if m := buf[off:]; m[0] != byte(i) || m[1] != byte(i>>8) || m[2] != byte(i>>16) {
				t.Fatalf("message %d carries counter %d", i, int(m[0])|int(m[1])<<8|int(m[2])<<16)
			}
		}
		if rest := n % size; rest != 0 {
			t.Fatalf("read ended %d bytes into a message", rest)
		}
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}

	// The log has evicted its head by now: a peer that reports less than
	// the log still covers cannot be served.
	client.mu.Lock()
	first, sock := client.sendLog[0].first, client.sock
	client.mu.Unlock()
	if first < 3 {
		t.Fatalf("send log still starts at %d after %d messages", first, msgs)
	}
	if err := client.installSocket(sock, first-2); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("retransmit from %d with the log starting at %d: %v, want ErrUnrecoverable", first-1, first, err)
	}
}

// TestRetransmitStartsInsideSegment: the peer's high-water mark after a
// failure lands in the middle of a send segment. The segment stays whole in
// the log and the retransmit starts at the first frame the peer lacks; the
// receiver, which never saw the rest, gets each message exactly once.
func TestRetransmitStartsInsideSegment(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"}, quickOps())
	client, server := env.pair("src", "h1", "sink", "h2")
	defer client.Close()

	for i := 0; i < 5; i++ {
		writeCounter(t, client, i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for server.delivered() < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("receiver has %d of 5 messages", server.delivered())
		}
		time.Sleep(time.Millisecond)
	}
	// With the pump held, five more frames — same send segment — reach the
	// receiver's stream at most, and killing it loses them there.
	server.pumpMu.Lock()
	for i := 5; i < 10; i++ {
		writeCounter(t, client, i)
	}
	client.mu.Lock()
	if len(client.sendLog) != 1 || client.sendLog[0].first != 1 || client.sendLog[0].last != 10 {
		t.Errorf("send log is not one segment of frames 1..10: %+v", client.sendLog)
	}
	client.mu.Unlock()
	server.KillDataSocket()
	server.pumpMu.Unlock()

	var seqs []uint64
	server.SetObserver(func(seq uint64, _ []byte, _ bool) { seqs = append(seqs, seq) })
	select {
	case err := <-readCounters(server, 10):
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("receiver stuck after the retransmit: %+v", server.Info())
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("delivery %d carried seq %d: %v", i, seq, seqs)
		}
	}
}

// TestExactlyOnceOverSegmentBoundaries is the seeded property test: a
// message stream of sizes chosen to sit on every boundary the segments have
// (1 B, 100 B, a byte either side of a segment, 64 KiB, 1 MiB), read in
// uneven pieces while the reading agent suspends and resumes, migrates, and
// has its data socket killed, must arrive byte-exact, in order, exactly
// once — and the Fig 7 observer must see each message once with its
// sequence number and payload, plus the from-buffer remainder of one cut by
// a migration.
func TestExactlyOnceOverSegmentBoundaries(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2", "h3"}, quickOps())
	mover, anchor := env.pair("mover", "h1", "anchor", "h2")
	id := mover.ID()

	rng := rand.New(rand.NewSource(0x5e9))
	sizes := []int{1, 100, sendSegBytes - wire.FrameHeaderSize - 1, sendSegBytes - wire.FrameHeaderSize + 1, 64 << 10, 1 << 20}
	var msgs [][]byte
	for total := 0; total < 12<<20; {
		n := sizes[rng.Intn(len(sizes))]
		if n == 1<<20 && rng.Intn(4) != 0 {
			n = 100
		}
		msgs = append(msgs, seededBytes(rng, n))
		total += n
	}
	want := bytes.Join(msgs, nil)

	go func() {
		for i, m := range msgs {
			if err := anchor.WriteMsg(m); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
	}()

	// The observer checks each delivery against the message its sequence
	// number names: all of it, or — for the tail restored after a migration
	// — the rest of it, from the buffer.
	var obsMu sync.Mutex
	var nextSeq uint64 = 1
	var tails int
	observe := func(seq uint64, payload []byte, fromBuffer bool) {
		obsMu.Lock()
		defer obsMu.Unlock()
		switch m := msgs[seq-1]; {
		case seq == nextSeq && bytes.Equal(payload, m):
			nextSeq++
		case seq == nextSeq-1 && fromBuffer && len(payload) < len(m) && bytes.HasSuffix(m, payload):
			tails++
		default:
			t.Errorf("observer: seq %d (next %d) fromBuffer %v with %d bytes, message has %d",
				seq, nextSeq, fromBuffer, len(payload), len(m))
		}
	}
	mover.SetObserver(observe)

	hosts := []string{"h1", "h3"}
	at, epoch := 0, uint64(2)
	buf := make([]byte, 200<<10)
	for got, step := 0, 0; got < len(want); step++ {
		n, err := mover.Read(buf[:1+rng.Intn(len(buf))])
		if err != nil {
			t.Fatalf("read at %d: %v", got, err)
		}
		if !bytes.Equal(buf[:n], want[got:got+n]) {
			t.Fatalf("bytes %d..%d differ from those sent", got, got+n)
		}
		got += n
		switch step % 40 {
		case 9:
			if err := mover.Suspend(); err != nil {
				t.Fatalf("suspend: %v", err)
			}
			if err := mover.Resume(); err != nil {
				t.Fatalf("resume: %v", err)
			}
		case 19, 39:
			if step%80 == 19 {
				mover.KillDataSocket()
			} else {
				anchor.KillDataSocket()
			}
		case 29:
			env.migrate("mover", hosts[at], hosts[1-at], epoch)
			at, epoch = 1-at, epoch+1
			if mover, err = env.hosts[hosts[at]].ctrl.AgentSocket("mover", id); err != nil {
				t.Fatal(err)
			}
			mover.SetObserver(observe)
		}
	}
	obsMu.Lock()
	defer obsMu.Unlock()
	if nextSeq != uint64(len(msgs))+1 {
		t.Errorf("observer saw messages up to %d of %d", nextSeq-1, len(msgs))
	}
	t.Logf("%d messages, %d bytes; %d tails crossed a migration half read", len(msgs), len(want), tails)
	mover.Close()
}
