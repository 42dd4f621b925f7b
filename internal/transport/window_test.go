package transport

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"time"

	"naplet/internal/wire"
)

// initialWindow is the per-stream credit window two default-configured
// peers negotiate.
var initialWindow = int(wire.DefaultLimits().InitialWindow)

// TestZeroWindowStallThenGrant pins the credit-window edge: a writer that
// exhausts the peer's receive window must stall (not error, not drop), and
// the first window grant after the reader drains must wake it. The full
// payload arrives byte-exact.
func TestZeroWindowStallThenGrant(t *testing.T) {
	a := newTestPeer(t, "a", true)
	b := newTestPeer(t, "b", true)
	cs, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ss := recvStream(t, b)

	// More than a full credit window, so the writer must block on credit
	// at least once before the reader consumes anything.
	payload := make([]byte, initialWindow+256<<10)
	for i := range payload {
		payload[i] = byte(i*13 + i>>10)
	}
	wrote := make(chan error, 1)
	go func() {
		_, err := cs.Write(payload)
		wrote <- err
	}()

	// The writer must be stalled: the window is exhausted and nothing has
	// been read, so Write cannot have returned.
	select {
	case err := <-wrote:
		t.Fatalf("write past a zero window returned early (err=%v)", err)
	case <-time.After(300 * time.Millisecond):
	}
	cs.mu.Lock()
	win := cs.sendWindow
	cs.mu.Unlock()
	if win != 0 {
		t.Fatalf("writer blocked with sendWindow = %d, want 0", win)
	}

	// Draining the reader issues grants and unsticks the writer.
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(ss, got); err != nil {
		t.Fatal(err)
	}
	if err := <-wrote; err != nil {
		t.Fatalf("write after grant: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted across a zero-window stall")
	}
}

// TestWindowGrantRacingClose races window grants against Close on both
// ends of a stream whose writer is parked on zero credit: the writer must
// return promptly with a stream error (never hang), and grants landing on
// the closing stream must not panic or deadlock.
func TestWindowGrantRacingClose(t *testing.T) {
	a := newTestPeer(t, "a", true)
	b := newTestPeer(t, "b", true)
	cs, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ss := recvStream(t, b)

	wrote := make(chan error, 1)
	go func() {
		_, err := cs.Write(make([]byte, initialWindow+64<<10))
		wrote <- err
	}()
	// Wait until the writer is actually parked on credit.
	deadline := time.Now().Add(5 * time.Second)
	for {
		cs.mu.Lock()
		win := cs.sendWindow
		cs.mu.Unlock()
		if win == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("writer never exhausted the window")
		}
		time.Sleep(time.Millisecond)
	}

	// Race: the peer drains (emitting grants toward cs) while cs closes.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		io.Copy(io.Discard, ss)
	}()
	go func() {
		defer wg.Done()
		cs.Close()
	}()
	select {
	case err := <-wrote:
		if err == nil {
			// The grants won the race and the write completed — also legal.
			break
		}
		if err != ErrStreamClosed {
			t.Logf("write ended with %v (closed mid-write)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocked writer hung across close racing a window grant")
	}
	ss.Close()
	wg.Wait()

	// A late grant on the closed stream must be harmless.
	cs.addSendWindow(1 << 16)
}

// TestFinWithUndeliveredSegmentsRecyclesPool closes a receiving stream
// that still holds queued pooled segments behind a received FIN: every
// segment must go back to the payload pool, not leak with the stream.
func TestFinWithUndeliveredSegmentsRecyclesPool(t *testing.T) {
	a := newTestPeer(t, "a", true)
	b := newTestPeer(t, "b", true)
	cs, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ss := recvStream(t, b)

	// Send a burst and half-close; the receiver never reads, so the
	// segments sit queued behind finSeen.
	const chunk = 8 << 10
	const chunks = 16
	for i := 0; i < chunks; i++ {
		if _, err := cs.Write(make([]byte, chunk)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cs.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	// Wait for everything (data then FIN) to land in the receive queue.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ss.mu.Lock()
		buffered, fin := len(ss.segs), ss.finSeen
		ss.mu.Unlock()
		if fin && buffered > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("undelivered data never queued (segs=%d fin=%v)", buffered, fin)
		}
		time.Sleep(time.Millisecond)
	}

	ss.mu.Lock()
	queued := len(ss.segs)
	ss.mu.Unlock()
	before := wire.PoolReturns()
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	returned := wire.PoolReturns() - before
	if returned < uint64(queued) {
		t.Fatalf("close recycled %d pooled segments, want >= %d queued", returned, queued)
	}
	ss.mu.Lock()
	leaked := len(ss.segs)
	ss.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d segments still attached after close", leaked)
	}
	// The writer side learns of the close via reset or completes cleanly;
	// either way a follow-up write must not succeed indefinitely.
	cs.SetWriteDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < 64; i++ {
		if _, err := cs.Write(make([]byte, chunk)); err != nil {
			return
		}
	}
	t.Fatal("writes kept succeeding long after the peer closed with queued data")
}

// TestTakeSegmentsMovesBytesAndCredit: the hand-over gives the caller the
// queued segments whole and in order, keeps Buffered in step, fires the
// readable hook for what arrives later, and counts as consumption — a writer
// stalled on a zero window is released by taking, with no Read anywhere.
func TestTakeSegmentsMovesBytesAndCredit(t *testing.T) {
	a := newTestPeer(t, "a", true)
	b := newTestPeer(t, "b", true)
	cs, err := a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ss := recvStream(t, b)
	readable := make(chan struct{}, 1)
	ss.SetReadable(func() {
		select {
		case readable <- struct{}{}:
		default:
		}
	})

	payload := make([]byte, initialWindow+256<<10)
	for i := range payload {
		payload[i] = byte(i*7 + i>>9)
	}
	wrote := make(chan error, 1)
	go func() {
		_, err := cs.Write(payload)
		wrote <- err
	}()

	var got []byte
	deadline := time.After(10 * time.Second)
	for len(got) < len(payload) {
		select {
		case <-readable:
		case <-deadline:
			t.Fatalf("took %d of %d bytes; %d buffered", len(got), len(payload), ss.Buffered())
		}
		for {
			before := ss.Buffered()
			segs := ss.TakeSegments(nil, 64<<10)
			if len(segs) == 0 {
				break
			}
			n := 0
			for _, seg := range segs {
				got = append(got, seg...)
				n += len(seg)
				wire.PutPayload(seg)
			}
			// The read loop may have queued more meanwhile, never less.
			if after := ss.Buffered(); after < before-n {
				t.Fatalf("Buffered went from %d to %d across a hand-over of %d bytes", before, after, n)
			}
		}
	}
	if err := <-wrote; err != nil {
		t.Fatalf("write released by taking: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("segments handed over out of order or altered")
	}
	if n := ss.Buffered(); n != 0 {
		t.Fatalf("%d bytes buffered after everything was taken", n)
	}
}
