package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"naplet/internal/netem"
	"naplet/internal/obs"
	"naplet/internal/wire"
)

// These tests pin the one rule that frees the send log: a frame leaves it
// only when a cursor the peer reported (LastSeq of a SUS or RES, of their
// grants, or of a handoff header) covers it, or credit has let the log evict
// it. A drain, graceful or not, proves nothing about what the peer holds.

// inFlight delays every mux frame by d, so that a suspend always finds data
// on the wire.
func inFlight(d time.Duration) envOption {
	return func(c *Config) {
		c.WrapData = func(conn net.Conn) net.Conn { return netem.Delay(conn, d) }
	}
}

// givesUpDrain builds a host whose every drain gives up at once: its bounded
// wait for the peer's flush marker ends before the marker can arrive.
func givesUpDrain(host string) envOption {
	return onHost(host, func(c *Config) { c.DrainTimeout = time.Nanosecond })
}

// readBigMsgs reads bigMsg(from) .. bigMsg(to-1) from s in order, and fails
// the test if a message is wrong or they take more than 10 s; a stall
// reports the cursors of the writing end w and of s.
func readBigMsgs(t *testing.T, s, w *Socket, from, to int) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		for i := from; i < to; i++ {
			m, err := s.ReadMsg()
			if err != nil {
				done <- fmt.Errorf("read %d: %w", i, err)
				return
			}
			if !bytes.Equal(m, bigMsg(i)) {
				done <- fmt.Errorf("message %d arrived as message %d (%d bytes)", i, binary.BigEndian.Uint64(m), len(m))
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		w.mu.Lock()
		sent, logged := w.nextSendSeq-1, len(w.sendLog)
		w.mu.Unlock()
		t.Fatalf("reader stalled: writer sent up to %d and holds %d log segments, reader has up to %d",
			sent, logged, s.delivered())
	}
}

// TestSuspenderGivesUpItsDrain: the mover's drain gives up while the
// anchor's completes. The anchor's graceful drain proves only that it has
// the mover's data; the frames it had in flight died with the mover's
// stream, and its send log must still hold them for the resume.
func TestSuspenderGivesUpItsDrain(t *testing.T) {
	const msgs = 24
	env := newEnv(t, []string{"h1", "h2"}, quickOps(), inFlight(10*time.Millisecond), givesUpDrain("h2"))
	anchor, mover := env.pair("anchor", "h1", "mover", "h2")
	defer anchor.Close()

	wrote := make(chan error, 1)
	go func() {
		for i := 0; i < msgs; i++ {
			if err := anchor.WriteMsg(bigMsg(i)); err != nil {
				wrote <- fmt.Errorf("write %d: %w", i, err)
				return
			}
		}
		wrote <- nil
	}()
	// From the first message on, the anchor's frames spend 10 ms on the wire.
	eventually(t, "the anchor to write", func() bool {
		anchor.mu.Lock()
		defer anchor.mu.Unlock()
		return anchor.flushedSeq > 0
	})
	if err := mover.Suspend(); err != nil {
		t.Fatal(err)
	}
	if err := mover.Resume(); err != nil {
		t.Fatal(err)
	}
	readBigMsgs(t, mover, anchor, 0, msgs)
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
}

// TestResponderGivesUpItsDrain: the anchor's drain gives up while the
// mover's completes, and the mover migrates. What the mover wrote before it
// left was in flight to a stream the anchor closed; the migration blob must
// carry it to the mover's next host, which retransmits it.
func TestResponderGivesUpItsDrain(t *testing.T) {
	const msgs = 24
	env := newEnv(t, []string{"h1", "h2", "h3"}, quickOps(), inFlight(10*time.Millisecond), givesUpDrain("h1"))
	anchor, mover := env.pair("anchor", "h1", "mover", "h2")
	defer anchor.Close()

	for i := 0; i < msgs; i++ {
		if err := mover.WriteMsg(bigMsg(i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	env.migrate("mover", "h2", "h3", 2)
	moved, err := env.hosts["h3"].ctrl.AgentSocket("mover", mover.ID())
	if err != nil {
		t.Fatal(err)
	}
	readBigMsgs(t, anchor, moved, 0, msgs)
}

// TestBurstsUnreadAcrossMigrations is the control cycle of the benchmark
// with 64 KiB messages: on each of two otherwise silent connections the
// anchor leaves 6 to 10 messages of 64 KiB unread, and the mover migrates
// round three hosts and reads every one of them at the next. 200 cycles
// here; make handoff-soak runs 10,000.
func TestBurstsUnreadAcrossMigrations(t *testing.T) {
	const (
		conns  = 2
		cycles = 200
	)
	env := newEnv(t, []string{"h1", "h2", "h3", "h4"}, quickOps(), func(c *Config) {
		c.Logger = obs.NewLogger(t.Logf, obs.LevelWarn)
	})
	env.place("mover", "h1")
	var anchors [conns]*Socket
	var ids [conns]wire.ConnID
	for i := range anchors {
		name := fmt.Sprintf("anchor%d", i)
		env.place(name, "h4")
		c, s := env.connect("mover", "h1", name, "h4")
		anchors[i], ids[i] = s, c.ID()
	}
	rng := rand.New(rand.NewSource(1))
	hosts := []string{"h1", "h2", "h3"}
	var sent, got [conns]int
	for k := 0; k < cycles; k++ {
		for i, a := range anchors {
			for j := 6 + rng.Intn(5); j > 0; j-- {
				if err := a.WriteMsg(bigMsg(sent[i])); err != nil {
					t.Fatalf("cycle %d: write: %v", k, err)
				}
				sent[i]++
			}
		}
		from, to := hosts[k%3], hosts[(k+1)%3]
		env.migrate("mover", from, to, uint64(k+2))
		for i, id := range ids {
			s, err := env.hosts[to].ctrl.AgentSocket("mover", id)
			if err != nil {
				t.Fatalf("cycle %d: %v", k, err)
			}
			readBigMsgs(t, s, anchors[i], got[i], sent[i])
			got[i] = sent[i]
		}
	}
}

// TestGapToEmptyLogUnrecoverable: a peer cursor short of the next frame we
// would send is a loss even when the send log is empty — nothing can be
// retransmitted, and a reader waiting for the missing frames would wait for
// ever.
func TestGapToEmptyLogUnrecoverable(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"}, quickOps())
	client, server := env.pair("src", "h1", "sink", "h2")
	defer client.Close()

	for i := 0; i < 5; i++ {
		writeCounter(t, client, i)
	}
	eventually(t, "the sink to hold all five messages", func() bool { return server.delivered() == 5 })
	client.mu.Lock()
	client.trimSendLogLocked(5)
	logged, sock := len(client.sendLog), client.sock
	client.mu.Unlock()
	if logged != 0 {
		t.Fatalf("send log keeps %d segments the peer acknowledged", logged)
	}
	if err := client.installSocket(sock, 3); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("retransmit from 4 with an empty log at 6: %v, want ErrUnrecoverable", err)
	}
}

// TestAdmitRefusesSeqGap: the pump admits the next data frame and drops a
// duplicate, but a frame past the next is lost data, not something to step
// over.
func TestAdmitRefusesSeqGap(t *testing.T) {
	w := frameWalk{last: 3}
	buf := frameTrain(3, []byte("dup"), []byte("next"))
	buf = append(buf, frameTrain(6, []byte("gap"))...)
	start, stop, end, err := w.admit(buf, 0)
	if !errors.Is(err, errSeqGap) {
		t.Fatalf("admit over frames 3, 4, 6 after 3: %v, want errSeqGap", err)
	}
	next := len(frameTrain(3, []byte("dup")))
	if want := next + len(frameTrain(4, []byte("next"))); start != next || stop != want || end != want || w.last != 4 {
		t.Fatalf("admitted [%d, %d) to %d up to %d, want frame 4 alone: [%d, %d) to %d up to 4", start, stop, end, w.last, next, want, want)
	}
}
