package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"naplet/internal/fsm"
	"naplet/internal/obs"
	"naplet/internal/wire"
)

// ---- single migration (Section 3.1) ----

func TestSingleMigrationStationaryPeer(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2", "h3"})
	client, server := env.pair("mover", "h1", "anchor", "h2")

	if _, err := client.Write([]byte("pre")); err != nil {
		t.Fatal(err)
	}
	env.migrate("mover", "h1", "h3", 2)

	// The mover's endpoint now lives in h3's controller.
	moved, err := env.hosts["h3"].ctrl.AgentSocket("mover", client.ID())
	if err != nil {
		t.Fatal(err)
	}
	waitEstablished(t, moved, server)
	if _, err := moved.Write([]byte("-post")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len("pre-post"))
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "pre-post" {
		t.Fatalf("read %q", got)
	}
	// And the reverse direction works on the resumed socket.
	if _, err := server.Write([]byte("back")); err != nil {
		t.Fatal(err)
	}
	got = make([]byte, 4)
	if _, err := io.ReadFull(moved, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "back" {
		t.Fatalf("mover read %q", got)
	}
	// The old host no longer knows the connection.
	if _, err := env.hosts["h1"].ctrl.AgentSocket("mover", client.ID()); err == nil {
		t.Fatal("old host still holds the connection")
	}
}

func TestMigrationCarriesUndeliveredData(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2", "h3"})
	client, server := env.pair("mover", "h1", "anchor", "h2")
	_ = server

	// The anchor sends a burst the mover never reads before migrating: it
	// must arrive from the buffer after landing, in order, exactly once.
	const n = 100
	for i := 0; i < n; i++ {
		if err := server.WriteMsg([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	env.migrate("mover", "h1", "h3", 2)
	moved, err := env.hosts["h3"].ctrl.AgentSocket("mover", client.ID())
	if err != nil {
		t.Fatal(err)
	}
	var buffered int
	moved.SetObserver(func(seq uint64, payload []byte, fromBuffer bool) {
		if fromBuffer {
			buffered++
		}
	})
	for i := 0; i < n; i++ {
		m, err := moved.ReadMsg()
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if m[0] != byte(i) {
			t.Fatalf("msg %d: got %d", i, m[0])
		}
	}
	if buffered == 0 {
		t.Fatal("no messages attributed to the migrated buffer (Fig 7 light dots)")
	}
	t.Logf("delivered %d messages, %d via migrated buffer", n, buffered)
}

func TestChainedMigrations(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2", "h3", "h4"})
	client, server := env.pair("mover", "h1", "anchor", "h2")

	hosts := []string{"h3", "h4", "h1", "h3"}
	from := "h1"
	id := client.ID()
	for hop, to := range hosts {
		epoch := uint64(hop + 2)
		env.migrate("mover", from, to, epoch)
		moved, err := env.hosts[to].ctrl.AgentSocket("mover", id)
		if err != nil {
			t.Fatalf("hop %d: %v", hop, err)
		}
		waitEstablished(t, moved)
		msg := fmt.Sprintf("hop-%d", hop)
		if err := moved.WriteMsg([]byte(msg)); err != nil {
			t.Fatalf("hop %d write: %v", hop, err)
		}
		got, err := server.ReadMsg()
		if err != nil {
			t.Fatalf("hop %d read: %v", hop, err)
		}
		if string(got) != msg {
			t.Fatalf("hop %d: got %q want %q", hop, got, msg)
		}
		from = to
	}
}

func TestMigrationOfServerSideAgent(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2", "h3"})
	client, server := env.pair("stationary", "h1", "mover", "h2")

	if err := client.WriteMsg([]byte("before")); err != nil {
		t.Fatal(err)
	}
	if m, _ := server.ReadMsg(); string(m) != "before" {
		t.Fatal("pre-migration message lost")
	}

	env.migrate("mover", "h2", "h3", 2)
	moved, err := env.hosts["h3"].ctrl.AgentSocket("mover", server.ID())
	if err != nil {
		t.Fatal(err)
	}
	waitEstablished(t, moved, client)
	if err := client.WriteMsg([]byte("after")); err != nil {
		t.Fatal(err)
	}
	if m, err := moved.ReadMsg(); err != nil || string(m) != "after" {
		t.Fatalf("post-migration: %q, %v", m, err)
	}
}

// ---- concurrent migration (Sections 3.1–3.2) ----

func TestConcurrentMigrationBothEndpoints(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2", "h3", "h4"})
	client, server := env.pair("left", "h1", "right", "h2")

	if err := client.WriteMsg([]byte("pre-l")); err != nil {
		t.Fatal(err)
	}
	if err := server.WriteMsg([]byte("pre-r")); err != nil {
		t.Fatal(err)
	}

	// Both agents migrate at the same time: the overlapped/non-overlapped
	// machinery must serialize the two connection migrations.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		env.migrate("left", "h1", "h3", 2)
	}()
	go func() {
		defer wg.Done()
		env.migrate("right", "h2", "h4", 2)
	}()
	wg.Wait()

	movedL, err := env.hosts["h3"].ctrl.AgentSocket("left", client.ID())
	if err != nil {
		t.Fatal(err)
	}
	movedR, err := env.hosts["h4"].ctrl.AgentSocket("right", server.ID())
	if err != nil {
		t.Fatal(err)
	}
	waitEstablished(t, movedL, movedR)

	// Pre-migration messages survived.
	if m, err := movedR.ReadMsg(); err != nil || string(m) != "pre-l" {
		t.Fatalf("right pre msg: %q, %v", m, err)
	}
	if m, err := movedL.ReadMsg(); err != nil || string(m) != "pre-r" {
		t.Fatalf("left pre msg: %q, %v", m, err)
	}
	// And the resumed connection carries new traffic both ways.
	if err := movedL.WriteMsg([]byte("post-l")); err != nil {
		t.Fatal(err)
	}
	if err := movedR.WriteMsg([]byte("post-r")); err != nil {
		t.Fatal(err)
	}
	if m, err := movedR.ReadMsg(); err != nil || string(m) != "post-l" {
		t.Fatalf("right post msg: %q, %v", m, err)
	}
	if m, err := movedL.ReadMsg(); err != nil || string(m) != "post-r" {
		t.Fatalf("left post msg: %q, %v", m, err)
	}
}

func TestRepeatedConcurrentMigrations(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2", "h3", "h4"})
	client, server := env.pair("left", "h1", "right", "h2")

	locL, locR := "h1", "h2"
	destsL := []string{"h3", "h1", "h3"}
	destsR := []string{"h4", "h2", "h4"}
	for round := 0; round < 3; round++ {
		epoch := uint64(round + 2)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			env.migrate("left", locL, destsL[round], epoch)
		}()
		go func() {
			defer wg.Done()
			env.migrate("right", locR, destsR[round], epoch)
		}()
		wg.Wait()
		locL, locR = destsL[round], destsR[round]

		movedL, err := env.hosts[locL].ctrl.AgentSocket("left", client.ID())
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		movedR, err := env.hosts[locR].ctrl.AgentSocket("right", server.ID())
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		waitEstablished(t, movedL, movedR)
		msg := fmt.Sprintf("round-%d", round)
		if err := movedL.WriteMsg([]byte(msg)); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if m, err := movedR.ReadMsg(); err != nil || string(m) != msg {
			t.Fatalf("round %d: %q, %v", round, m, err)
		}
	}
}

// TestNonOverlappedConcurrentMigration reproduces Fig 4(b): the second
// agent decides to migrate while the first is mid-flight.
func TestNonOverlappedConcurrentMigration(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2", "h3", "h4"})
	client, server := env.pair("first", "h1", "second", "h2")

	// Suspend phase of agent "first" completes, but it has not landed yet.
	blobFirst, err := env.hosts["h1"].ctrl.PreDepart("first")
	if err != nil {
		t.Fatal(err)
	}

	// Meanwhile the peer starts its own migration; its suspend finds the
	// connection remotely suspended.
	secondDone := make(chan []byte, 1)
	go func() {
		blob, err := env.hosts["h2"].ctrl.PreDepart("second")
		if err != nil {
			t.Error(err)
			secondDone <- nil
			return
		}
		secondDone <- blob
	}()

	// "first" lands; its resume finds "second" migrating and parks or
	// retries until "second" lands too.
	if err := env.svc.Update("first", env.hosts["h3"].loc(), 2); err != nil {
		t.Fatal(err)
	}
	if err := env.hosts["h3"].ctrl.PostArrive("first", blobFirst); err != nil {
		t.Fatal(err)
	}

	blobSecond := <-secondDone
	if blobSecond == nil {
		t.Fatal("second PreDepart failed")
	}
	if err := env.svc.Update("second", env.hosts["h4"].loc(), 2); err != nil {
		t.Fatal(err)
	}
	if err := env.hosts["h4"].ctrl.PostArrive("second", blobSecond); err != nil {
		t.Fatal(err)
	}

	movedA, err := env.hosts["h3"].ctrl.AgentSocket("first", client.ID())
	if err != nil {
		t.Fatal(err)
	}
	movedB, err := env.hosts["h4"].ctrl.AgentSocket("second", server.ID())
	if err != nil {
		t.Fatal(err)
	}
	waitEstablished(t, movedA, movedB)
	if err := movedA.WriteMsg([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if m, err := movedB.ReadMsg(); err != nil || string(m) != "hello" {
		t.Fatalf("got %q, %v", m, err)
	}
}

// ---- multiple connections (Section 3.2) ----

// The resume race of Fig 5 costs a retry, not an operation timeout: the
// low-priority mover must not sit out the high side's RES while that RES is
// parked at the host the mover left. So no resume times out on any host, no
// wait runs out its deadline, and each mover's endpoint sends one RES (or
// SUS_RES), plus one for each refusal that asks it to try again: any number
// of resume races, and at most one refusal because its peer has moved on or
// not landed yet (its first RES can meet the host the peer has just left).
func TestConcurrentMigrationWithMultipleConnections(t *testing.T) {
	var timeouts, races atomic.Int64
	var moverRequests sync.Map // RUDP id of a request h3 or h4 sent -> the host
	var mu sync.Mutex
	chased := map[string]int{} // refusals other than a race, per mover endpoint
	env := newEnv(t, []string{"h1", "h2", "h3", "h4"}, func(c *Config) {
		host := c.HostName
		c.ControlDropFn = func(pkt []byte) bool {
			const rudpHeader, kindRequest, kindResponse = 12, 1, 2
			if len(pkt) <= rudpHeader {
				return false
			}
			switch id := binary.BigEndian.Uint64(pkt[4:rudpHeader]); {
			case pkt[3] == kindRequest && (host == "h3" || host == "h4"):
				moverRequests.Store(id, host)
			case pkt[3] == kindResponse:
				r, err := wire.DecodeControlReply(pkt[rudpHeader:])
				if err != nil || r.Verdict != wire.VerdictReject || r.Code == wire.RejectOther {
					return false
				}
				mover, mine := moverRequests.LoadAndDelete(id)
				switch {
				case !mine:
				case r.Code == wire.RejectResumeRace:
					races.Add(1)
				default:
					mu.Lock()
					chased[fmt.Sprintf("%s %s", mover, r.ConnID)]++
					mu.Unlock()
				}
			}
			return false
		}
		c.Logger = obs.NewLogger(func(format string, args ...any) {
			line := fmt.Sprintf(format, args...)
			for _, st := range []fsm.State{fsm.ResSent, fsm.ResAcked, fsm.ResumeWait} {
				if strings.Contains(line, st.String()+" --["+fsm.Timeout.String()+"]-->") {
					timeouts.Add(1)
				}
			}
			t.Log(line)
		}, obs.LevelDebug)
	})

	// Two connections between the same pair of agents (Fig 5's #1 and #2):
	// one opened by each side.
	c1, s1 := env.pair("alpha", "h1", "beta", "h2")
	// Second connection, opened in the other direction.
	hb, ha := env.hosts["h2"], env.hosts["h1"]
	ssA, err := ha.ctrl.ListenAs("alpha", ha.cred("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	acceptCh := make(chan *Socket, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s, err := ssA.Accept(ctx)
		if err == nil {
			acceptCh <- s
		}
	}()
	c2, err := hb.ctrl.OpenAs("beta", hb.cred("beta"), "alpha")
	if err != nil {
		t.Fatal(err)
	}
	s2 := <-acceptCh

	// Seed data on both connections.
	if err := c1.WriteMsg([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := c2.WriteMsg([]byte("two")); err != nil {
		t.Fatal(err)
	}

	fired := condTimerFires.Load()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		env.migrate("alpha", "h1", "h3", 2)
	}()
	go func() {
		defer wg.Done()
		env.migrate("beta", "h2", "h4", 2)
	}()
	wg.Wait()

	a1, err := env.hosts["h3"].ctrl.AgentSocket("alpha", c1.ID())
	if err != nil {
		t.Fatal(err)
	}
	a2, err := env.hosts["h3"].ctrl.AgentSocket("alpha", s2.ID())
	if err != nil {
		t.Fatal(err)
	}
	b1, err := env.hosts["h4"].ctrl.AgentSocket("beta", s1.ID())
	if err != nil {
		t.Fatal(err)
	}
	b2, err := env.hosts["h4"].ctrl.AgentSocket("beta", c2.ID())
	if err != nil {
		t.Fatal(err)
	}
	waitEstablished(t, a1, a2, b1, b2)
	if n := timeouts.Load(); n != 0 {
		t.Errorf("%d resumes timed out", n)
	}
	if n := condTimerFires.Load() - fired; n != 0 {
		t.Errorf("%d waits ran out their deadlines", n)
	}
	chases := 0
	mu.Lock()
	for ep, n := range chased {
		if chases += n; n > 1 {
			t.Errorf("%s was refused %d times for a peer that moved on or had not landed, want at most once", ep, n)
		}
	}
	mu.Unlock()
	// h3 and h4 are fresh: every request they sent is a landed mover's.
	sent := env.hosts["h3"].ctrl.ControlStats().RequestsSent + env.hosts["h4"].ctrl.ControlStats().RequestsSent
	t.Logf("census: the movers sent %d requests; %d resume races, %d chases refused", sent, races.Load(), chases)
	if want := 4 + uint64(races.Load()) + uint64(chases); sent > want {
		t.Errorf("the movers sent %d requests, want at most %d: one per connection each, and one per refusal", sent, want)
	}

	// Seeded data arrived across the double migration.
	if m, err := b1.ReadMsg(); err != nil || string(m) != "one" {
		t.Fatalf("conn1 seed: %q, %v", m, err)
	}
	if m, err := a2.ReadMsg(); err != nil || string(m) != "two" {
		t.Fatalf("conn2 seed: %q, %v", m, err)
	}
	// Both connections still work in both directions.
	for i, pair := range []struct{ w, r *Socket }{{a1, b1}, {b1, a1}, {a2, b2}, {b2, a2}} {
		msg := fmt.Sprintf("m%d", i)
		if err := pair.w.WriteMsg([]byte(msg)); err != nil {
			t.Fatalf("pair %d write: %v", i, err)
		}
		if m, err := pair.r.ReadMsg(); err != nil || string(m) != msg {
			t.Fatalf("pair %d read: %q, %v", i, m, err)
		}
	}
}

// ---- listener migration ----

func TestListenerMigratesWithAgent(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2", "h3"})
	env.place("srv", "h1")
	env.place("cli", "h2")
	h1 := env.hosts["h1"]
	if _, err := h1.ctrl.ListenAs("srv", h1.cred("srv")); err != nil {
		t.Fatal(err)
	}

	env.migrate("srv", "h1", "h3", 2)

	// A dial after the migration reaches the restored listener on h3.
	h2 := env.hosts["h2"]
	acceptCh := make(chan *Socket, 1)
	go func() {
		h3 := env.hosts["h3"]
		ss, err := h3.ctrl.ListenAs("srv", h3.cred("srv"))
		if err != nil {
			t.Error(err)
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s, err := ss.Accept(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		acceptCh <- s
	}()
	client, err := h2.ctrl.DialAs("cli", h2.cred("cli"), "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := <-acceptCh
	if err := client.WriteMsg([]byte("post-move dial")); err != nil {
		t.Fatal(err)
	}
	if m, err := server.ReadMsg(); err != nil || string(m) != "post-move dial" {
		t.Fatalf("got %q, %v", m, err)
	}
}

// ---- failure recovery (extension) ----

func TestDataSocketFailureRecovers(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"})
	client, server := env.pair("a", "h1", "b", "h2")
	defer client.Close()

	if err := client.WriteMsg([]byte("before")); err != nil {
		t.Fatal(err)
	}
	if m, _ := server.ReadMsg(); string(m) != "before" {
		t.Fatal("pre-failure message lost")
	}

	// Kill the raw TCP socket out from under the connection.
	client.mu.Lock()
	raw := client.sock
	client.mu.Unlock()
	raw.Close()

	// Both endpoints should degrade and auto-resume; traffic flows again.
	deadline := time.Now().Add(15 * time.Second)
	if err := client.WriteMsg([]byte("after")); err != nil {
		t.Fatal(err)
	}
	got := make(chan []byte, 1)
	go func() {
		m, err := server.ReadMsg()
		if err == nil {
			got <- m
		}
	}()
	select {
	case m := <-got:
		if string(m) != "after" {
			t.Fatalf("got %q", m)
		}
	case <-time.After(time.Until(deadline)):
		t.Fatalf("recovery never delivered (client %s server %s)", client.State(), server.State())
	}
}

func TestFailureRecoveryRetransmitsInFlight(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"})
	client, server := env.pair("a", "h1", "b", "h2")
	defer client.Close()

	// Write a burst, then kill the socket before the peer reads: frames
	// that died in the kernel buffers must be retransmitted from the send
	// log on resume.
	const n = 50
	for i := 0; i < n; i++ {
		if err := client.WriteMsg([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	client.mu.Lock()
	raw := client.sock
	client.mu.Unlock()
	raw.Close()

	for i := 0; i < n; i++ {
		m, err := server.ReadMsg()
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if m[0] != byte(i) {
			t.Fatalf("msg %d: got %d (duplicate or loss)", i, m[0])
		}
	}
}

// ---- exactly-once under continuous traffic with migration ----

func TestExactlyOnceUnderContinuousTrafficAndMigration(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2", "h3", "h4"})
	client, server := env.pair("mover", "h1", "anchor", "h2")

	const total = 2000
	// The anchor streams numbered messages as fast as possible.
	go func() {
		for i := 0; i < total; i++ {
			msg := []byte{byte(i), byte(i >> 8)}
			if err := server.WriteMsg(msg); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
	}()

	// The mover migrates three times mid-stream while reading; when a read
	// hits ErrMigrated the reader re-attaches at the agent's new host, the
	// way a behaviour would after landing.
	recvDone := make(chan error, 1)
	hops := []string{"h3", "h4", "h1"}
	var mu sync.Mutex
	sock := client
	go func() {
		i := 0
		for i < total {
			mu.Lock()
			s := sock
			mu.Unlock()
			m, err := s.ReadMsg()
			if errors.Is(err, ErrMigrated) {
				time.Sleep(2 * time.Millisecond) // wait for the swap
				continue
			}
			if err != nil {
				recvDone <- fmt.Errorf("read %d: %w", i, err)
				return
			}
			if got := int(m[0]) | int(m[1])<<8; got != i {
				recvDone <- fmt.Errorf("message %d: got %d (order/duplication broken)", i, got)
				return
			}
			i++
		}
		recvDone <- nil
	}()

	from := "h1"
	for hop, to := range hops {
		time.Sleep(30 * time.Millisecond)
		env.migrate("mover", from, to, uint64(hop+2))
		moved, err := env.hosts[to].ctrl.AgentSocket("mover", client.ID())
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		sock = moved
		mu.Unlock()
		from = to
	}

	select {
	case err := <-recvDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("receiver never finished")
	}
}
