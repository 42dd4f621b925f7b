package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"naplet/internal/fsm"
	"naplet/internal/metrics"
	"naplet/internal/naming"
	"naplet/internal/obs"
	"naplet/internal/security"
)

// ---- byte-stream semantics ----

func TestReadSmallBufferLeftovers(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"})
	client, server := env.pair("a", "h1", "b", "h2")
	defer client.Close()

	if _, err := client.Write([]byte("abcdefghij")); err != nil {
		t.Fatal(err)
	}
	// Read it back two bytes at a time: the leftover path must preserve
	// order and lose nothing.
	var got []byte
	buf := make([]byte, 2)
	for len(got) < 10 {
		n, err := server.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:n]...)
	}
	if string(got) != "abcdefghij" {
		t.Fatalf("got %q", got)
	}
}

func TestReadZeroLengthBuffer(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"})
	client, server := env.pair("a", "h1", "b", "h2")
	defer client.Close()
	if n, err := server.Read(nil); n != 0 || err != nil {
		t.Fatalf("Read(nil) = %d, %v", n, err)
	}
}

func TestLeftoversSurviveMigration(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2", "h3"})
	client, server := env.pair("mover", "h1", "anchor", "h2")

	// The anchor writes one 8-byte message; the mover reads only 3 bytes,
	// leaving 5 in the leftover buffer, then migrates: the 5 bytes must
	// arrive at the new host.
	if _, err := server.Write([]byte("12345678")); err != nil {
		t.Fatal(err)
	}
	small := make([]byte, 3)
	if _, err := io.ReadFull(client, small); err != nil {
		t.Fatal(err)
	}
	if string(small) != "123" {
		t.Fatalf("first read %q", small)
	}
	env.migrate("mover", "h1", "h3", 2)
	moved, err := env.hosts["h3"].ctrl.AgentSocket("mover", client.ID())
	if err != nil {
		t.Fatal(err)
	}
	rest := make([]byte, 5)
	if _, err := io.ReadFull(moved, rest); err != nil {
		t.Fatal(err)
	}
	if string(rest) != "45678" {
		t.Fatalf("leftover after migration = %q", rest)
	}
}

func TestWriteMsgTooLargeRejected(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"})
	client, _ := env.pair("a", "h1", "b", "h2")
	defer client.Close()
	if err := client.WriteMsg(make([]byte, 2<<20)); err == nil {
		t.Fatal("oversize message accepted")
	}
}

// ---- server socket lifecycle ----

func TestAcceptContextCancel(t *testing.T) {
	env := newEnv(t, []string{"h1"})
	h := env.hosts["h1"]
	env.place("b", "h1")
	ss, err := h.ctrl.ListenAs("b", h.cred("b"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := ss.Accept(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}

func TestServerSocketCloseUnblocksAccept(t *testing.T) {
	env := newEnv(t, []string{"h1"})
	h := env.hosts["h1"]
	env.place("b", "h1")
	ss, err := h.ctrl.ListenAs("b", h.cred("b"))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := ss.Accept(context.Background())
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("accept err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("accept never unblocked")
	}
	// Close is idempotent.
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestListenTwiceReturnsSameSocket(t *testing.T) {
	env := newEnv(t, []string{"h1"})
	h := env.hosts["h1"]
	ss1, err := h.ctrl.ListenAs("b", h.cred("b"))
	if err != nil {
		t.Fatal(err)
	}
	ss2, err := h.ctrl.ListenAs("b", h.cred("b"))
	if err != nil {
		t.Fatal(err)
	}
	if ss1 != ss2 {
		t.Fatal("second Listen created a new server socket")
	}
	ss1.Close()
	ss3, err := h.ctrl.ListenAs("b", h.cred("b"))
	if err != nil {
		t.Fatal(err)
	}
	if ss3 == ss1 {
		t.Fatal("Listen after Close returned the closed socket")
	}
}

func TestUnacceptedBacklogMigrates(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2", "h3"})
	env.place("srv", "h1")
	env.place("cli", "h2")
	h1, h2 := env.hosts["h1"], env.hosts["h2"]
	if _, err := h1.ctrl.ListenAs("srv", h1.cred("srv")); err != nil {
		t.Fatal(err)
	}
	// Establish a connection that the server agent never accepts...
	client, err := h2.ctrl.OpenAs("cli", h2.cred("cli"), "srv")
	if err != nil {
		t.Fatal(err)
	}
	if err := client.WriteMsg([]byte("queued")); err != nil {
		t.Fatal(err)
	}
	// ...then migrate the server agent. The queued connection must follow
	// and still be acceptable at the new host.
	env.migrate("srv", "h1", "h3", 2)
	h3 := env.hosts["h3"]
	ss, err := h3.ctrl.ListenAs("srv", h3.cred("srv"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	server, err := ss.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.waitState(10*time.Second, fsm.Established); err != nil {
		t.Fatal(err)
	}
	if m, err := server.ReadMsg(); err != nil || string(m) != "queued" {
		t.Fatalf("backlog data: %q, %v", m, err)
	}
}

// ---- dialing agents that are not ready yet ----

func TestDialRetriesUntilListenerAppears(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"})
	env.place("late", "h2")
	env.place("cli", "h1")
	h1, h2 := env.hosts["h1"], env.hosts["h2"]

	dialDone := make(chan error, 1)
	var client *Socket
	go func() {
		var err error
		client, err = h1.ctrl.DialAs("cli", h1.cred("cli"), "late")
		dialDone <- err
	}()
	// No listener yet: the dial must keep retrying.
	time.Sleep(50 * time.Millisecond)
	ss, err := h2.ctrl.ListenAs("late", h2.cred("late"))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		ss.Accept(ctx)
	}()
	select {
	case err := <-dialDone:
		if err != nil {
			t.Fatal(err)
		}
		client.Close()
	case <-time.After(10 * time.Second):
		t.Fatal("dial never completed")
	}
}

// A refusal is retried because of its reject code, never because of what
// its text says: dialing a listener whose policy refuses the dialer fails
// on the first CONNECT even when the listener's name — which the error
// quotes — reads like the transient refusal.
func TestPolicyRefusalIsNotRetried(t *testing.T) {
	const target = "x retry later"
	svc := naming.NewService()
	rules := append(security.AllowAgentAll(), security.Rule{
		SubjectKind: security.KindAgent, SubjectName: target,
		Action: security.ActionListen, Resource: "dialer", Effect: security.Deny,
	})
	guard, err := security.NewGuard(security.NewStore(rules...))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	hs := newFaultHost(t, "hs", svc, func(c *Config) { c.Guard = guard })
	hc := newFaultHost(t, "hc", svc, func(c *Config) { c.Metrics = reg })
	if err := svc.Register(target, hs.loc()); err != nil {
		t.Fatal(err)
	}
	if err := svc.Register("dialer", hc.loc()); err != nil {
		t.Fatal(err)
	}
	if _, err := hs.ctrl.ListenAs(target, guard.IssueCredential(target)); err != nil {
		t.Fatal(err)
	}

	// The park window is 20 s: a dial that retries sits in it.
	done := make(chan error, 1)
	go func() {
		_, err := hc.ctrl.DialAs("dialer", hc.cred("dialer"), target)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "refused by policy") {
			t.Fatalf("DialAs = %v, want the policy refusal", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("DialAs is retrying a permanent refusal")
	}
	if n := reg.Snapshot().Counters["conn.open_errors"]; n != 1 {
		t.Fatalf("%d failed opens, want 1: a policy refusal is final", n)
	}
}

// ---- controller ----

func TestControllerCloseIdempotent(t *testing.T) {
	env := newEnv(t, []string{"h1"})
	ctrl := env.hosts["h1"].ctrl
	if err := ctrl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestControllerRequiresGuardAndLocator(t *testing.T) {
	if _, err := NewController(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestOpenBreakdownAccumulates(t *testing.T) {
	bd := metrics.NewBreakdown()
	env := &testEnv{t: t, svc: nil}
	_ = env
	d := newEnv(t, []string{"h1", "h2"})
	// Swap in a controller with the breakdown on h1.
	h := d.hosts["h1"]
	cfg := Config{
		HostName: "h1b", Guard: h.guard, Locator: d.svc,
		OpenBreakdown: bd, Logger: obs.NewLogger(t.Logf, obs.LevelDebug),
	}
	ctrl, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	d.svc.Register("bd-cli", d.hosts["h1"].loc()) // placement irrelevant for dialing
	d.place("bd-srv", "h2")
	hs := d.hosts["h2"]
	ss, err := hs.ctrl.ListenAs("bd-srv", hs.cred("bd-srv"))
	if err != nil {
		t.Fatal(err)
	}
	_ = ss
	conn, err := ctrl.OpenAs("bd-cli", h.cred("bd-cli"), "bd-srv")
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if bd.Total() <= 0 {
		t.Fatal("breakdown recorded nothing")
	}
	if bd.Get(metrics.PhaseKeyExchange) <= 0 {
		t.Fatal("key exchange phase not recorded")
	}
}

// ---- priority function ----

func TestAgentPriorityAntisymmetric(t *testing.T) {
	f := func(a, b string) bool {
		if a == b {
			return true // reflexive case undefined; never occurs (distinct ids)
		}
		return agentPriority(a, b) != agentPriority(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAgentPriorityDeterministic(t *testing.T) {
	if agentPriority("x", "y") != agentPriority("x", "y") {
		t.Fatal("priority not deterministic")
	}
}

// ---- soak: many pairs, random migrations, continuous traffic ----

func TestSoakRandomMigrationsManyPairs(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	env := newEnv(t, []string{"h1", "h2", "h3", "h4"})
	const pairs = 4
	const msgs = 2000

	type pairState struct {
		mu     sync.Mutex
		client *Socket
		id     string
		host   string
		epoch  uint64
	}
	states := make([]*pairState, pairs)
	servers := make([]*Socket, pairs)
	for i := 0; i < pairs; i++ {
		mover := fmt.Sprintf("mover-%d", i)
		anchor := fmt.Sprintf("anchor-%d", i)
		c, s := env.pair(mover, "h1", anchor, "h2")
		states[i] = &pairState{client: c, id: mover, host: "h1", epoch: 1}
		servers[i] = s
	}

	var wg sync.WaitGroup
	errs := make(chan error, pairs*3)

	// Writers: each mover streams numbered messages, re-attaching on
	// migration.
	for i := 0; i < pairs; i++ {
		wg.Add(1)
		go func(st *pairState) {
			defer wg.Done()
			for n := 0; n < msgs; {
				st.mu.Lock()
				c := st.client
				st.mu.Unlock()
				err := c.WriteMsg([]byte{byte(n), byte(n >> 8)})
				if errors.Is(err, ErrMigrated) {
					time.Sleep(time.Millisecond)
					continue
				}
				if err != nil {
					errs <- fmt.Errorf("writer: %w", err)
					return
				}
				n++
				if n%10 == 0 {
					// Pace the stream so migrations interleave with it.
					time.Sleep(time.Millisecond)
				}
			}
		}(states[i])
	}

	// Readers: anchors verify strict ordering.
	for i := 0; i < pairs; i++ {
		wg.Add(1)
		go func(s *Socket, idx int) {
			defer wg.Done()
			for n := 0; n < msgs; n++ {
				m, err := s.ReadMsg()
				if err != nil {
					errs <- fmt.Errorf("reader %d at %d: %w", idx, n, err)
					return
				}
				if got := int(m[0]) | int(m[1])<<8; got != n {
					errs <- fmt.Errorf("reader %d: message %d arrived as %d", idx, n, got)
					return
				}
			}
		}(servers[i], i)
	}

	// Migrator: move random movers around while traffic flows.
	ring := []string{"h1", "h3", "h4"}
	rng := rand.New(rand.NewSource(99))
	stopMig := make(chan struct{})
	var migrations int
	var migWG sync.WaitGroup
	migWG.Add(1)
	go func() {
		defer migWG.Done()
		for {
			select {
			case <-stopMig:
				return
			case <-time.After(2 * time.Millisecond):
			}
			st := states[rng.Intn(pairs)]
			st.mu.Lock()
			from := st.host
			to := ring[rng.Intn(len(ring))]
			if to == from {
				st.mu.Unlock()
				continue
			}
			st.epoch++
			epoch := st.epoch
			id := st.id
			connID := st.client.ID()
			st.mu.Unlock()

			blob, err := env.hosts[from].ctrl.PreDepart(id)
			if err != nil {
				errs <- fmt.Errorf("predepart %s: %w", id, err)
				return
			}
			if err := env.svc.Update(id, env.hosts[to].loc(), epoch); err != nil {
				errs <- err
				return
			}
			if err := env.hosts[to].ctrl.PostArrive(id, blob); err != nil {
				errs <- fmt.Errorf("postarrive %s: %w", id, err)
				return
			}
			moved, err := env.hosts[to].ctrl.AgentSocket(id, connID)
			if err != nil {
				errs <- err
				return
			}
			st.mu.Lock()
			st.host = to
			st.client = moved
			st.mu.Unlock()
			migrations++
		}
	}()

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case err := <-errs:
		t.Fatal(err)
	case <-time.After(90 * time.Second):
		t.Fatal("soak did not finish")
	}
	close(stopMig)
	migWG.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if migrations == 0 {
		t.Fatal("soak completed without a single migration — not exercising the mechanism")
	}
	t.Logf("soak: %d pairs × %d messages across %d random migrations", pairs, msgs, migrations)
}

func TestControllerStats(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"})
	h1 := env.hosts["h1"]
	if got := h1.ctrl.Stats(); got.Connections != 0 || got.Listeners != 0 {
		t.Fatalf("fresh stats = %+v", got)
	}
	client, _ := env.pair("a", "h1", "b", "h2")
	defer client.Close()
	st1 := h1.ctrl.Stats()
	if st1.Connections != 1 || st1.ByState["ESTABLISHED"] != 1 {
		t.Fatalf("h1 stats = %+v", st1)
	}
	st2 := env.hosts["h2"].ctrl.Stats()
	if st2.Connections != 1 || st2.Listeners != 1 {
		t.Fatalf("h2 stats = %+v", st2)
	}
	if err := client.Suspend(); err != nil {
		t.Fatal(err)
	}
	if st := h1.ctrl.Stats(); st.ByState["SUSPENDED"] != 1 {
		t.Fatalf("suspended stats = %+v", st)
	}
	client.Resume()
}

func TestSocketInfo(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"})
	client, server := env.pair("a", "h1", "b", "h2")
	defer client.Close()
	if err := client.WriteMsg([]byte("abcde")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for server.Info().RecvBufferedMsgs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("message never buffered at server")
		}
		time.Sleep(time.Millisecond)
	}
	ci := client.Info()
	if ci.State != "ESTABLISHED" || ci.LocalAgent != "a" || ci.RemoteAgent != "b" {
		t.Fatalf("client info = %+v", ci)
	}
	if ci.NextSendSeq != 2 || ci.SendLogBytes != 5 {
		t.Fatalf("client cursors = %+v", ci)
	}
	si := server.Info()
	if si.LastEnqueued != 1 || si.RecvBufferedBytes != 5 {
		t.Fatalf("server info = %+v", si)
	}
	// Exactly one endpoint holds the priority.
	if ci.HighPriority == si.HighPriority {
		t.Fatal("priority not asymmetric")
	}
	if err := client.Suspend(); err != nil {
		t.Fatal(err)
	}
	if got := client.Info().State; got != "SUSPENDED" {
		t.Fatalf("state after suspend = %s", got)
	}
	client.Resume()
}
