package naplet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"naplet/internal/core"
)

// results is a cross-host sink for behaviour outputs (test process only).
var results = struct {
	sync.Mutex
	m map[string][]string
}{m: make(map[string][]string)}

func record(key, val string) {
	results.Lock()
	results.m[key] = append(results.m[key], val)
	results.Unlock()
}

func recorded(key string) []string {
	results.Lock()
	defer results.Unlock()
	return append([]string(nil), results.m[key]...)
}

func newNet(t *testing.T, hosts []string, opts ...NetworkOption) *Network {
	t.Helper()
	opts = append(opts, WithLogf(t.Logf), WithCore(core.Config{
		OpTimeout:    2 * time.Second,
		ParkTimeout:  20 * time.Second,
		DrainTimeout: 2 * time.Second,
	}))
	nw := NewNetwork(opts...)
	t.Cleanup(func() { nw.Close() })
	registerTestBehaviors(nw)
	for _, h := range hosts {
		if _, err := nw.AddHost(h); err != nil {
			t.Fatal(err)
		}
	}
	return nw
}

func await(t *testing.T, nw *Network, agents ...string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, a := range agents {
		if err := nw.Await(ctx, a); err != nil {
			t.Fatalf("awaiting %s: %v", a, err)
		}
	}
}

// ---- behaviours ----

// echoServer accepts one connection and echoes messages until the peer
// closes; it never migrates.
type echoServer struct{}

func (echoServer) Run(ctx *Context) error {
	ss, err := Listen(ctx)
	if err != nil {
		return err
	}
	conn, err := ss.Accept(ctx.StdContext())
	if err != nil {
		return err
	}
	for {
		msg, err := conn.ReadMsg()
		if err != nil {
			return nil // peer closed
		}
		if err := conn.WriteMsg(msg); err != nil {
			return err
		}
	}
}

// pingClient dials the echo server, exchanges a few messages, records the
// replies, and terminates.
type pingClient struct {
	Target string
	Count  int
}

func (p *pingClient) Run(ctx *Context) error {
	conn, err := Dial(ctx, p.Target)
	if err != nil {
		return err
	}
	defer conn.Close()
	for i := 0; i < p.Count; i++ {
		msg := fmt.Sprintf("ping-%d", i)
		if err := conn.WriteMsg([]byte(msg)); err != nil {
			return err
		}
		reply, err := conn.ReadMsg()
		if err != nil {
			return err
		}
		record(ctx.AgentID(), string(reply))
	}
	return nil
}

// roamingClient dials, sends a message per hop across an itinerary,
// re-attaching to the connection after every migration.
type roamingClient struct {
	Target string
	Docks  []string
	Conn   string // hex conn id carried across hops
	Sent   int
	Total  int
}

func (r *roamingClient) Run(ctx *Context) error {
	var conn *Socket
	var err error
	if r.Conn == "" {
		conn, err = Dial(ctx, r.Target)
		if err != nil {
			return err
		}
		r.Conn = conn.ID().String()
	} else {
		id, perr := ParseConnID(r.Conn)
		if perr != nil {
			return perr
		}
		conn, err = Attach(ctx, id)
		if err != nil {
			return err
		}
	}
	msg := fmt.Sprintf("hop%d@%s", ctx.Epoch(), ctx.HostName())
	if err := conn.WriteMsg([]byte(msg)); err != nil {
		return err
	}
	reply, err := conn.ReadMsg()
	if err != nil {
		return err
	}
	record(ctx.AgentID(), string(reply))
	r.Sent++
	if r.Sent >= r.Total || len(r.Docks) == 0 {
		return conn.Close()
	}
	next := r.Docks[0]
	r.Docks = r.Docks[1:]
	return ctx.MigrateTo(next)
}

// mailReader drains N mailbox messages, recording them, migrating once
// midway.
type mailReader struct {
	Expect int
	Moved  bool
	Dock   string
}

func (m *mailReader) Run(ctx *Context) error {
	box, err := MailboxOf(ctx)
	if err != nil {
		return err
	}
	for {
		results.Lock()
		got := len(results.m[ctx.AgentID()])
		results.Unlock()
		if got >= m.Expect {
			return nil
		}
		if !m.Moved && got >= m.Expect/2 {
			m.Moved = true
			return ctx.MigrateTo(m.Dock)
		}
		msg, err := box.Receive(ctx.StdContext())
		if err != nil {
			return err
		}
		record(ctx.AgentID(), string(msg.Body))
	}
}

// mailSender sends N messages, slowly, so some span the reader's move.
type mailSender struct {
	To    string
	Count int
}

func (m *mailSender) Run(ctx *Context) error {
	for i := 0; i < m.Count; i++ {
		if err := Send(ctx, m.To, []byte(fmt.Sprintf("mail-%d", i))); err != nil {
			return err
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// bouncePair is used for concurrent-migration stress: each side both sends
// and expects Count messages, migrating between rounds.
type bouncer struct {
	Peer   string
	IsDial bool
	Docks  []string
	Conn   string
	Round  int
	Rounds int
}

func (b *bouncer) Run(ctx *Context) error {
	var conn *Socket
	var err error
	switch {
	case b.Conn != "":
		id, perr := ParseConnID(b.Conn)
		if perr != nil {
			return perr
		}
		conn, err = Attach(ctx, id)
	case b.IsDial:
		conn, err = Dial(ctx, b.Peer)
	default:
		ss, lerr := Listen(ctx)
		if lerr != nil {
			return lerr
		}
		conn, err = ss.Accept(ctx.StdContext())
	}
	if err != nil {
		return err
	}
	b.Conn = conn.ID().String()

	msg := fmt.Sprintf("%s-round-%d", ctx.AgentID(), b.Round)
	if err := conn.WriteMsg([]byte(msg)); err != nil {
		return err
	}
	got, err := conn.ReadMsg()
	if err != nil {
		return err
	}
	record(ctx.AgentID(), string(got))

	b.Round++
	if b.Round >= b.Rounds {
		record(ctx.AgentID(), "done")
		return nil
	}
	next := b.Docks[(b.Round-1)%len(b.Docks)]
	return ctx.MigrateTo(next)
}

func registerTestBehaviors(nw *Network) {
	nw.Register("t.echoServer", echoServer{})
	nw.Register("t.pingClient", &pingClient{})
	nw.Register("t.roamingClient", &roamingClient{})
	nw.Register("t.mailReader", &mailReader{})
	nw.Register("t.mailSender", &mailSender{})
	nw.Register("t.bouncer", &bouncer{})
}

// ---- tests ----

func TestEndToEndPingPong(t *testing.T) {
	nw := newNet(t, []string{"h1", "h2"})
	if err := nw.Node("h1").Launch("server", echoServer{}); err != nil {
		t.Fatal(err)
	}
	if err := nw.Node("h2").Launch("client", &pingClient{Target: "server", Count: 5}); err != nil {
		t.Fatal(err)
	}
	await(t, nw, "client", "server")
	got := recorded("client")
	if len(got) != 5 {
		t.Fatalf("replies = %v", got)
	}
	for i, r := range got {
		if r != fmt.Sprintf("ping-%d", i) {
			t.Fatalf("reply %d = %q", i, r)
		}
	}
}

func TestEndToEndRoamingAgent(t *testing.T) {
	nw := newNet(t, []string{"h1", "h2", "h3", "h4"})
	if err := nw.Node("h1").Launch("anchor", echoServer{}); err != nil {
		t.Fatal(err)
	}
	docks := []string{nw.DockOf("h3"), nw.DockOf("h4"), nw.DockOf("h2")}
	client := &roamingClient{Target: "anchor", Docks: docks, Total: 4}
	if err := nw.Node("h2").Launch("roamer", client); err != nil {
		t.Fatal(err)
	}
	await(t, nw, "roamer", "anchor")
	got := recorded("roamer")
	if len(got) != 4 {
		t.Fatalf("echoes = %v", got)
	}
	wantHosts := []string{"h2", "h3", "h4", "h2"}
	for i, r := range got {
		want := fmt.Sprintf("hop%d@%s", i+1, wantHosts[i])
		if r != want {
			t.Fatalf("echo %d = %q, want %q", i, r, want)
		}
	}
}

func TestEndToEndConcurrentlyMigratingPair(t *testing.T) {
	nw := newNet(t, []string{"h1", "h2", "h3", "h4"})
	docksL := []string{nw.DockOf("h3"), nw.DockOf("h1"), nw.DockOf("h3")}
	docksR := []string{nw.DockOf("h4"), nw.DockOf("h2"), nw.DockOf("h4")}
	const rounds = 4
	if err := nw.Node("h1").Launch("ying", &bouncer{Peer: "yang", Docks: docksL, Rounds: rounds}); err != nil {
		t.Fatal(err)
	}
	if err := nw.Node("h2").Launch("yang", &bouncer{Peer: "ying", IsDial: true, Docks: docksR, Rounds: rounds}); err != nil {
		t.Fatal(err)
	}
	await(t, nw, "ying", "yang")
	for _, agent := range []string{"ying", "yang"} {
		peer := map[string]string{"ying": "yang", "yang": "ying"}[agent]
		got := recorded(agent)
		if len(got) != rounds+1 || got[len(got)-1] != "done" {
			t.Fatalf("%s results = %v", agent, got)
		}
		for i := 0; i < rounds; i++ {
			want := fmt.Sprintf("%s-round-%d", peer, i)
			if got[i] != want {
				t.Fatalf("%s round %d = %q, want %q", agent, i, got[i], want)
			}
		}
	}
}

func TestEndToEndMailboxFollowsAgent(t *testing.T) {
	nw := newNet(t, []string{"h1", "h2", "h3"}, WithPostOffices())
	const count = 12
	if err := nw.Node("h1").Launch("reader", &mailReader{Expect: count, Dock: nw.DockOf("h3")}); err != nil {
		t.Fatal(err)
	}
	if err := nw.Node("h2").Launch("writer", &mailSender{To: "reader", Count: count}); err != nil {
		t.Fatal(err)
	}
	await(t, nw, "reader", "writer")
	got := recorded("reader")
	if len(got) != count {
		t.Fatalf("mail received = %v", got)
	}
	seen := make(map[string]bool)
	for _, m := range got {
		if seen[m] {
			t.Fatalf("duplicate mail %q", m)
		}
		seen[m] = true
	}
}

func TestMigrationDelayIsApplied(t *testing.T) {
	nw := newNet(t, []string{"h1", "h2"}, WithMigrationDelay(80*time.Millisecond))
	start := time.Now()
	if err := nw.Node("h1").Launch("lazy", &roamingClient{Target: "sink", Docks: []string{nw.DockOf("h2")}, Total: 2}); err != nil {
		t.Fatal(err)
	}
	if err := nw.Node("h2").Launch("sink", echoServer{}); err != nil {
		t.Fatal(err)
	}
	await(t, nw, "lazy")
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Fatalf("migration took %v, delay not applied", elapsed)
	}
}

func TestNodeConfigValidation(t *testing.T) {
	if _, err := NewNode(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestDialWithoutControllerErrors(t *testing.T) {
	// A Context from a host without the controller extension cannot dial.
	// Simulated via a network node whose extension we can't remove easily;
	// instead check the sentinel paths.
	if !errors.Is(fmt.Errorf("wrap: %w", ErrMigrate), ErrMigrate) {
		t.Fatal("sentinel wrapping broken")
	}
}

func TestInsecureNetwork(t *testing.T) {
	nw := newNet(t, []string{"h1", "h2"}, WithInsecure())
	if err := nw.Node("h1").Launch("s2", echoServer{}); err != nil {
		t.Fatal(err)
	}
	if err := nw.Node("h2").Launch("c2", &pingClient{Target: "s2", Count: 3}); err != nil {
		t.Fatal(err)
	}
	await(t, nw, "c2", "s2")
	if got := recorded("c2"); len(got) != 3 {
		t.Fatalf("replies = %v", got)
	}
}

func TestDuplicateHostNameRejected(t *testing.T) {
	nw := newNet(t, []string{"h1"})
	if _, err := nw.AddHost("h1"); err == nil {
		t.Fatal("duplicate host name accepted")
	}
	if nw.Node("h1") == nil {
		t.Fatal("original host lost")
	}
	if nw.DockOf("missing") != "" {
		t.Fatal("DockOf for unknown host returned an address")
	}
}

// Two AddHost calls racing for one name: exactly one may win, or the
// loser's node (four listeners) is overwritten in the table and never closed.
func TestConcurrentAddHostAdmitsOne(t *testing.T) {
	nw := newNet(t, nil)
	for round := 0; round < 4; round++ {
		name := fmt.Sprintf("h%d", round)
		start := make(chan struct{})
		errs := make(chan error, 2)
		for i := 0; i < 2; i++ {
			go func() {
				<-start
				_, err := nw.AddHost(name)
				errs <- err
			}()
		}
		close(start)
		first, second := <-errs, <-errs
		if (first == nil) == (second == nil) {
			t.Fatalf("round %d: AddHost(%q) twice at once: errors %v and %v, want exactly one", round, name, first, second)
		}
		if nw.Node(name) == nil {
			t.Fatalf("round %d: winner not in the table", round)
		}
	}
}
