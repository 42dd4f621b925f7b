package core

import (
	"io"
	"testing"
	"time"

	"naplet/internal/fsm"
	"naplet/internal/wire"
)

// A close must not cost the peer what was written before it, wherever the
// peer's agent is in a migration when the CLS lands.

func waitClosed(t *testing.T, s *Socket) {
	t.Helper()
	if _, err := s.waitState(5*time.Second, fsm.Closed); err != nil && err != ErrClosed {
		t.Fatalf("conn %s: %v", s.ID(), err)
	}
}

func readToEOF(t *testing.T, s *Socket, want string) {
	t.Helper()
	if m, err := s.ReadMsg(); err != nil || string(m) != want {
		t.Fatalf("ReadMsg = %q, %v; want %q", m, err, want)
	}
	if _, err := s.ReadMsg(); err != io.EOF {
		t.Fatalf("ReadMsg after the last message: %v, want EOF", err)
	}
}

// The agent has landed but not re-attached yet when the peer writes and
// closes: the endpoint stays resident until its data is read out.
func TestPeerClosedEndpointStaysAttachableUntilReadOut(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"})
	client, server := env.pair("a", "h1", "b", "h2")
	if err := client.WriteMsg([]byte("last")); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	waitClosed(t, server)

	ctrl := env.hosts["h2"].ctrl
	got, err := ctrl.AgentSocket("b", server.ID())
	if err != nil {
		t.Fatalf("attach after the peer's close: %v", err)
	}
	readToEOF(t, got, "last")
	if _, err := ctrl.AgentSocket("b", server.ID()); err == nil {
		t.Fatal("endpoint still resident after its last byte was read")
	}
}

// Closing a peer-closed endpoint abandons its unread data and frees it.
func TestCloseReleasesPeerClosedEndpoint(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"})
	client, server := env.pair("a", "h1", "b", "h2")
	client.WriteMsg([]byte("unread"))
	client.Close()
	waitClosed(t, server)
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	if n := env.hosts["h2"].ctrl.tab.count(); n != 0 {
		t.Fatalf("%d endpoints resident after Close, want 0", n)
	}
}

// The peer closes before the agent departs: the unread data and the close
// travel with the agent.
func TestPeerClosedEndpointMigratesWithUnreadData(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2", "h3"})
	client, server := env.pair("a", "h1", "b", "h2")
	if err := client.WriteMsg([]byte("last")); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	waitClosed(t, server)
	env.migrate("b", "h2", "h3", 2)

	if _, err := server.ReadMsg(); err != ErrMigrated {
		t.Fatalf("read on the handle left behind: %v, want ErrMigrated", err)
	}
	moved, err := env.hosts["h3"].ctrl.AgentSocket("b", server.ID())
	if err != nil {
		t.Fatalf("attach at the new host: %v", err)
	}
	readToEOF(t, moved, "last")
	if n := env.hosts["h2"].ctrl.tab.count() + env.hosts["h3"].ctrl.tab.count(); n != 0 {
		t.Fatalf("%d endpoints resident after read-out, want 0", n)
	}
}

// A SUS held up past the peer's RES finds the peer in RESUME_WAIT, parked
// behind the very migration the SUS belongs to; it must be granted, or both
// sides wait on each other for the whole park window.
func TestSuspendGrantedInResumeWait(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"})
	client, server := env.pair("a", "h1", "b", "h2")
	if err := client.Suspend(); err != nil {
		t.Fatal(err)
	}
	if _, err := server.waitState(5*time.Second, fsm.Suspended); err != nil {
		t.Fatal(err)
	}
	tab := env.hosts["h2"].ctrl.tab
	tab.setMigrating("b", true) // b is leaving: client's resume parks
	resumed := make(chan error, 1)
	go func() { resumed <- client.Resume() }()
	if _, err := client.waitState(5*time.Second, fsm.ResumeWait); err != nil {
		t.Fatal(err)
	}

	reply, err := wire.DecodeControlReply(client.serve(&wire.ControlMsg{Type: wire.MsgSuspend}))
	if err != nil {
		t.Fatal(err)
	}
	if reply.Verdict != wire.VerdictAck {
		t.Fatalf("SUS in RESUME_WAIT: %s %q, want ack", reply.Verdict, reply.Reason)
	}

	// b "lands" and resumes toward the parked client.
	tab.setMigrating("b", false)
	if err := server.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := <-resumed; err != nil {
		t.Fatal(err)
	}
	waitEstablished(t, client, server)
}

// The closer reaches ESTABLISHED from its half of a resume handoff, writes
// and closes before the resuming side has stepped out of RES_SENT: the CLS
// waits for that step instead of being bounced.
func TestCloseWaitsOutResumeCompletion(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"})
	client, server := env.pair("a", "h1", "b", "h2")
	if err := client.Suspend(); err != nil {
		t.Fatal(err)
	}
	if _, err := server.waitState(5*time.Second, fsm.Suspended); err != nil {
		t.Fatal(err)
	}
	client.mu.Lock()
	client.step(fsm.AppResume) // -> RES_SENT, as resumeLocked does
	client.mu.Unlock()
	replied := make(chan *wire.ControlReply, 1)
	go func() {
		r, _ := wire.DecodeControlReply(client.serve(&wire.ControlMsg{Type: wire.MsgClose}))
		replied <- r
	}()
	select {
	case r := <-replied:
		t.Fatalf("CLS answered in RES_SENT: %s %q", r.Verdict, r.Reason)
	case <-time.After(50 * time.Millisecond):
	}
	client.mu.Lock()
	client.step(fsm.RecvResumeAck) // -> ESTABLISHED
	client.mu.Unlock()
	select {
	case r := <-replied:
		if r == nil || r.Verdict != wire.VerdictAck {
			t.Fatalf("CLS after the resume settled: %+v, want ack", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("CLS still unanswered after the resume settled")
	}
}
