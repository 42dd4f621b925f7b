package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"naplet/internal/obs"
	"naplet/internal/rudp"
	"naplet/internal/wire"
)

// lockedBuffer is an io.Writer safe for concurrent log writers.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// logf is a logger sink writing one line per call.
func (l *lockedBuffer) logf(format string, args ...any) {
	fmt.Fprintf(l, format+"\n", args...)
}

// TestNoLoggerIsSilent: a controller built without a Logger writes nothing
// to the standard logger — not from the controller, its transports or its
// control channel — across an open, a migration, a close and the hosts'
// shutdown.
func TestNoLoggerIsSilent(t *testing.T) {
	var out lockedBuffer
	prev := log.Writer()
	log.SetOutput(&out)
	defer log.SetOutput(prev)

	env := newEnv(t, []string{"h1", "h2", "h3"}, func(c *Config) { c.Logger = nil })
	client, server := env.pair("quiet-mover", "h1", "quiet-anchor", "h2")
	if _, err := client.Write([]byte("pre")); err != nil {
		t.Fatal(err)
	}
	env.migrate("quiet-mover", "h1", "h3", 2)
	moved, err := env.hosts["h3"].ctrl.AgentSocket("quiet-mover", client.ID())
	if err != nil {
		t.Fatal(err)
	}
	waitEstablished(t, moved, server)
	if _, err := moved.Write([]byte("-post")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len("pre-post"))
	if _, err := io.ReadFull(server, got); err != nil || string(got) != "pre-post" {
		t.Fatalf("read %q, %v", got, err)
	}
	if err := moved.Close(); err != nil {
		t.Fatal(err)
	}
	for _, h := range env.hosts {
		h.ctrl.Close()
	}
	if s := out.String(); s != "" {
		t.Fatalf("a controller without a logger wrote to the standard logger:\n%s", s)
	}
}

// TestControlRejectsAreCountedNotWarned: a control request refused before
// anything is known of its sender — undecodable, or failing the tag of the
// connection it names — costs a counter and a Debug line, not a warning: a
// peer spraying the control port cannot flood the log. The connection it
// named goes on delivering.
func TestControlRejectsAreCountedNotWarned(t *testing.T) {
	var out lockedBuffer
	met := obs.NewRegistry()
	env := newEnv(t, []string{"h1", "h2"}, func(c *Config) {
		if c.HostName == "h2" {
			c.Logger = obs.NewLogger(out.logf, obs.LevelDebug)
			c.Metrics = met
		}
	})
	client, server := env.pair("alice", "h1", "bob", "h2")
	defer client.Close()

	ep, err := rudp.Listen("127.0.0.1:0", func(*net.UDPAddr, []byte) []byte { return nil }, rudp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	target := env.hosts["h2"].ctrl.ControlAddr()

	const n = 50
	for i := 0; i < n; i++ {
		forged := (&wire.ControlMsg{
			Type: wire.MsgSuspend, ConnID: server.ID(), From: "alice", To: "bob",
			Nonce: uint64(1<<32 + i),
		}).Encode() // tag all zero: not signed under the session key
		for _, req := range [][]byte{[]byte("not a control message"), forged} {
			resp, err := ep.Request(ctx, target, req)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := wire.DecodeControlReply(resp)
			if err != nil || rep.Verdict != wire.VerdictReject {
				t.Fatalf("reply to a refused request: %+v, %v", rep, err)
			}
		}
	}

	for reason, want := range map[string]uint64{"malformed": n, "unauthenticated": n} {
		name := fmt.Sprintf("control.rejected{reason=%q}", reason)
		if got := met.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	var warned []string
	for _, ln := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(ln, "WARN") || strings.HasPrefix(ln, "ERROR") {
			warned = append(warned, ln)
		}
	}
	if len(warned) > 0 {
		t.Errorf("%d refused requests wrote %d lines at Warn or above:\n%s", 2*n, len(warned), strings.Join(warned, "\n"))
	}

	if _, err := client.Write([]byte("still here")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len("still here"))
	if _, err := io.ReadFull(server, got); err != nil || string(got) != "still here" {
		t.Fatalf("read after the refusals: %q, %v", got, err)
	}
}
