package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"naplet/internal/fsm"
	"naplet/internal/obs"
)

// A RES the peer refuses, here as a replay (its nonce at or below the last
// the peer saw), fails the Resume and steps the endpoint back to SUSPENDED:
// nothing else would step it out of RES_SENT. The next Suspend, a
// migration's, then finishes at once instead of waiting out the park window
// for a settled state.
func TestRefusedResumeStepsBackToSuspended(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"}, parkFor(3*time.Second))
	client, server := env.pair("cli", "h1", "srv", "h2")
	defer client.Close()
	if err := client.Suspend(); err != nil {
		t.Fatal(err)
	}
	if _, err := server.waitState(5*time.Second, fsm.Suspended); err != nil {
		t.Fatal(err)
	}
	client.mu.Lock()
	ours := client.sendNonce
	client.mu.Unlock()
	server.mu.Lock()
	server.lastPeerNonce = ours + 100
	server.mu.Unlock()

	if err := client.Resume(); err == nil {
		t.Fatal("a RES refused as a replay resumed the connection")
	}
	if st := client.State(); st != fsm.Suspended {
		t.Fatalf("the refused resumer is in %s, want SUSPENDED", st)
	}
	start := time.Now()
	if err := client.Suspend(); err != nil {
		t.Fatalf("Suspend after the refusal: %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Suspend after the refusal took %v, want at once", took)
	}
}

// A handle whose endpoint travelled with its agent asks nothing of the peer:
// Resume and Suspend fail with ErrMigrated and Close lets go, none of them
// sending a request. A RES from the dead handle would spend a nonce the
// endpoint's blob does not know of, and the peer would refuse the arrived
// endpoint's first request as a replay. Arrived at a third host, the endpoint
// gets through on its first request: a RES that establishes, or, when it owes
// the peer a release (Fig 4(a)), the SUS_RES.
func TestTravelledEndpointAsksNothing(t *testing.T) {
	for _, owes := range []bool{false, true} {
		name := map[bool]string{false: "RES", true: "SUS_RES"}[owes]
		t.Run(name, func(t *testing.T) {
			regs := map[string]*obs.Registry{"h1": obs.NewRegistry(), "h2": obs.NewRegistry(), "h3": obs.NewRegistry()}
			env := newEnv(t, []string{"h1", "h2", "h3"}, func(c *Config) { c.Metrics = regs[c.HostName] })
			client, server := env.pair("cli", "h1", "srv", "h2")
			h1, h3 := env.hosts["h1"], env.hosts["h3"]
			if owes {
				client.mu.Lock()
				client.latches |= latchOwesSusRes
				client.mu.Unlock()
			}
			blob, err := h1.ctrl.PreDepart("cli")
			if err != nil {
				t.Fatal(err)
			}

			before := h1.ctrl.ControlStats().RequestsSent
			if err := client.Resume(); !errors.Is(err, ErrMigrated) {
				t.Errorf("Resume on the travelled handle: %v, want ErrMigrated", err)
			}
			if err := client.Suspend(); !errors.Is(err, ErrMigrated) {
				t.Errorf("Suspend on the travelled handle: %v, want ErrMigrated", err)
			}
			client.Close()
			if n := h1.ctrl.ControlStats().RequestsSent - before; n != 0 {
				t.Errorf("the travelled handle sent %d requests, want none", n)
			}

			if err := env.svc.Update("cli", h3.loc(), 2); err != nil {
				t.Fatal(err)
			}
			sent := h3.ctrl.ControlStats().RequestsSent
			if err := h3.ctrl.PostArrive("cli", blob); err != nil {
				t.Fatal(err)
			}
			arrived, err := h3.ctrl.AgentSocket("cli", client.ID())
			if err != nil {
				t.Fatal(err)
			}
			if owes {
				eventually(t, "the release to be acknowledged", func() bool {
					return !strings.Contains(arrived.Info().Latches, "owesSusRes")
				})
				if st := arrived.State(); st != fsm.Suspended {
					t.Fatalf("the released endpoint is in %s, want SUSPENDED until the peer resumes", st)
				}
				if err := arrived.Resume(); err != nil {
					t.Fatal(err)
				}
				sent++ // the RES after the release
			}
			waitEstablished(t, arrived, server)
			if n := h3.ctrl.ControlStats().RequestsSent - sent; n != 1 {
				t.Errorf("the arrived endpoint sent %d requests, want its first %s alone", n, name)
			}
			if n := regs["h2"].Counter(`control.rejected{reason="unauthenticated"}`).Value(); n != 0 {
				t.Errorf("the peer refused %d requests as unauthenticated (a replayed nonce)", n)
			}
			exchangeBothWays(t, arrived, server, "after")
			arrived.Close()
		})
	}
}
