package agent

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestDockSurvivesGarbage hands malformed bundles to the arrival path and
// checks each is refused and the host keeps working.
func TestDockSurvivesGarbage(t *testing.T) {
	env := newEnv(t, "h1")
	h := env.host("h1")

	for _, junk := range [][]byte{{}, {0x01}, {0xff, 0xff, 0xff, 0xff}, []byte("junk"), {0x00}} {
		if err := h.arrive(junk); err == nil {
			t.Fatalf("arrive(%x) accepted garbage", junk)
		}
	}
	if n := len(h.Residents()); n != 0 {
		t.Fatalf("%d residents after garbage arrivals", n)
	}

	// The host still launches and finishes agents.
	if err := h.Launch("after-junk", &hopper{}); err != nil {
		t.Fatal(err)
	}
	env.awaitGone(t, "after-junk")
}

// TestDockRejectsBundleWithoutBehavior hands the arrival path a
// structurally valid but incomplete bundle and expects a refusal.
func TestDockRejectsBundleWithoutBehavior(t *testing.T) {
	env := newEnv(t, "h1")
	raw, err := sealBundle(&bundle{AgentID: "ghost", Epoch: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = env.host("h1").arrive(raw)
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("incomplete bundle: arrive = %v, want a \"missing\" refusal", err)
	}
}

// TestMigrationDelayModelsTransferCost checks the configured delay is
// actually spent during a hop.
func TestMigrationDelayModelsTransferCost(t *testing.T) {
	// Two hosts with a 60ms migration delay.
	shared := newEnv(t, "d1", "d2")
	for _, name := range []string{"d1", "d2"} {
		shared.host(name).cfg.MigrationDelay = 60 * time.Millisecond
	}
	start := time.Now()
	if err := shared.host("d1").Launch("slowpoke", &hopper{Docks: []string{shared.dest("d2")}}); err != nil {
		t.Fatal(err)
	}
	shared.awaitGone(t, "slowpoke")
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Fatalf("hop took %v, migration delay not applied", elapsed)
	}
}

// TestWaitLocalUnknownAgent covers the error path.
func TestWaitLocalUnknownAgent(t *testing.T) {
	env := newEnv(t, "h1")
	if _, err := env.host("h1").WaitLocal(context.Background(), "ghost"); err == nil {
		t.Fatal("WaitLocal on absent agent succeeded")
	}
}

// TestLocationRecord checks the advertised location carries the host's
// control and data addresses.
func TestLocationRecord(t *testing.T) {
	env := newEnv(t, "h1")
	loc := env.host("h1").Location()
	if loc.Host != "h1" || loc.ControlAddr != "h1/control" || loc.DataAddr != "h1/data" {
		t.Fatalf("location = %+v", loc)
	}
}

// TestClusterSecretAuthenticatesDock checks that hosts sharing a secret
// exchange agents, hosts with mismatched secrets refuse them, and a
// rejected migration re-arrives locally.
func TestClusterSecretAuthenticatesDock(t *testing.T) {
	env := newEnv(t, "c1", "c2", "c3")
	secret := []byte("deployment-secret")
	env.host("c1").cfg.ClusterSecret = secret
	env.host("c2").cfg.ClusterSecret = secret
	env.host("c3").cfg.ClusterSecret = []byte("different-secret")

	// Matching secrets: migration succeeds.
	if err := env.host("c1").Launch("ok-agent", &hopper{Docks: []string{env.dest("c2")}}); err != nil {
		t.Fatal(err)
	}
	env.awaitGone(t, "ok-agent")
	got := visits("ok-agent")
	if len(got) != 2 || got[1] != "c2#2" {
		t.Fatalf("visits = %v", got)
	}

	// Mismatched secret: the destination refuses, the agent re-arrives
	// locally and finishes on its origin host.
	if err := env.host("c1").Launch("refused-agent", &hopper{Docks: []string{env.dest("c3")}}); err != nil {
		t.Fatal(err)
	}
	env.awaitGone(t, "refused-agent")
	got = visits("refused-agent")
	if len(got) != 2 || got[1] != "c1#1" {
		t.Fatalf("visits = %v (agent should have stayed on c1)", got)
	}

	// No secret at all against a secured host: refused too.
	env.host("c2").cfg.ClusterSecret = nil
	if err := env.host("c2").Launch("untagged", &hopper{Docks: []string{env.dest("c1")}}); err != nil {
		t.Fatal(err)
	}
	env.awaitGone(t, "untagged")
	got = visits("untagged")
	if len(got) != 2 || got[1] != "c2#1" {
		t.Fatalf("visits = %v (untagged bundle should be refused)", got)
	}
}
