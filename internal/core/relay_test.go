package core

import (
	"io"
	"net"
	"testing"
	"time"

	"naplet/internal/netem"
	"naplet/internal/obs"
	"naplet/internal/relay"
)

// behindNAT puts every host behind a default-deny NAT that admits only the
// relay rs, registers each with it, and gives each a metrics registry in
// mets.
func behindNAT(rs *relay.Server, mets map[string]*obs.Registry) envOption {
	return func(cfg *Config) {
		nat := netem.NewNAT()
		nat.Allow(rs.Addr())
		met := obs.NewRegistry()
		mets[cfg.HostName] = met
		cfg.Metrics = met
		cfg.RelayVia = rs.Addr()
		cfg.DialData = nat.WrapDial(func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		})
	}
}

// awaitRegistrations waits for n registration legs at the relay: they come
// up asynchronously, and the rendezvous only works once every host holds
// one.
func awaitRegistrations(t *testing.T, rs *relay.Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for rs.Registrations() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d relay registrations, want %d", rs.Registrations(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMigrationSustainedThroughRelayNAT is the WAN acceptance scenario: every
// host sits behind a default-deny NAT that admits only the relay, so no host
// can dial another's redirector directly. The logical connection must still
// establish, survive its relayed transport being killed mid-stream (the
// connection's own recovery redials through the relay), survive a
// migration, and deliver every byte exactly once — entirely over relayed
// transport legs.
func TestMigrationSustainedThroughRelayNAT(t *testing.T) {
	rs, err := relay.New("127.0.0.1:0", obs.NewLogger(t.Logf, obs.LevelDebug))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	mets := map[string]*obs.Registry{}
	tap := &connTap{}
	env := newEnv(t, []string{"h1", "h2", "h3"}, onHost("h1", func(cfg *Config) { cfg.WrapData = tap.wrap }), behindNAT(rs, mets))
	awaitRegistrations(t, rs, 3)

	client, server := env.pair("mover", "h1", "anchor", "h2")

	// The h1<->h2 transport cannot exist except through the relay.
	if got := mets["h1"].Counter("transport.relay_dials").Value(); got < 1 {
		t.Fatalf("h1 transport.relay_dials = %d, want >= 1", got)
	}
	for _, in := range env.hosts["h1"].ctrl.TransportInfos() {
		if !in.Relayed {
			t.Fatalf("h1 transport to %s not marked relayed", in.PeerHost)
		}
	}

	if _, err := client.Write([]byte("pre")); err != nil {
		t.Fatal(err)
	}
	// Kill the relayed transport under the live connection: both ends
	// degrade, and the resume redials through the relay (the NAT still
	// admits nothing else).
	tap.killLatest()
	if _, err := client.Write([]byte("-mid")); err != nil {
		t.Fatal(err)
	}
	relayDials := func() uint64 {
		return mets["h1"].Counter("transport.relay_dials").Value() + mets["h2"].Counter("transport.relay_dials").Value()
	}
	for _, h := range []string{"h1", "h2"} {
		reg := mets[h]
		eventually(t, h+" to recover from the kill", func() bool {
			f := reg.Counter("conn.failures").Value()
			return f == 1 && reg.Counter("fault.conn_recoveries").Value() == f
		})
	}
	if got := relayDials(); got < 2 {
		t.Fatalf("%d relay dials between h1 and h2, want the first and the recovery's", got)
	}
	env.migrate("mover", "h1", "h3", 2)

	moved, err := env.hosts["h3"].ctrl.AgentSocket("mover", client.ID())
	if err != nil {
		t.Fatal(err)
	}
	waitEstablished(t, moved, server)
	if _, err := moved.Write([]byte("-post")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len("pre-mid-post"))
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "pre-mid-post" {
		t.Fatalf("anchor read %q, want \"pre-mid-post\"", got)
	}
	if _, err := server.Write([]byte("back")); err != nil {
		t.Fatal(err)
	}
	got = make([]byte, 4)
	if _, err := io.ReadFull(moved, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "back" {
		t.Fatalf("mover read %q, want \"back\"", got)
	}

	// The post-migration h3<->h2 transport is also relayed: the NAT never
	// opened, the rendezvous carried the whole recovery.
	relayed := 0
	for _, in := range env.hosts["h3"].ctrl.TransportInfos() {
		if in.Relayed {
			relayed++
		}
	}
	if relayed == 0 {
		t.Fatal("no relayed transport on the migration target")
	}
	if got := mets["h3"].Counter("transport.relay_dials").Value(); got < 1 {
		t.Fatalf("h3 transport.relay_dials = %d, want >= 1", got)
	}
}

// TestCarryThroughRelayNAT hops an agent bundle to a host that nothing can
// dial directly, which the old dedicated dock listener could never reach:
// the carrier's stream opens on a transport dialed through the relay, and
// the destination's docked receiver runs.
func TestCarryThroughRelayNAT(t *testing.T) {
	rs, err := relay.New("127.0.0.1:0", obs.NewLogger(t.Logf, obs.LevelDebug))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	mets := map[string]*obs.Registry{}
	env := newEnv(t, []string{"h1", "h2"}, behindNAT(rs, mets))
	awaitRegistrations(t, rs, 2)

	sink := &bundleSink{}
	env.hosts["h2"].ctrl.Dock(sink.arrive)
	if err := env.hosts["h1"].ctrl.Carry("mover", env.hosts["h2"].ctrl.DataAddr(), []byte("over the relay")); err != nil {
		t.Fatalf("carry to the NAT'd host: %v", err)
	}
	if got := sink.received(); len(got) != 1 || string(got[0]) != "over the relay" {
		t.Fatalf("receiver got %q", got)
	}
	if got := mets["h1"].Counter("transport.relay_dials").Value(); got != 1 {
		t.Fatalf("h1 transport.relay_dials = %d, want 1", got)
	}
}
