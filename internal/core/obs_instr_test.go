package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"naplet/internal/obs"
)

// withMetrics gives every host its own registry (shared registries would
// collide on the per-controller gauge names) and records them by host name.
func withMetrics(regs map[string]*obs.Registry) envOption {
	return func(c *Config) {
		r := obs.NewRegistry()
		regs[c.HostName] = r
		c.Metrics = r
	}
}

// TestMetricsAcrossMigration drives a scripted open + migrate + close and
// checks that the lifecycle counters, FSM transition counters, latency
// histograms, and per-phase suspend/resume gauges all move.
func TestMetricsAcrossMigration(t *testing.T) {
	regs := make(map[string]*obs.Registry)
	env := newEnv(t, []string{"h1", "h2"}, withMetrics(regs))
	client, server := env.pair("walker", "h1", "echoer", "h2")

	if err := client.WriteMsg([]byte("before")); err != nil {
		t.Fatal(err)
	}
	if msg, err := server.ReadMsg(); err != nil || !bytes.Equal(msg, []byte("before")) {
		t.Fatalf("ReadMsg = %q, %v", msg, err)
	}

	env.migrate("walker", "h1", "h2", 2)
	moved, err := env.hosts["h2"].ctrl.AgentSocket("walker", client.ID())
	if err != nil {
		t.Fatal(err)
	}
	waitEstablished(t, moved, server)
	if err := moved.WriteMsg([]byte("after")); err != nil {
		t.Fatal(err)
	}
	if msg, err := server.ReadMsg(); err != nil || !bytes.Equal(msg, []byte("after")) {
		t.Fatalf("ReadMsg after migration = %q, %v", msg, err)
	}
	moved.Close()

	s1 := regs["h1"].Snapshot()
	s2 := regs["h2"].Snapshot()

	// Origin host: the open, the pre-depart suspend, and the departure.
	for name, want := range map[string]uint64{
		"conn.opens":            1,
		"conn.suspends":         1,
		"migrate.departs":       1,
		"migrate.conns_shipped": 1,
	} {
		if got := s1.Counters[name]; got != want {
			t.Errorf("h1 %s = %d, want %d", name, got, want)
		}
	}
	if s1.Counters["fsm.transitions"] == 0 {
		t.Error("h1 recorded no FSM transitions")
	}
	if s1.Counters["fsm.transition.ESTABLISHED->SUS_SENT"] == 0 {
		t.Errorf("h1 missing suspend edge; counters = %v", s1.Counters)
	}
	if h := s1.Histograms["conn.suspend_ms"]; h.Count != 1 || h.P50 <= 0 {
		t.Errorf("h1 conn.suspend_ms = %+v", h)
	}
	if h := s1.Histograms["conn.open_ms"]; h.Count != 1 {
		t.Errorf("h1 conn.open_ms = %+v", h)
	}
	for _, g := range []string{"phase.suspend.handshaking_ms", "phase.suspend.drain_ms", "phase.suspend.serialize_ms"} {
		if s1.Gauges[g] <= 0 {
			t.Errorf("h1 %s = %v, want > 0", g, s1.Gauges[g])
		}
	}
	if s1.Gauges["rudp.requests_sent"] <= 0 {
		t.Errorf("h1 rudp.requests_sent = %v", s1.Gauges["rudp.requests_sent"])
	}

	// Destination host: the accept, the arrival, and the resume.
	if s2.Counters["conn.accepts"] != 1 {
		t.Errorf("h2 conn.accepts = %d, want 1", s2.Counters["conn.accepts"])
	}
	if s2.Counters["migrate.arrivals"] != 1 {
		t.Errorf("h2 migrate.arrivals = %d, want 1", s2.Counters["migrate.arrivals"])
	}
	if s2.Counters["conn.resumes"] == 0 {
		t.Error("h2 recorded no resumes")
	}
	if h := s2.Histograms["conn.resume_ms"]; h.Count == 0 {
		t.Errorf("h2 conn.resume_ms = %+v", h)
	}
	for _, g := range []string{"phase.resume.handshaking_ms", "phase.resume.open-socket_ms"} {
		if s2.Gauges[g] <= 0 {
			t.Errorf("h2 %s = %v, want > 0", g, s2.Gauges[g])
		}
	}
}

// TestConnInfos checks the /connz data source: resident connections are
// reported sorted by id with live state.
func TestConnInfos(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"})
	env.pair("a", "h1", "b", "h2")
	env.pair("c", "h1", "d", "h2")
	infos := env.hosts["h1"].ctrl.ConnInfos()
	if len(infos) != 2 {
		t.Fatalf("ConnInfos = %d entries, want 2", len(infos))
	}
	if bytes.Compare(infos[0].ID[:], infos[1].ID[:]) >= 0 {
		t.Error("ConnInfos not sorted by id")
	}
	for _, in := range infos {
		if in.State != "ESTABLISHED" {
			t.Errorf("conn %s state = %s, want ESTABLISHED", in.ID, in.State)
		}
	}
}

// TestLeveledLoggerCarriesConnContext checks that lifecycle lines flow
// through a configured obs.Logger with conn id and state fields attached.
func TestLeveledLoggerCarriesConnContext(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	sink := func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	withLogger := func(c *Config) {
		c.Logger = obs.NewLogger(sink, obs.LevelInfo)
	}
	env := newEnv(t, []string{"h1", "h2"}, withLogger)
	client, _ := env.pair("a", "h1", "b", "h2")
	id := client.ID().String()

	mu.Lock()
	defer mu.Unlock()
	var opened bool
	for _, ln := range lines {
		if strings.HasPrefix(ln, "INFO") && strings.Contains(ln, "opened in") &&
			strings.Contains(ln, "conn="+id) && strings.Contains(ln, "host=h1") {
			opened = true
		}
	}
	if !opened {
		t.Fatalf("no INFO opened line with conn context; lines = %q", lines)
	}
}
