package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"naplet"
	"naplet/internal/behaviors"
	"naplet/internal/core"
	"naplet/internal/naming"
	"naplet/internal/naming/cluster"
	"naplet/internal/obs"
	"naplet/internal/transport"
)

// fetchMetrics pulls and decodes the /metrics JSON from a debug server.
func fetchMetrics(t *testing.T, addr string) obs.Snapshot {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	return snap
}

// TestDebugServerAcrossMigration is the acceptance check for the debug
// surface: a scripted migration runs against a live debug server and the
// /metrics JSON it reports must show the FSM transition counters and the
// per-phase suspend/resume timings moving.
//
// Topology: echoer stays on h1 (which carries the debug server); walker
// launches on h2 and roams h2 -> h1 -> h2 while holding one connection to
// the echoer. From h1's point of view that is one accept, one arrival with
// resumed connections, and one departure with suspended connections.
func TestDebugServerAcrossMigration(t *testing.T) {
	svc := naming.NewService()
	breg := naplet.NewRegistry()
	behaviors.RegisterAll(breg)

	newNode := func(name string) (*naplet.Node, *obs.Registry) {
		met := obs.NewRegistry()
		node, err := naplet.NewNode(naplet.Config{
			Name:      name,
			Directory: naming.Local{Svc: svc},
			Registry:  breg,
			Metrics:   met,
			Logf:      t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		return node, met
	}
	n1, met1 := newNode("h1")
	n2, _ := newNode("h2")

	srv, addr, err := startDebugServer("127.0.0.1:0", n1, met1, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	before := fetchMetrics(t, addr)

	if err := n1.Launch("echoer", &behaviors.Echo{}); err != nil {
		t.Fatal(err)
	}
	if err := n2.Launch("walker", &behaviors.Roamer{
		Target:     "echoer",
		Docks:      []string{n1.DockAddr(), n2.DockAddr()},
		MsgsPerHop: 1,
	}); err != nil {
		t.Fatal(err)
	}

	// The walker deregisters when its itinerary completes.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for {
		if _, err := svc.Lookup(ctx, "walker"); errors.Is(err, naming.ErrNotFound) {
			break
		}
		select {
		case <-ctx.Done():
			t.Fatal("walker never finished")
		case <-time.After(5 * time.Millisecond):
		}
	}

	after := fetchMetrics(t, addr)

	if before.Counters["fsm.transitions"] != 0 {
		t.Errorf("fsm.transitions before any traffic = %d", before.Counters["fsm.transitions"])
	}
	if after.Counters["fsm.transitions"] <= before.Counters["fsm.transitions"] {
		t.Errorf("fsm.transitions did not move: before %d, after %d",
			before.Counters["fsm.transitions"], after.Counters["fsm.transitions"])
	}
	for name, want := range map[string]uint64{
		"conn.accepts":                         1, // walker dialed the echoer
		"conn.suspends":                        1, // walker departing h1
		"conn.resumes":                         1, // walker arriving on h1
		"migrate.departs":                      1,
		"migrate.arrivals":                     1,
		"fsm.transition.ESTABLISHED->SUS_SENT": 1,
	} {
		if got := after.Counters[name]; got != want {
			t.Errorf("h1 %s = %d, want %d (counters %v)", name, got, want, after.Counters)
		}
	}
	for _, g := range []string{
		"phase.suspend.handshaking_ms",
		"phase.suspend.drain_ms",
		"phase.suspend.serialize_ms",
		"phase.resume.handshaking_ms",
		"phase.resume.open-socket_ms",
	} {
		if before.Gauges[g] != 0 {
			t.Errorf("%s before any migration = %v", g, before.Gauges[g])
		}
		if after.Gauges[g] <= 0 {
			t.Errorf("%s = %v after migration, want > 0", g, after.Gauges[g])
		}
	}
	if h := after.Histograms["conn.suspend_ms"]; h.Count != 1 || h.P50 <= 0 {
		t.Errorf("conn.suspend_ms = %+v", h)
	}
}

// TestDebugServerEndpoints exercises /connz (both renderings), the index
// page, and the pprof mount on a node with a live connection.
func TestDebugServerEndpoints(t *testing.T) {
	svc := naming.NewService()
	breg := naplet.NewRegistry()
	behaviors.RegisterAll(breg)
	met := obs.NewRegistry()
	node, err := naplet.NewNode(naplet.Config{
		Name:      "h1",
		Directory: naming.Local{Svc: svc},
		Registry:  breg,
		Metrics:   met,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })

	srv, addr, err := startDebugServer("127.0.0.1:0", node, met, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	// A pinger talking to an echoer on the same host keeps a connection
	// resident long enough to show up in /connz.
	if err := node.Launch("echoer", &behaviors.Echo{}); err != nil {
		t.Fatal(err)
	}
	if err := node.Launch("pinger", &behaviors.Pinger{Target: "echoer", Count: 200, IntervalMs: 5}); err != nil {
		t.Fatal(err)
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	// Wait for the connection to establish, then read the table.
	deadline := time.Now().Add(10 * time.Second)
	var table string
	for {
		_, table = get("/connz")
		if strings.Contains(table, "ESTABLISHED") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no ESTABLISHED row in /connz:\n%s", table)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !strings.Contains(table, "pinger") || !strings.Contains(table, "echoer") {
		t.Errorf("/connz missing agent names:\n%s", table)
	}

	code, body := get("/connz?format=json")
	if code != http.StatusOK {
		t.Fatalf("/connz?format=json status = %d", code)
	}
	var connz struct {
		Conns      []core.Info      `json:"conns"`
		Transports []transport.Info `json:"transports"`
	}
	if err := json.Unmarshal([]byte(body), &connz); err != nil {
		t.Fatalf("decoding /connz json: %v\n%s", err, body)
	}
	if len(connz.Conns) == 0 {
		t.Errorf("/connz json has no connections:\n%s", body)
	}
	// Both agents live on the same host here, so the data stream is local
	// and no shared transport need exist — but every listed connection must
	// reference a transport that appears in the transports section (or
	// none at all).
	byID := make(map[string]bool, len(connz.Transports))
	for _, tr := range connz.Transports {
		byID[tr.ID.String()] = true
	}
	for _, in := range connz.Conns {
		if in.Transport != "" && !byID[in.Transport] {
			t.Errorf("conn %s references transport %s not in transports list", in.ID, in.Transport)
		}
	}

	if code, body := get("/"); code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("index = %d %q", code, body)
	}
	if code, _ := get("/nope"); code != http.StatusNotFound {
		t.Errorf("GET /nope = %d, want 404", code)
	}
	if code, body := get("/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index = %d", code)
	}

	snap := fetchMetrics(t, addr)
	if snap.Gauges["conn.resident"] < 1 {
		t.Errorf("conn.resident = %v, want >= 1", snap.Gauges["conn.resident"])
	}
	if snap.Counters["conn.opens"] != 1 {
		t.Errorf("conn.opens = %d, want 1", snap.Counters["conn.opens"])
	}
}

// TestConnzTransportState pins the transport health columns on /connz: an
// inter-host connection must show its shared transport with STATE
// "connected", the negotiated CIPHER, and the negotiated LIMITS in both the
// text table and the JSON rendering. Both nodes here run with encryption on
// (the default), so the session must report aes256gcm and the encrypted
// session counter must surface in the Prometheus exposition.
func TestConnzTransportState(t *testing.T) {
	svc := naming.NewService()
	breg := naplet.NewRegistry()
	behaviors.RegisterAll(breg)

	newNode := func(name string) (*naplet.Node, *obs.Registry) {
		met := obs.NewRegistry()
		node, err := naplet.NewNode(naplet.Config{
			Name:      name,
			Directory: naming.Local{Svc: svc},
			Registry:  breg,
			Metrics:   met,
			Logf:      t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		return node, met
	}
	n1, met := newNode("h1")
	n2, _ := newNode("h2")

	srv, addr, err := startDebugServer("127.0.0.1:0", n1, met, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	if err := n1.Launch("echoer", &behaviors.Echo{}); err != nil {
		t.Fatal(err)
	}
	// A cross-host pinger forces a shared transport between h1 and h2.
	if err := n2.Launch("pinger", &behaviors.Pinger{Target: "echoer", Count: 500, IntervalMs: 5}); err != nil {
		t.Fatal(err)
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	deadline := time.Now().Add(10 * time.Second)
	var table string
	for {
		table = get("/connz")
		if strings.Contains(table, "connected") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no connected transport row in /connz:\n%s", table)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, col := range []string{"STATE", "CIPHER", "LIMITS", "RTT", "RELAY"} {
		if !strings.Contains(table, col) {
			t.Errorf("/connz transport table missing %s column:\n%s", col, table)
		}
	}
	if !strings.Contains(table, "aes256gcm") {
		t.Errorf("/connz transport table missing negotiated cipher:\n%s", table)
	}

	var connz struct {
		Transports []transport.Info `json:"transports"`
	}
	body := get("/connz?format=json")
	if err := json.Unmarshal([]byte(body), &connz); err != nil {
		t.Fatalf("decoding /connz json: %v\n%s", err, body)
	}
	if len(connz.Transports) == 0 {
		t.Fatalf("no transports in /connz json:\n%s", body)
	}
	for _, tr := range connz.Transports {
		if tr.State != "connected" {
			t.Errorf("transport %s state = %q, want \"connected\"", tr.ID, tr.State)
		}
		if tr.Cipher != "aes256gcm" {
			t.Errorf("transport %s cipher = %q, want \"aes256gcm\"", tr.ID, tr.Cipher)
		}
		if tr.Limits.MaxPayload == 0 || tr.Limits.InitialWindow == 0 {
			t.Errorf("transport %s reports zero limits: %+v", tr.ID, tr.Limits)
		}
		// The RTT estimator is seeded by the handshake itself, so a live
		// transport always reports a positive smoothed RTT; this session
		// was dialed directly, so it must not claim to be relayed.
		if tr.RTT <= 0 {
			t.Errorf("transport %s RTT = %v, want > 0 (handshake-seeded)", tr.ID, tr.RTT)
		}
		if tr.Relayed {
			t.Errorf("transport %s marked relayed on a direct dial", tr.ID)
		}
	}

	// The encrypted-session counter must reach the Prometheus exposition
	// under the dots-to-underscores name mapping.
	prom := get("/metrics?format=prom")
	if !strings.Contains(prom, "# TYPE transport_encrypted counter") ||
		!strings.Contains(prom, "\ntransport_encrypted ") ||
		strings.Contains(prom, "\ntransport_encrypted 0\n") {
		t.Errorf("/metrics?format=prom missing nonzero transport_encrypted counter:\n%s", prom)
	}
	if !strings.Contains(prom, "\ntransport_cleartext 0\n") {
		t.Errorf("/metrics?format=prom missing transport_cleartext counter:\n%s", prom)
	}
	// The path-RTT gauge and the relay fallback counter reach the
	// exposition too: rtt_ms is live (nonzero) on an established session,
	// relay_dials stays 0 because the direct dial succeeded.
	if !strings.Contains(prom, "# TYPE transport_rtt_ms gauge") ||
		strings.Contains(prom, "\ntransport_rtt_ms 0\n") {
		t.Errorf("/metrics?format=prom missing nonzero transport_rtt_ms gauge:\n%s", prom)
	}
	if !strings.Contains(prom, "\ntransport_relay_dials 0\n") {
		t.Errorf("/metrics?format=prom missing transport_relay_dials counter:\n%s", prom)
	}
}

// TestNamezEndpoint runs a napletd-shaped node against a single-process
// naming cluster node and checks the /namez rendering: the hosted shard
// table and the controller's location-cache stats, in both text and JSON.
func TestNamezEndpoint(t *testing.T) {
	caddr := freeUDPAddr(t)
	layout, err := cluster.BuildLayout([]string{caddr}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cnode, err := cluster.NewNode(cluster.NodeConfig{Addr: caddr, Layout: layout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cnode.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	cli, err := cluster.NewClient(ctx, cluster.ClientConfig{Seeds: []string{caddr}})
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })

	breg := naplet.NewRegistry()
	behaviors.RegisterAll(breg)
	met := obs.NewRegistry()
	node, err := naplet.NewNode(naplet.Config{
		Name:      "h1",
		Directory: cli,
		Registry:  breg,
		Metrics:   met,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })

	srv, addr, err := startDebugServer("127.0.0.1:0", node, met, cnode)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	// Register agents through the cluster and drive a connection so the
	// location cache sees at least one lookup.
	if err := node.Launch("echoer", &behaviors.Echo{}); err != nil {
		t.Fatal(err)
	}
	if err := node.Launch("pinger", &behaviors.Pinger{Target: "echoer", Count: 1}); err != nil {
		t.Fatal(err)
	}
	waitCtx, waitCancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer waitCancel()
	for {
		if _, err := cli.Lookup(waitCtx, "pinger"); errors.Is(err, naming.ErrNotFound) {
			break
		}
		select {
		case <-waitCtx.Done():
			t.Fatal("pinger never finished")
		case <-time.After(10 * time.Millisecond):
		}
	}

	resp, err := http.Get("http://" + addr + "/namez")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/namez status = %d", resp.StatusCode)
	}
	for _, want := range []string{"naming shard replicas", "leader", "location cache", "HIT-RATE"} {
		if !strings.Contains(text, want) {
			t.Errorf("/namez missing %q:\n%s", want, text)
		}
	}

	resp, err = http.Get("http://" + addr + "/namez?format=json")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var namez struct {
		Shards       []cluster.ShardInfo `json:"shards"`
		CacheEnabled bool                `json:"cache_enabled"`
		Cache        naming.CacheStats   `json:"location_cache"`
	}
	if err := json.Unmarshal(body, &namez); err != nil {
		t.Fatalf("decoding /namez json: %v\n%s", err, body)
	}
	if len(namez.Shards) != 2 {
		t.Fatalf("hosted shards = %d, want 2", len(namez.Shards))
	}
	records := 0
	for _, sh := range namez.Shards {
		if sh.Role != "leader" {
			t.Errorf("single-replica shard %d role = %q, want leader", sh.Shard, sh.Role)
		}
		records += sh.Records
	}
	if records == 0 {
		t.Error("cluster shows zero records after launches")
	}
	if !namez.CacheEnabled {
		t.Error("location cache reported disabled")
	}
	if namez.Cache.Hits+namez.Cache.Misses == 0 {
		t.Errorf("location cache saw no lookups: %+v", namez.Cache)
	}
}
