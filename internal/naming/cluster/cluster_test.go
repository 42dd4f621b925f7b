package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"naplet/internal/naming"
	"naplet/internal/obs"
)

// reserveAddrs grabs n distinct loopback UDP addresses by binding and
// releasing them; the cluster layout must name addresses before the nodes
// exist.
func reserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	conns := make([]net.PacketConn, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserving port: %v", err)
		}
		conns[i] = pc
		addrs[i] = pc.LocalAddr().String()
	}
	for _, pc := range conns {
		pc.Close()
	}
	return addrs
}

// testCluster is an in-process cluster plus a client against it.
type testCluster struct {
	layout Layout
	nodes  map[string]*Node // by address
	client *Client
	reg    *obs.Registry
}

func startCluster(t *testing.T, nodeCount, shards, replication int, tweak func(*NodeConfig)) *testCluster {
	t.Helper()
	addrs := reserveAddrs(t, nodeCount)
	layout, err := BuildLayout(addrs, shards, replication)
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{layout: layout, nodes: make(map[string]*Node), reg: obs.NewRegistry()}
	for _, addr := range addrs {
		cfg := NodeConfig{
			Addr:           addr,
			Layout:         layout,
			LeaseInterval:  25 * time.Millisecond,
			LeaseDuration:  150 * time.Millisecond,
			GossipInterval: 100 * time.Millisecond,
			Metrics:        tc.reg,
		}
		if tweak != nil {
			tweak(&cfg)
		}
		n, err := NewNode(cfg)
		if err != nil {
			t.Fatalf("starting node %s: %v", addr, err)
		}
		tc.nodes[addr] = n
	}
	t.Cleanup(func() {
		for _, n := range tc.nodes {
			n.Kill()
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cli, err := NewClient(ctx, ClientConfig{Seeds: addrs, Metrics: tc.reg})
	if err != nil {
		t.Fatalf("starting client: %v", err)
	}
	t.Cleanup(func() { cli.Close() })
	tc.client = cli
	return tc
}

func loc(host string, epoch uint64) naming.Location {
	return naming.Location{
		Host:        host,
		ControlAddr: fmt.Sprintf("10.0.0.1:%d", 1000+epoch),
		DataAddr:    fmt.Sprintf("10.0.0.1:%d", 2000+epoch),
	}
}

// TestClusterBasicOps runs the namespace operations against a sharded,
// replicated cluster and against the smallest layout — one node, one
// shard, one replica, which is what a lone name server is.
func TestClusterBasicOps(t *testing.T) {
	for _, shape := range []struct {
		name                       string
		nodes, shards, replication int
	}{
		{"3x3x2", 3, 3, 2},
		{"1x1x1", 1, 1, 1},
	} {
		t.Run(shape.name, func(t *testing.T) {
			testBasicOps(t, startCluster(t, shape.nodes, shape.shards, shape.replication, nil))
		})
	}
}

func testBasicOps(t *testing.T, tc *testCluster) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	const agents = 60
	for i := 0; i < agents; i++ {
		id := fmt.Sprintf("agent-%d", i)
		if err := tc.client.Register(ctx, id, loc("h1", 1)); err != nil {
			t.Fatalf("register %s: %v", id, err)
		}
	}
	for i := 0; i < agents; i++ {
		id := fmt.Sprintf("agent-%d", i)
		rec, err := tc.client.Lookup(ctx, id)
		if err != nil {
			t.Fatalf("lookup %s: %v", id, err)
		}
		if rec.Epoch != 1 || rec.Loc.Host != "h1" {
			t.Fatalf("lookup %s = %+v, want epoch 1 at h1", id, rec)
		}
	}

	// Migrations bump epochs; stale and duplicate writes are rejected
	// with the naming sentinels across the wire.
	if err := tc.client.Update(ctx, "agent-0", loc("h2", 2), 2); err != nil {
		t.Fatalf("update: %v", err)
	}
	rec, err := tc.client.Lookup(ctx, "agent-0")
	if err != nil || rec.Epoch != 2 || rec.Loc.Host != "h2" {
		t.Fatalf("lookup after update = %+v, %v", rec, err)
	}
	if err := tc.client.Update(ctx, "agent-0", loc("h3", 2), 2); !errors.Is(err, naming.ErrStale) {
		t.Fatalf("stale update: got %v, want ErrStale", err)
	}
	if err := tc.client.Register(ctx, "agent-0", loc("h1", 1)); !errors.Is(err, naming.ErrExists) {
		t.Fatalf("duplicate register: got %v, want ErrExists", err)
	}
	if err := tc.client.Deregister(ctx, "agent-1"); err != nil {
		t.Fatalf("deregister: %v", err)
	}
	if _, err := tc.client.Lookup(ctx, "agent-1"); !errors.Is(err, naming.ErrNotFound) {
		t.Fatalf("lookup after deregister: got %v, want ErrNotFound", err)
	}
	if err := tc.client.Register(ctx, "agent-1", loc("h3", 1)); err != nil {
		t.Fatalf("register after deregister: %v", err)
	}
	if _, err := tc.client.Lookup(ctx, "ghost"); !errors.Is(err, naming.ErrNotFound) {
		t.Fatalf("lookup of unknown agent: got %v, want ErrNotFound", err)
	}

	// The per-shard counter family saw the traffic.
	var lookups uint64
	for s := 0; s < tc.layout.Shards; s++ {
		lookups += tc.reg.Counter(fmt.Sprintf("naming.shard.%d.lookups", s)).Value()
	}
	if lookups == 0 {
		t.Fatal("per-shard lookup counters never incremented")
	}
}

func TestClusterReplicationReachesFollowers(t *testing.T) {
	tc := startCluster(t, 3, 3, 2, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 30; i++ {
		id := fmt.Sprintf("agent-%d", i)
		if err := tc.client.Register(ctx, id, loc("h1", 1)); err != nil {
			t.Fatalf("register: %v", err)
		}
	}
	// Synchronous replication means followers hold every record the
	// moment the register call returns: sum follower record counts.
	perShard := make(map[int]map[string]int) // shard -> role -> records
	for _, n := range tc.nodes {
		for _, info := range n.Infos() {
			if perShard[info.Shard] == nil {
				perShard[info.Shard] = map[string]int{}
			}
			perShard[info.Shard][info.Role] += info.Records
		}
	}
	for shard, roles := range perShard {
		if roles["leader"] != roles["follower"] {
			t.Fatalf("shard %d: leader holds %d records, follower %d — synchronous replication lagging",
				shard, roles["leader"], roles["follower"])
		}
	}
}

func TestClusterLeaderFailover(t *testing.T) {
	tc := startCluster(t, 3, 3, 2, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	const agents = 30
	for i := 0; i < agents; i++ {
		if err := tc.client.Register(ctx, fmt.Sprintf("agent-%d", i), loc("h1", 1)); err != nil {
			t.Fatalf("register: %v", err)
		}
	}

	// Kill the node leading shard 0 (rank 0 in the layout).
	victim := tc.layout.Replicas[0][0]
	tc.nodes[victim].Kill()

	// Every lookup must still be answered after failover, and writes must
	// land on the new leader.
	for i := 0; i < agents; i++ {
		id := fmt.Sprintf("agent-%d", i)
		rec, err := tc.client.Lookup(ctx, id)
		if err != nil {
			t.Fatalf("lookup %s after leader kill: %v", id, err)
		}
		if rec.Epoch != 1 {
			t.Fatalf("lookup %s after leader kill: epoch %d, want 1", id, rec.Epoch)
		}
	}
	for i := 0; i < agents; i++ {
		id := fmt.Sprintf("agent-%d", i)
		if err := tc.client.Update(ctx, id, loc("h2", 2), 2); err != nil {
			t.Fatalf("update %s after leader kill: %v", id, err)
		}
	}
	if got := tc.reg.Counter("naming.lease_transfers").Value(); got == 0 {
		t.Fatal("lease_transfers counter never incremented despite a leader kill")
	}

	// The survivor hosting shard 0 now reports itself leader at a higher
	// term.
	follower := tc.layout.Replicas[0][1]
	var found bool
	for _, info := range tc.nodes[follower].Infos() {
		if info.Shard == 0 {
			found = true
			if info.Role != "leader" || info.Term < 2 {
				t.Fatalf("shard 0 on survivor: role=%s term=%d, want leader at term >= 2", info.Role, info.Term)
			}
		}
	}
	if !found {
		t.Fatal("survivor does not host shard 0")
	}
}

func TestClusterFollowerRejectsStaleReads(t *testing.T) {
	// With the lease silenced (huge intervals, so no heartbeats land
	// within the test) a follower must refuse reads once its data age
	// exceeds the staleness bound rather than answer from stale state.
	tc := startCluster(t, 2, 1, 2, func(cfg *NodeConfig) {
		cfg.LeaseInterval = time.Hour
		cfg.LeaseDuration = 10 * time.Hour // no takeover either
		cfg.StalenessBound = 50 * time.Millisecond
		cfg.GossipInterval = time.Hour
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := tc.client.Register(ctx, "a", loc("h1", 1)); err != nil {
		t.Fatalf("register: %v", err)
	}
	time.Sleep(100 * time.Millisecond) // exceed the staleness bound

	// Ask the follower directly: it must redirect, not serve.
	follower := tc.layout.Replicas[0][1]
	resp, err := tc.client.call(ctx, follower, request{Kind: kindClient, Shard: 0, Op: opLookup, AgentID: "a"})
	if err != nil {
		t.Fatalf("direct follower call: %v", err)
	}
	if !resp.NotLeader {
		t.Fatalf("follower served a read %v past the staleness bound: %+v", 100*time.Millisecond, resp)
	}
	// The leader, of course, still serves.
	leader := tc.layout.Replicas[0][0]
	resp, err = tc.client.call(ctx, leader, request{Kind: kindClient, Shard: 0, Op: opLookup, AgentID: "a"})
	if err != nil || resp.Err != "" || resp.NotLeader {
		t.Fatalf("leader lookup: %v / %+v", err, resp)
	}
}
