package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"naplet/internal/naming"
	"naplet/internal/netem"
)

// The tests in this file run the layout a lone name server is: one node,
// one shard, one replica.

// TestSingleNodeUnderControlLoss drives a client and a lone node through a
// seeded 2% control-channel drop plan on both endpoints and asserts that
//
//   - every operation completes within its bound (no op hangs past the
//     per-op deadline),
//   - the epoch sequence never regresses or duplicates: retransmitted
//     requests are absorbed by the transport's response cache, and an
//     explicit duplicate update is rejected with ErrStale rather than
//     applied twice.
func TestSingleNodeUnderControlLoss(t *testing.T) {
	faults := netem.NewFaults(42)
	faults.SetLoss(0.02)
	drop := faults.DropFn()
	var dropped atomic.Int64
	countingDrop := func(p []byte) bool {
		if drop(p) {
			dropped.Add(1)
			return true
		}
		return false
	}

	addr := reserveAddrs(t, 1)[0]
	layout, err := BuildLayout([]string{addr}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewNode(NodeConfig{Addr: addr, Layout: layout, DropFn: countingDrop})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Kill()

	// perOp bounds each operation: the rudp retry budget (10 retransmits
	// with capped backoff) resolves well inside it, so hitting the bound
	// means retries are not bounded the way they should be.
	const perOp = 10 * time.Second
	const agents = 40
	bound := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(context.Background(), perOp)
	}

	ctx, cancel := bound()
	cli, err := NewClient(ctx, ClientConfig{Seeds: []string{addr}, DropFn: countingDrop})
	cancel()
	if err != nil {
		t.Fatalf("bootstrap under loss: %v", err)
	}
	defer cli.Close()

	for i := 0; i < agents; i++ {
		ctx, cancel := bound()
		err := cli.Register(ctx, fmt.Sprintf("agent-%d", i), loc("h1", 1))
		cancel()
		if err != nil {
			t.Fatalf("register agent-%d under loss: %v", i, err)
		}
	}

	// Sequential migrations: each epoch must land exactly once.
	for epoch := uint64(2); epoch <= 6; epoch++ {
		for i := 0; i < agents; i++ {
			id := fmt.Sprintf("agent-%d", i)
			ctx, cancel := bound()
			err := cli.Update(ctx, id, loc(fmt.Sprintf("h%d", epoch), epoch), epoch)
			cancel()
			if err != nil {
				t.Fatalf("update %s to epoch %d under loss: %v", id, epoch, err)
			}
			// A duplicate of an applied update is a stale write, not a
			// second application.
			ctx, cancel = bound()
			err = cli.Update(ctx, id, loc("dup", epoch), epoch)
			cancel()
			if !errors.Is(err, naming.ErrStale) {
				t.Fatalf("duplicate update %s epoch %d: got %v, want ErrStale", id, epoch, err)
			}
		}
	}

	for i := 0; i < agents; i++ {
		id := fmt.Sprintf("agent-%d", i)
		ctx, cancel := bound()
		rec, err := cli.Lookup(ctx, id)
		cancel()
		if err != nil {
			t.Fatalf("lookup %s under loss: %v", id, err)
		}
		if rec.Epoch != 6 {
			t.Fatalf("%s ended at epoch %d, want exactly 6 (duplicate or lost update)", id, rec.Epoch)
		}
		if rec.Loc.Host != "h6" {
			t.Fatalf("%s ended at %q, want h6", id, rec.Loc.Host)
		}
	}

	if dropped.Load() == 0 {
		t.Fatal("fault plan never dropped a packet; the loss path was not exercised")
	}
	t.Logf("completed under loss: %d packets dropped", dropped.Load())
}

// TestSingleNodeTTLExpiry checks NodeConfig.TTL end to end: an entry its
// host stops refreshing reads as not found through the client, and a
// re-registration over it continues the epoch sequence.
func TestSingleNodeTTLExpiry(t *testing.T) {
	const ttl = 500 * time.Millisecond
	tc := startCluster(t, 1, 1, 1, func(cfg *NodeConfig) { cfg.TTL = ttl })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// The entry's age at any lookup is at most the time since just before
	// it was registered, which is the only clock this test can read.
	start := time.Now()
	if err := tc.client.Register(ctx, "a", loc("h1", 1)); err != nil {
		t.Fatal(err)
	}
	_, err := tc.client.Lookup(ctx, "a")
	if err != nil && time.Since(start) < ttl {
		t.Fatalf("lookup inside the TTL: %v", err)
	}
	for !errors.Is(err, naming.ErrNotFound) {
		if ctx.Err() != nil {
			t.Fatalf("entry still resolving long past its %v TTL (last err %v)", ttl, err)
		}
		time.Sleep(20 * time.Millisecond)
		_, err = tc.client.Lookup(ctx, "a")
	}
	if age := time.Since(start); age < ttl {
		t.Fatalf("entry expired within %v, before its %v TTL", age, ttl)
	}

	if err := tc.client.Register(ctx, "a", loc("h2", 2)); err != nil {
		t.Fatalf("re-register over expired entry: %v", err)
	}
	rec, err := tc.client.Lookup(ctx, "a")
	if err != nil || rec.Epoch != 2 || rec.Loc.Host != "h2" {
		t.Fatalf("re-registered record = %+v, %v; want epoch 2 at h2", rec, err)
	}
}

// TestClientStartsBeforeNode is the start-order case of a two-host
// deployment: the host that only names the service comes up first. The
// node appears only after one whole rudp retry budget (ten retransmissions,
// about 1.4 s) has been spent on the seed, so a single pass over the seeds
// has already failed and only a client that keeps sweeping comes up.
func TestClientStartsBeforeNode(t *testing.T) {
	addr := reserveAddrs(t, 1)[0]
	layout, err := BuildLayout([]string{addr}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make(chan *Node, 1)
	timer := time.AfterFunc(2*time.Second, func() {
		n, err := NewNode(NodeConfig{Addr: addr, Layout: layout})
		if err != nil {
			t.Errorf("starting node: %v", err)
		}
		nodes <- n
	})
	defer func() {
		if !timer.Stop() {
			if n := <-nodes; n != nil {
				n.Kill()
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	cli, err := NewClient(ctx, ClientConfig{Seeds: []string{addr}})
	if err != nil {
		t.Fatalf("client never came up: %v", err)
	}
	defer cli.Close()
	if err := cli.Register(ctx, "a", loc("h1", 1)); err != nil {
		t.Fatalf("register: %v", err)
	}
	if rec, err := cli.Lookup(ctx, "a"); err != nil || rec.Epoch != 1 || rec.Loc.Host != "h1" {
		t.Fatalf("lookup = %+v, %v", rec, err)
	}

	// A bootstrap nobody answers still ends when its context does.
	short, cancelShort := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancelShort()
	if c, err := NewClient(short, ClientConfig{Seeds: reserveAddrs(t, 1)}); err == nil {
		c.Close()
		t.Fatal("bootstrap against a dead seed succeeded")
	}
}
