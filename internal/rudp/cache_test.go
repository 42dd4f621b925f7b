package rudp

import (
	"net"
	"net/netip"
	"testing"
	"time"
)

// The response cache is bounded by count. At the bound the oldest completed
// responses make room; one whose handler is still running stays, because its
// duplicates are waiting on it. What the bound costs is stated here too: a
// duplicate of an evicted request runs the handler again. The handlers of
// this repository take that — as they must, the cache does not survive a
// restart either: every core control message past CONNECT carries a
// per-connection nonce that Socket.checkAuth refuses to see twice, before any
// state is touched (core.TestReplayedControlMessageRejected), and a second
// CONNECT for a connection id the host already holds is refused as a
// duplicate; the naming cluster's and the post office's requests are
// idempotent by epoch and by message id.
func TestResponseCacheAtTheBound(t *testing.T) {
	release := make(chan struct{})
	client, server := newPair(t, func(_ *net.UDPAddr, req []byte) []byte {
		if string(req) == "slow" {
			<-release
		}
		return req
	}, Config{})
	defer close(release)
	dst := server.Addr().AddrPort()
	send := func(id uint64, body string) {
		t.Helper()
		if err := client.send(dst, encodePacket(kindRequest, id, []byte(body))); err != nil {
			t.Fatal(err)
		}
	}
	await := func(what string, stat func(Stats) uint64, want uint64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); stat(server.Stats()) != want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s = %d, want %d", what, stat(server.Stats()), want)
			}
		}
	}
	invoked := func(s Stats) uint64 { return s.HandlerInvoked }
	duplicates := func(s Stats) uint64 { return s.DuplicateRequests }
	served := func(s Stats) uint64 { return s.ResponsesServed }

	// The two oldest entries: one whose handler never returns during the
	// test, one ordinary.
	send(1, "slow")
	await("handler invocations", invoked, 1)
	send(2, "old")
	await("handler invocations", invoked, 2)
	await("responses served", served, 1)
	send(2, "old")
	await("duplicates answered from the cache", duplicates, 1)
	await("responses served", served, 2)
	if n := server.Stats().HandlerInvoked; n != 2 {
		t.Fatalf("a duplicate inside the cache ran the handler (%d invocations)", n)
	}

	// Fill the cache to the bound with younger completed responses.
	done := make(chan struct{})
	close(done)
	filler := netip.MustParseAddrPort("192.0.2.1:9")
	server.mu.Lock()
	for id := uint64(0); len(server.cache) < responseCacheMax; id++ {
		k := cacheKey{addr: filler, id: id}
		server.cache[k] = &cacheEntry{done: done}
		server.cacheOrder = append(server.cacheOrder, k)
	}
	server.mu.Unlock()

	send(3, "new") // the request that finds the cache full
	await("handler invocations", invoked, 3)
	server.mu.Lock()
	size, order := len(server.cache), len(server.cacheOrder)
	_, slowKept := server.cache[cacheKey{addr: client.Addr().AddrPort(), id: 1}]
	_, oldKept := server.cache[cacheKey{addr: client.Addr().AddrPort(), id: 2}]
	server.mu.Unlock()
	if size > responseCacheMax || size < responseCacheMax/2 || order != size {
		t.Fatalf("cache holds %d entries (%d in its order list) after an insert at the bound of %d", size, order, responseCacheMax)
	}
	if !slowKept {
		t.Fatal("an entry whose handler is still running was evicted: its duplicates would run the handler twice at once")
	}
	if oldKept {
		t.Fatal("the oldest completed entry survived an eviction")
	}

	// The evicted request's duplicate is a new request to the endpoint.
	send(2, "old")
	await("handler invocations", invoked, 4)
	if n := server.Stats().DuplicateRequests; n != 1 {
		t.Fatalf("duplicates = %d, want 1: the evicted request cannot have been recognised", n)
	}
}
