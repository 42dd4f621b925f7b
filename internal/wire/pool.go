package wire

import (
	"sync"
	"sync/atomic"
)

// Pooled buffers cycle at segment rate: one per run of encoded frames on
// either side of the data plane (send segment, received mux payload, the
// assembly of a frame that straddles two of them) and one per mux record the
// transport queues or reads, control records included. A sealed record is
// sealed and opened in place, in the buffer its frame is queued in and the
// buffer its stream keeps.
// Allocating each from the heap makes the garbage collector a data-plane
// cost, so they are drawn from a small set of size-classed pools instead.
//
// Ownership protocol: GetPayload hands the caller an exclusively owned
// buffer; ownership then travels with the slice (stream queue, receive
// buffer, send log). Whoever drains the last reference — and is sure no
// snapshot, retransmit, or in-flight write is still reading it — calls
// PutPayload. A buffer that escapes the protocol is simply never returned;
// the pool refills itself through GetPayload misses.

// payloadClasses are the pooled capacity classes: the third holds the
// biggest mux payload — a 64 KiB message with its frame header, the data
// plane's segment size, with room left for the AEAD tag of the sealed
// record that carries it — and the last the largest frame there is. A
// request is served from the smallest class that fits, except that the last
// class serves only requests above half its size: what falls in between is rare
// enough to be allocated at its exact size, so that a large buffer never
// holds more than twice what was asked of it and a bound counted in buffer
// capacities stays a bound on data.
var payloadClasses = [...]int{1 << 10, 8 << 10, MaxMuxPayload, MaxFramePayload + FrameHeaderSize}

// payloadPools hold *[]byte boxes, one per class; boxPool holds the empty
// boxes between a Get and the next Put, so recycling a buffer allocates
// nothing (a slice header stored in a sync.Pool directly escapes to the heap
// on every Put).
var (
	payloadPools [len(payloadClasses)]sync.Pool
	boxPool      sync.Pool
)

// Pool effectiveness counters, exported to the observability layer through
// PoolStats (registered as /metrics gauges by the core controller).
var (
	poolHits    atomic.Uint64
	poolMisses  atomic.Uint64
	poolReturns atomic.Uint64
)

// PoolStats reports the cumulative payload-pool hits (Get served from a
// recycled buffer) and misses (Get fell through to a fresh allocation).
func PoolStats() (hits, misses uint64) {
	return poolHits.Load(), poolMisses.Load()
}

// PoolReturns reports the cumulative count of buffers returned through
// PutPayload — paired with PoolStats it lets leak tests assert that every
// pooled segment a component took ownership of eventually came back.
func PoolReturns() uint64 { return poolReturns.Load() }

// classFor returns the index of the class that serves a request for n
// bytes, or -1 when it is allocated at its exact size.
func classFor(n int) int {
	const last = len(payloadClasses) - 1
	for i, c := range payloadClasses {
		if n <= c {
			if i == last && n <= c/2 {
				return -1
			}
			return i
		}
	}
	return -1
}

// GetPayload returns a buffer of length n, drawn from the pool when a
// recycled buffer of a suitable class is available. The caller owns the
// buffer exclusively until it passes ownership on or returns it with
// PutPayload.
func GetPayload(n int) []byte {
	ci := classFor(n)
	if ci < 0 {
		poolMisses.Add(1)
		return make([]byte, n)
	}
	if v := payloadPools[ci].Get(); v != nil {
		box := v.(*[]byte)
		b := *box
		*box = nil
		boxPool.Put(box)
		poolHits.Add(1)
		return b[:n]
	}
	poolMisses.Add(1)
	return make([]byte, payloadClasses[ci])[:n]
}

// PutPayload returns a buffer to the pool. It accepts any slice — including
// buffers that did not originate here (e.g. gob-decoded checkpoint state):
// the buffer is filed under the largest class its capacity satisfies, and
// left to the garbage collector when it is smaller than every class or at
// least twice that class (an exact-size allocation would otherwise sit in
// the pool holding many times what the class promises). Callers must not
// retain any alias to b after the call.
func PutPayload(b []byte) {
	c := cap(b)
	for i := len(payloadClasses) - 1; i >= 0; i-- {
		if c >= payloadClasses[i] {
			poolReturns.Add(1)
			if c >= 2*payloadClasses[i] {
				return
			}
			box, _ := boxPool.Get().(*[]byte)
			if box == nil {
				box = new([]byte)
			}
			*box = b[:payloadClasses[i]]
			payloadPools[i].Put(box)
			return
		}
	}
}
