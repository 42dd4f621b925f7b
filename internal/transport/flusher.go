package transport

import (
	"fmt"
	"net"
	"sync"

	"naplet/internal/security"
	"naplet/internal/wire"
)

// maxPendingRecordBytes bounds the plaintext bytes queued for the flusher
// before writers block: enough to keep the socket saturated through a
// flush, small enough that a stalled peer exerts backpressure promptly
// (the per-stream credit windows bound per-stream damage; this bounds the
// transport-wide buffer).
const maxPendingRecordBytes = 1 << 20

// recordFlusher decouples AEAD sealing and flushing from frame production
// on encrypted transports. Producers pack plaintext frames into container
// chunks in wire order under the transport's write lock and return
// immediately; a single goroutine seals each container (queue order ==
// seal order == nonce order) and writevs the batch to the socket. Crypto
// and the flush syscall thus run entirely outside wmu, and a burst of small
// frames costs one GCM pass and one writev entry instead of one each.
//
// A flusher serves one connection under one sealer for the transport's
// life: a failed write or seal fails the transport, and with it the
// flusher.
type recordFlusher struct {
	t      *Transport
	conn   net.Conn
	sealer *security.Sealer

	mu   sync.Mutex
	cond *sync.Cond
	// q holds the pending containers' plaintext, each a pooled buffer of
	// whole mux frames (inner header + payload).
	q      [][]byte
	qBytes int
	closed bool
}

func newRecordFlusher(t *Transport, conn net.Conn, sealer *security.Sealer) *recordFlusher {
	f := &recordFlusher{t: t, conn: conn, sealer: sealer}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// enqueue packs one frame into the pending container chunks; payload need
// only be valid for the duration of the call (it is copied into the
// chunk's pooled buffer). Called under the transport's write lock, so
// queue order is wire order. A new chunk starts when the container
// plaintext budget would overflow; writeFrame's maxPayload check
// guarantees any single frame fits an empty chunk.
func (f *recordFlusher) enqueue(typ uint8, stream uint64, payload []byte) {
	need := wire.MuxHeaderSize + len(payload)
	budget := f.t.containerPlain
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	n := len(f.q)
	if n == 0 || len(f.q[n-1])+need > budget {
		f.q = append(f.q, wire.GetPayload(budget)[:0])
		n++
	}
	c := wire.AppendMuxHeader(f.q[n-1], typ, stream, len(payload))
	f.q[n-1] = append(c, payload...)
	f.qBytes += need
	f.cond.Signal()
	f.mu.Unlock()
}

// waitSpace blocks while the pending queue is over budget. Callers must
// NOT hold the transport's write lock: the flusher drains without it, so
// waiting here cannot deadlock, and keepalive probes (sent under a
// try-lock) skip the wait entirely.
func (f *recordFlusher) waitSpace() {
	f.mu.Lock()
	for f.qBytes >= maxPendingRecordBytes && !f.closed {
		f.cond.Wait()
	}
	f.mu.Unlock()
}

// close shuts the flusher down for good (transport failed): queued
// containers are recycled, waiters are released, and the run loop exits.
func (f *recordFlusher) close() {
	f.mu.Lock()
	if !f.closed {
		f.closed = true
		for i, pt := range f.q {
			wire.PutPayload(pt)
			f.q[i] = nil
		}
		f.q = nil
		f.qBytes = 0
	}
	f.cond.Broadcast()
	f.mu.Unlock()
}

// run is the flusher goroutine: it swaps the whole pending queue out
// under the lock, seals each container into a MuxSealed record, then
// writevs the batch outside the lock. A write error (the connection
// broke) or a seal error (nonce space exhausted) fails the transport. The
// loop exits only when the transport fails.
func (f *recordFlusher) run() {
	var batch, recs [][]byte
	for {
		f.mu.Lock()
		for len(f.q) == 0 && !f.closed {
			f.cond.Wait()
		}
		if f.closed {
			f.mu.Unlock()
			return
		}
		batch, f.q = f.q, batch[:0]
		f.qBytes = 0
		f.cond.Broadcast()
		f.mu.Unlock()

		// Headers live in one slab sized exactly for the batch, so the
		// appends below never reallocate and the slices stay valid through
		// the writev. recs keeps the sealed buffers for recycling:
		// net.Buffers.WriteTo consumes bufs in place.
		hdrs := make([]byte, 0, wire.MuxHeaderSize*len(batch))
		bufs := make(net.Buffers, 0, 2*len(batch))
		recs = recs[:0]
		var err error
		for _, pt := range batch {
			sealedLen := len(pt) + security.RecordOverhead
			mark := len(hdrs)
			hdrs = wire.AppendMuxHeader(hdrs, wire.MuxSealed, 0, sealedLen)
			hdr := hdrs[mark:]
			buf := wire.GetPayload(sealedLen)
			rec, serr := f.sealer.Seal(buf[:0], pt, hdr)
			if serr != nil {
				wire.PutPayload(buf)
				err = serr
				break
			}
			bufs = append(bufs, hdr, rec)
			recs = append(recs, rec)
		}
		if err == nil {
			_, err = bufs.WriteTo(f.conn)
		}
		for _, rec := range recs {
			wire.PutPayload(rec[:cap(rec)])
		}
		for i, pt := range batch {
			wire.PutPayload(pt)
			batch[i] = nil
		}
		if err != nil {
			f.t.fail(fmt.Errorf("%w: %w", ErrTransportLost, err))
			return
		}
	}
}
