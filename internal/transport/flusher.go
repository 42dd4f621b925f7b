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

// recordFlusher is the one writer of a transport's connection, on sealed
// and cleartext sessions alike. Producers pack frames into container chunks
// in wire order under the flusher's mutex and return at once; a single
// goroutine writevs the chunks to the socket — on encrypted sessions each
// sealed into one MuxSealed record first (queue order == seal order == nonce
// order), on cleartext sessions as they are, a chunk being a run of whole mux
// frames. No producer — a stream writer, a connection's flush pass, a
// credit grant, the read loop's pong — ever waits on the kernel, and a burst
// of small frames costs one GCM pass and one writev entry instead of one
// each.
//
// A flusher serves one connection (under one sealer, nil on cleartext) for
// the transport's life: a failed write or seal fails the transport, and
// with it the flusher.
type recordFlusher struct {
	t      *Transport
	conn   net.Conn
	sealer *security.Sealer

	mu   sync.Mutex
	cond *sync.Cond
	// q holds the pending chunks, each a pooled buffer of whole mux frames
	// (header + payload).
	q      [][]byte
	qBytes int
	closed bool
}

func newRecordFlusher(t *Transport, conn net.Conn, sealer *security.Sealer) *recordFlusher {
	f := &recordFlusher{t: t, conn: conn, sealer: sealer}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// enqueue packs one frame into the pending chunks; payload need only be
// valid for the duration of the call (it is copied into the chunk's pooled
// buffer). The frame is appended whole under f.mu, so queue order is wire
// order and frames never interleave. A new chunk starts when the chunk
// budget would overflow; sendFrame's maxPlain check guarantees any single
// frame fits an empty chunk.
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

// waitSpace blocks while the pending queue is over budget. Only data frames
// wait (writeFrame); control frames skip the wait. Each
// wait is one queue-stall event in the flight recorder, folded with its
// repeats, so a transport whose kernel send is stuck shows on /connz and in
// the loss dump.
func (f *recordFlusher) waitSpace() {
	f.mu.Lock()
	if f.qBytes >= maxPendingRecordBytes && !f.closed {
		f.t.rec.record("queue-stall", "")
		for f.qBytes >= maxPendingRecordBytes && !f.closed {
			f.cond.Wait()
		}
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
// under the lock, seals each chunk into a MuxSealed record on encrypted
// sessions, then writevs the batch outside the lock. A write error (the
// connection broke) or a seal error (nonce space exhausted) fails the
// transport. The loop exits only when the transport fails.
func (f *recordFlusher) run() {
	var batch, recs, bufSlab [][]byte
	var hdrs []byte
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

		// Headers live in one slab with room for the whole batch, so the
		// appends below never reallocate and the slices stay valid through
		// the writev. recs keeps the sealed buffers for recycling:
		// net.Buffers.WriteTo consumes bufs in place, so bufs is a fresh
		// view of a slab of its own. All three slabs serve the next batch.
		if need := wire.MuxHeaderSize * len(batch); cap(hdrs) < need {
			hdrs = make([]byte, 0, need)
		}
		if cap(bufSlab) < 2*len(batch) {
			bufSlab = make([][]byte, 0, 2*len(batch))
		}
		hdrs = hdrs[:0]
		bufs := net.Buffers(bufSlab[:0])
		recs = recs[:0]
		var err error
		for _, pt := range batch {
			if f.sealer == nil {
				bufs = append(bufs, pt)
				continue
			}
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
		clear(bufSlab[:2*len(batch)])
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
