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

// pendingChunk is one MuxSealed container being assembled: consecutive
// frames for the same connection generation packed (inner header +
// payload) into a pooled plaintext buffer, plus the sealer of the
// generation they were enqueued under. Binding the sealer at enqueue time
// (under wmu, where resume swaps it) ensures a container is always sealed
// with the keys of the generation that will carry it — frames stranded in
// the queue across a resume are purged, never sealed with the next
// generation's keys (which would burn nonces the peer's opener will
// expect to see on the wire).
type pendingChunk struct {
	conn   net.Conn
	sealer *security.Sealer
	pt     []byte
}

// recordFlusher decouples AEAD sealing and flushing from frame production
// on encrypted transports. Producers pack plaintext frames into container
// chunks in wire order under the transport's write lock and return
// immediately; a single goroutine seals each container (queue order ==
// seal order == nonce order) and writevs multi-container batches to the
// socket. Crypto and the flush syscall thus run entirely outside wmu, and
// a burst of small frames costs one GCM pass and one writev entry instead
// of one each.
//
// A connection generation dying does not stop the flusher: resume
// installs a new conn (and fresh seal keys), and subsequent containers
// carry the new conn and sealer. Containers queued for a broken conn are
// purged — their frames survive in the reliable send log and are repacked
// on replay.
type recordFlusher struct {
	t *Transport

	mu     sync.Mutex
	cond   *sync.Cond
	q      []pendingChunk
	qBytes int
	closed bool
}

func newRecordFlusher(t *Transport) *recordFlusher {
	f := &recordFlusher{t: t}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// enqueue packs one frame into the pending container chunks; payload need
// only be valid for the duration of the call (it is copied into the
// chunk's pooled buffer). Called under the transport's write lock, so
// queue order is wire order. A new chunk starts when the connection
// generation changes or the container plaintext budget would overflow;
// writeFrame's maxPayload check guarantees any single frame fits an empty
// chunk.
func (f *recordFlusher) enqueue(conn net.Conn, sealer *security.Sealer, typ uint8, stream uint64, payload []byte) {
	need := wire.MuxHeaderSize + len(payload)
	budget := f.t.containerPlain
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	n := len(f.q)
	if n == 0 || f.q[n-1].conn != conn || f.q[n-1].sealer != sealer || len(f.q[n-1].pt)+need > budget {
		f.q = append(f.q, pendingChunk{conn: conn, sealer: sealer, pt: wire.GetPayload(budget)[:0]})
		n++
	}
	c := &f.q[n-1]
	c.pt = wire.AppendMuxHeader(c.pt, typ, stream, len(payload))
	c.pt = append(c.pt, payload...)
	f.qBytes += need
	f.cond.Signal()
	f.mu.Unlock()
}

// waitSpace blocks while the pending queue is over budget. Callers must
// NOT hold the transport's write lock: the flusher drains without it, so
// waiting here cannot deadlock, and unreliable frames (sent under a
// try-lock) skip the wait entirely.
func (f *recordFlusher) waitSpace() {
	f.mu.Lock()
	for f.qBytes >= maxPendingRecordBytes && !f.closed {
		f.cond.Wait()
	}
	f.mu.Unlock()
}

// purge drops queued containers bound for a now-broken connection
// generation; their frames are still in the reliable send log and will be
// repacked under the next generation's keys on resume replay.
func (f *recordFlusher) purge(conn net.Conn) {
	f.mu.Lock()
	kept := f.q[:0]
	for _, c := range f.q {
		if c.conn == conn {
			f.qBytes -= len(c.pt)
			wire.PutPayload(c.pt)
			continue
		}
		kept = append(kept, c)
	}
	for i := len(kept); i < len(f.q); i++ {
		f.q[i] = pendingChunk{}
	}
	f.q = kept
	f.cond.Broadcast()
	f.mu.Unlock()
}

// close shuts the flusher down for good (transport failed): queued
// containers are recycled, waiters are released, and the run loop exits.
func (f *recordFlusher) close() {
	f.mu.Lock()
	if !f.closed {
		f.closed = true
		for i := range f.q {
			wire.PutPayload(f.q[i].pt)
			f.q[i] = pendingChunk{}
		}
		f.q = nil
		f.qBytes = 0
	}
	f.cond.Broadcast()
	f.mu.Unlock()
}

// run is the flusher goroutine: it swaps the whole pending queue out
// under the lock, seals each container into a MuxSealed record, then
// writevs per-connection runs outside the lock. A write error breaks that
// connection (feeding the resume path) and drops the rest of its run;
// containers for other generations in the same batch still flush. A seal
// error (nonce space exhausted) fails the whole transport. The loop exits
// only when the transport fails.
func (f *recordFlusher) run() {
	var batch []pendingChunk
	var recs [][]byte
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

		for i := 0; i < len(batch); {
			conn := batch[i].conn
			j := i
			for j < len(batch) && batch[j].conn == conn {
				j++
			}
			// Headers live in one slab sized exactly for the run, so the
			// appends below never reallocate and the slices stay valid
			// through the writev. recs keeps the sealed buffers for
			// recycling: net.Buffers.WriteTo consumes bufs in place.
			hdrs := make([]byte, 0, wire.MuxHeaderSize*(j-i))
			bufs := make(net.Buffers, 0, 2*(j-i))
			recs = recs[:0]
			var sealErr error
			for k := i; k < j; k++ {
				c := &batch[k]
				sealedLen := len(c.pt) + security.RecordOverhead
				mark := len(hdrs)
				hdrs = wire.AppendMuxHeader(hdrs, wire.MuxSealed, 0, sealedLen)
				hdr := hdrs[mark:]
				buf := wire.GetPayload(sealedLen)
				rec, err := c.sealer.Seal(buf[:0], c.pt, hdr)
				if err != nil {
					wire.PutPayload(buf)
					sealErr = fmt.Errorf("%w: %v", ErrTransportLost, err)
					break
				}
				bufs = append(bufs, hdr, rec)
				recs = append(recs, rec)
			}
			if sealErr == nil && len(bufs) > 0 {
				if _, err := bufs.WriteTo(conn); err != nil {
					f.t.connBroken(conn, err)
				}
			}
			for _, rec := range recs {
				wire.PutPayload(rec[:cap(rec)])
			}
			for k := i; k < len(batch) && (sealErr != nil || k < j); k++ {
				wire.PutPayload(batch[k].pt)
				batch[k] = pendingChunk{}
			}
			if sealErr != nil {
				f.t.fail(sealErr)
				return
			}
			i = j
		}
	}
}
