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
// and cleartext sessions alike. Producers queue records in wire order under
// the flusher's mutex and return at once; a single goroutine writevs the
// queue to the socket. A record is either a container chunk — a run of whole
// control frames, or on cleartext sessions of any frames — or, on encrypted
// sessions, one data frame's payload alone. On encrypted sessions every
// record is sealed in place first, a container as one MuxSealed record, a
// data payload as one MuxData record (queue order == seal order == nonce
// order). No producer — a stream writer, a connection's flush pass, a
// credit grant, the read loop's pong — ever waits on the kernel, and a burst
// of small control frames costs one GCM pass and one writev entry instead
// of one each.
//
// A flusher serves one connection (under one sealer, nil on cleartext) for
// the transport's life: a failed write or seal fails the transport, and
// with it the flusher.
type recordFlusher struct {
	t      *Transport
	conn   net.Conn
	sealer *security.Sealer
	// room is the spare capacity every queued buffer is drawn with: the
	// AEAD tag on encrypted sessions, so Seal never reallocates, else 0.
	room int

	mu   sync.Mutex
	cond *sync.Cond
	// q holds the pending records in wire order.
	q      []record
	qBytes int
	closed bool
}

// record is one queued wire record: a pooled buffer and the type and stream
// of the header it goes out under. typ is MuxSealed for a container chunk
// (stream 0), whose buffer holds whole mux frames, and MuxData for a sealed
// data record, whose buffer holds the stream's payload alone.
type record struct {
	typ    uint8
	stream uint64
	buf    []byte
}

func newRecordFlusher(t *Transport, conn net.Conn, sealer *security.Sealer) *recordFlusher {
	f := &recordFlusher{t: t, conn: conn, sealer: sealer}
	if sealer != nil {
		f.room = security.RecordOverhead
	}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// enqueue queues one frame; payload need only be valid for the duration of
// the call (it is copied into a pooled buffer). On encrypted sessions a data
// frame becomes a record of its own; every other frame is packed whole into
// the last container chunk, or a new one when the queue ends in a data
// record or the chunk budget would overflow (sendFrame's maxPlain check
// guarantees any single frame fits an empty chunk). Either way it is queued
// under f.mu, so queue order is wire order and frames never interleave.
func (f *recordFlusher) enqueue(typ uint8, stream uint64, payload []byte) {
	need := wire.MuxHeaderSize + len(payload)
	budget := f.t.containerPlain
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	if typ == wire.MuxData && f.sealer != nil {
		buf := wire.GetPayload(len(payload) + f.room)[:len(payload)]
		copy(buf, payload)
		f.q = append(f.q, record{typ: wire.MuxData, stream: stream, buf: buf})
	} else {
		n := len(f.q)
		if n == 0 || f.q[n-1].typ != wire.MuxSealed || len(f.q[n-1].buf)+need > budget {
			f.q = append(f.q, record{typ: wire.MuxSealed, buf: wire.GetPayload(budget + f.room)[:0]})
			n++
		}
		c := wire.AppendMuxHeader(f.q[n-1].buf, typ, stream, len(payload))
		f.q[n-1].buf = append(c, payload...)
	}
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
		for i, r := range f.q {
			wire.PutPayload(r.buf)
			f.q[i] = record{}
		}
		f.q = nil
		f.qBytes = 0
	}
	f.cond.Broadcast()
	f.mu.Unlock()
}

// run is the flusher goroutine: it swaps the whole pending queue out
// under the lock, seals each record in place on encrypted sessions, then
// writevs the batch outside the lock. A write error (the connection broke)
// or a seal error (nonce space exhausted) fails the transport. The loop
// exits only when the transport fails.
func (f *recordFlusher) run() {
	var batch []record
	var bufSlab [][]byte
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
		// the writev. net.Buffers.WriteTo consumes bufs in place, so bufs
		// is a fresh view of a slab of its own. Both slabs serve the next
		// batch.
		if need := wire.MuxHeaderSize * len(batch); cap(hdrs) < need {
			hdrs = make([]byte, 0, need)
		}
		if cap(bufSlab) < 2*len(batch) {
			bufSlab = make([][]byte, 0, 2*len(batch))
		}
		hdrs = hdrs[:0]
		bufs := net.Buffers(bufSlab[:0])
		var err error
		for _, r := range batch {
			if f.sealer == nil {
				bufs = append(bufs, r.buf)
				continue
			}
			mark := len(hdrs)
			hdrs = wire.AppendMuxHeader(hdrs, r.typ, r.stream, len(r.buf)+security.RecordOverhead)
			hdr := hdrs[mark:]
			// In place: the buffer was drawn with the tag's room, so the
			// record stays in the buffer that is recycled below.
			rec, serr := f.sealer.Seal(r.buf[:0], r.buf, hdr)
			if serr != nil {
				err = serr
				break
			}
			bufs = append(bufs, hdr, rec)
		}
		if err == nil {
			_, err = bufs.WriteTo(f.conn)
		}
		clear(bufSlab[:2*len(batch)])
		for i, r := range batch {
			wire.PutPayload(r.buf)
			batch[i] = record{}
		}
		if err != nil {
			f.t.fail(fmt.Errorf("%w: %w", ErrTransportLost, err))
			return
		}
	}
}
