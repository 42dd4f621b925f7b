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
// and cleartext sessions alike. Every mux frame is a record of its own: a
// pooled buffer holding the frame's header and payload, with room behind
// them for the AEAD tag on encrypted sessions. Producers queue records in
// wire order under the flusher's mutex and return at once; a single
// goroutine seals each record in place on encrypted sessions (queue order ==
// seal order == nonce order) and writevs the queue to the socket, one
// buffer per record. No producer — a stream writer, a connection's flush
// pass, a credit grant, the read loop's pong — ever waits on the kernel.
//
// A flusher serves one connection (under one sealer, nil on cleartext) for
// the transport's life: a failed write or seal fails the transport, and
// with it the flusher.
type recordFlusher struct {
	t      *Transport
	conn   net.Conn
	sealer *security.Sealer
	// room is the spare capacity every record is drawn with: the AEAD tag
	// on encrypted sessions, so Seal never reallocates, else 0.
	room int

	mu   sync.Mutex
	cond *sync.Cond
	// q holds the pending records in wire order.
	q      [][]byte
	qBytes int
	closed bool
}

func newRecordFlusher(t *Transport, conn net.Conn, sealer *security.Sealer) *recordFlusher {
	f := &recordFlusher{t: t, conn: conn, sealer: sealer}
	if sealer != nil {
		f.room = security.RecordOverhead
	}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// enqueue queues one frame as a record; payload need only be valid for the
// duration of the call (it is copied into a pooled buffer behind the
// header). The header's length counts the tag on encrypted sessions, so it
// is the record's length on the wire. The record is queued under f.mu, so
// queue order is wire order and records never interleave.
func (f *recordFlusher) enqueue(typ uint8, stream uint64, payload []byte) {
	n := wire.MuxHeaderSize + len(payload)
	buf := wire.AppendMuxHeader(wire.GetPayload(n + f.room)[:0], typ, stream, len(payload)+f.room)
	buf = append(buf, payload...)
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		wire.PutPayload(buf)
		return
	}
	f.q = append(f.q, buf)
	f.qBytes += n
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
// records are recycled, waiters are released, and the run loop exits.
func (f *recordFlusher) close() {
	f.mu.Lock()
	if !f.closed {
		f.closed = true
		for i, buf := range f.q {
			wire.PutPayload(buf)
			f.q[i] = nil
		}
		f.q = nil
		f.qBytes = 0
	}
	f.cond.Broadcast()
	f.mu.Unlock()
}

// run is the flusher goroutine: it swaps the whole pending queue out
// under the lock, seals each record in place behind its header on
// encrypted sessions (the header is the associated data), then writevs the
// batch outside the lock. A write error (the connection broke) or a seal
// error (nonce space exhausted) fails the transport. The loop exits only
// when the transport fails.
func (f *recordFlusher) run() {
	var batch, bufSlab [][]byte
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

		var err error
		if f.sealer != nil {
			for i, buf := range batch {
				// In place: the buffer was drawn with the tag's room, so
				// the record stays in the buffer that is recycled below.
				pt := buf[wire.MuxHeaderSize:]
				rec, serr := f.sealer.Seal(pt[:0], pt, buf[:wire.MuxHeaderSize])
				if serr != nil {
					err = serr
					break
				}
				batch[i] = buf[:wire.MuxHeaderSize+len(rec)]
			}
		}
		if err == nil {
			// net.Buffers.WriteTo consumes its slice in place, so it
			// writes a copy of the batch in a slab of its own, which
			// serves the next batch.
			bufSlab = append(bufSlab[:0], batch...)
			bufs := net.Buffers(bufSlab)
			_, err = bufs.WriteTo(f.conn)
			clear(bufSlab)
		}
		for i, buf := range batch {
			wire.PutPayload(buf)
			batch[i] = nil
		}
		if err != nil {
			f.t.fail(fmt.Errorf("%w: %w", ErrTransportLost, err))
			return
		}
	}
}
