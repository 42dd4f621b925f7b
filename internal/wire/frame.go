package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Frame flag bits.
const (
	// FlagData marks an ordinary application data frame.
	FlagData uint8 = 1 << iota
	// FlagFlush marks the final frame a peer writes before suspending; its
	// Seq field carries the writer's last data sequence number so the reader
	// can verify it drained everything before the socket closes.
	FlagFlush
	// FlagProbe marks a liveness probe frame used by the failure detector.
	FlagProbe
)

// frameMagic guards against desynchronized streams and foreign peers.
const frameMagic = 0x4e53 // "NS"

// frameVersion is the data-stream protocol version.
const frameVersion = 1

// MaxFramePayload bounds a single frame's payload; larger writes are split
// by the socket layer.
const MaxFramePayload = 1 << 20

// Frame is the unit of transfer on the data socket. Every application write
// becomes one or more data frames, each tagged with a monotonically
// increasing per-direction sequence number. Sequence numbers are what make
// redelivery after a migration idempotent: a receiver discards any frame
// whose Seq it has already delivered, which upgrades the transport's
// at-least-once behaviour across migrations to exactly-once.
type Frame struct {
	Seq     uint64
	Flags   uint8
	Payload []byte
}

// IsFlush reports whether the frame is a pre-suspend flush marker.
func (f Frame) IsFlush() bool { return f.Flags&FlagFlush != 0 }

// IsData reports whether the frame carries application payload.
func (f Frame) IsData() bool { return f.Flags&FlagData != 0 }

// frame header layout:
//
//	magic   uint16
//	version uint8
//	flags   uint8
//	seq     uint64
//	length  uint32
//	payload [length]byte
const frameHeaderSize = 2 + 1 + 1 + 8 + 4

// FrameHeaderSize is the encoded size of a frame header: a frame of n
// payload bytes occupies FrameHeaderSize+n bytes of a stream or segment.
const FrameHeaderSize = frameHeaderSize

// ErrBadFrame reports a malformed or foreign frame header.
var ErrBadFrame = errors.New("wire: malformed frame")

// WriteFrame encodes f to w in canonical form.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxFramePayload {
		return errFrameTooLarge(len(f.Payload))
	}
	var hdr [frameHeaderSize]byte
	putFrameHeader(hdr[:], f.Seq, f.Flags, len(f.Payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(f.Payload) > 0 {
		if _, err := w.Write(f.Payload); err != nil {
			return err
		}
	}
	return nil
}

// AppendFrame encodes f onto buf in canonical form: header, then payload.
// A run of such frames in one buffer is the data plane's segment — what a
// FrameWriter accumulates, what the peer's stream delivers, and what the
// send log and the receive buffer hold. The frame is encoded in place: one
// capacity check, the header written straight into buf, one copy of the
// payload; a buf with room for the frame keeps its backing array and costs
// no allocation. An oversized payload returns the error and buf unchanged.
func AppendFrame(buf []byte, f Frame) ([]byte, error) {
	if len(f.Payload) > MaxFramePayload {
		return buf, errFrameTooLarge(len(f.Payload))
	}
	n := len(buf)
	buf = slices.Grow(buf, frameHeaderSize+len(f.Payload))[:n+frameHeaderSize+len(f.Payload)]
	putFrameHeader(buf[n:], f.Seq, f.Flags, len(f.Payload))
	copy(buf[n+frameHeaderSize:], f.Payload)
	return buf, nil
}

// putFrameHeader writes the header of a frame of n payload bytes into the
// first frameHeaderSize bytes of h.
func putFrameHeader(h []byte, seq uint64, flags uint8, n int) {
	_ = h[frameHeaderSize-1]
	binary.BigEndian.PutUint16(h[0:2], frameMagic)
	h[2] = frameVersion
	h[3] = flags
	binary.BigEndian.PutUint64(h[4:12], seq)
	binary.BigEndian.PutUint32(h[12:16], uint32(n))
}

// errFrameTooLarge is the encoders' refusal of an oversized payload, out of
// line so they stay small.
func errFrameTooLarge(n int) error {
	return fmt.Errorf("wire: frame payload %d exceeds limit %d", n, MaxFramePayload)
}

// parseFrameHeader decodes and validates the header at the head of b, which
// holds at least frameHeaderSize bytes: the one header parser behind
// ReadFrame, FrameDecoder and PeekFrame. It returns the frame without its
// payload and the payload length the header announces.
func parseFrameHeader(b []byte) (Frame, int, error) {
	n := binary.BigEndian.Uint32(b[12:16])
	if binary.BigEndian.Uint16(b[0:2]) != frameMagic || b[2] != frameVersion || n > MaxFramePayload {
		return Frame{}, 0, badFrameHeader(b)
	}
	return Frame{Flags: b[3], Seq: binary.BigEndian.Uint64(b[4:12])}, int(n), nil
}

// badFrameHeader names what parseFrameHeader rejected; kept out of line so
// the parser itself inlines into the per-frame loops.
func badFrameHeader(b []byte) error {
	if m := binary.BigEndian.Uint16(b[0:2]); m != frameMagic {
		return fmt.Errorf("%w: bad magic %#04x", ErrBadFrame, m)
	}
	if b[2] != frameVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrBadFrame, b[2])
	}
	return fmt.Errorf("%w: payload length %d exceeds limit", ErrBadFrame, binary.BigEndian.Uint32(b[12:16]))
}

// PeekFrame parses the frame at the head of b where it lies: f.Payload
// aliases b, and size is the frame's encoded length, so the next frame
// starts at b[size:]. A zero size with a nil error means b ends inside the
// frame. Walking a segment is a loop over PeekFrame.
func PeekFrame(b []byte) (f Frame, size int, err error) {
	if len(b) < frameHeaderSize {
		return Frame{}, 0, nil
	}
	f, n, err := parseFrameHeader(b)
	if err != nil {
		return Frame{}, 0, err
	}
	size = frameHeaderSize + n
	if len(b) < size {
		return Frame{}, 0, nil
	}
	f.Payload = b[frameHeaderSize:size:size]
	return f, size, nil
}

// FrameAt decodes the frame at the head of b without validating it: f.Payload
// aliases b, and size is the frame's encoded length. It is for bytes that
// were validated once already, and it trusts them. Precondition: b starts
// with a whole frame that PeekFrame or FrameDecoder.Fill accepted, or that
// AppendFrame encoded — possibly voided since by VoidFrame. On anything
// else the result is meaningless and it may panic.
func FrameAt(b []byte) (f Frame, size int) {
	size = frameHeaderSize + int(binary.BigEndian.Uint32(b[12:16]))
	return Frame{Seq: binary.BigEndian.Uint64(b[4:12]), Flags: b[3], Payload: b[frameHeaderSize:size:size]}, size
}

// VoidFrame rewrites the header at the head of b so that the frame is
// neither data nor a flush marker: a reader walking the segment steps over
// it. This is how a duplicate is dropped from a segment without moving
// bytes.
func VoidFrame(b []byte) { b[3] = 0 }

// PeekSource is the byte source an incremental decoder drains: reads of
// at most Buffered() bytes complete without blocking.
type PeekSource interface {
	io.Reader
	Buffered() int
}

// FrameDecoder decodes frames incrementally from a non-blocking source,
// carrying partial header and payload state across calls. The decoder
// consumes a frame's bytes as they arrive, so an event-driven reader makes
// progress on frames larger than the source's buffering or flow-control
// window: draining the partial payload is exactly what frees window for
// the sender to push the rest.
// The zero value is ready to use. Not safe for concurrent use.
type FrameDecoder struct {
	hdr     [frameHeaderSize]byte
	hdrN    int
	haveHdr bool
	// payload is the pooled in-progress payload buffer; payN bytes of it
	// are filled. fr carries the decoded header fields until the payload
	// completes.
	payload []byte
	payN    int
	fr      Frame
}

// Next returns the next complete frame assembled from src's buffered
// bytes. ok=false with a nil error means src ran dry mid-frame: call
// again when more bytes arrive. Payload buffers come from the payload
// pool; the caller takes ownership and returns each with PutPayload once
// no reference to it remains.
func (d *FrameDecoder) Next(src PeekSource) (Frame, bool, error) {
	for d.hdrN < frameHeaderSize {
		avail := src.Buffered()
		if avail == 0 {
			return Frame{}, false, nil
		}
		if avail > frameHeaderSize-d.hdrN {
			avail = frameHeaderSize - d.hdrN
		}
		m, err := src.Read(d.hdr[d.hdrN : d.hdrN+avail])
		d.hdrN += m
		if err != nil {
			return Frame{}, false, err
		}
	}
	if !d.haveHdr {
		fr, n, err := parseFrameHeader(d.hdr[:])
		if err != nil {
			return Frame{}, false, err
		}
		d.haveHdr = true
		d.fr = fr
		if n > 0 {
			d.payload = GetPayload(n)
			d.payN = 0
		}
	}
	for d.payN < len(d.payload) {
		avail := src.Buffered()
		if avail == 0 {
			return Frame{}, false, nil
		}
		if avail > len(d.payload)-d.payN {
			avail = len(d.payload) - d.payN
		}
		m, err := src.Read(d.payload[d.payN : d.payN+avail])
		d.payN += m
		if err != nil {
			return Frame{}, false, err
		}
	}
	f := d.fr
	f.Payload = d.payload
	d.reset()
	return f, true, nil
}

// Fill is the decoder for a source that hands over contiguous segments the
// consumer walks in place with PeekFrame: only a frame that straddles two
// segments needs assembling, and Fill does that. It copies bytes of b into
// the frame in progress and reports how many it took; once the frame is
// whole it returns it encoded — header and payload in one pooled buffer the
// caller owns, itself a one-frame segment — and takes nothing past its end.
// A decoder is driven through Next or through Fill, never both.
func (d *FrameDecoder) Fill(b []byte) (frame []byte, n int, err error) {
	if d.payload == nil {
		n = copy(d.hdr[d.hdrN:], b)
		d.hdrN += n
		if d.hdrN < frameHeaderSize {
			return nil, n, nil
		}
		_, size, err := parseFrameHeader(d.hdr[:])
		if err != nil {
			return nil, n, err
		}
		d.payload = GetPayload(frameHeaderSize + size)
		d.payN = copy(d.payload, d.hdr[:])
	}
	m := copy(d.payload[d.payN:], b[n:])
	d.payN += m
	n += m
	if d.payN < len(d.payload) {
		return nil, n, nil
	}
	frame = d.payload
	d.reset()
	return frame, n, nil
}

// Partial reports whether the decoder sits mid-frame — a source that ends
// now ends on a truncated frame, not a frame boundary.
func (d *FrameDecoder) Partial() bool {
	return d.hdrN > 0 || d.payload != nil
}

// Release returns an abandoned in-progress payload buffer to the pool and
// resets the decoder; for teardown paths that stop decoding mid-frame.
func (d *FrameDecoder) Release() {
	if d.payload != nil {
		PutPayload(d.payload)
	}
	d.reset()
}

func (d *FrameDecoder) reset() {
	d.hdrN = 0
	d.haveHdr = false
	d.payload = nil
	d.payN = 0
	d.fr = Frame{}
}

// ReadFrame decodes the next frame from a blocking reader with a freshly
// allocated payload buffer — the reference decoder FrameDecoder is tested
// against. It returns io.EOF cleanly when the stream ends on a frame
// boundary, and io.ErrUnexpectedEOF when it ends mid-frame.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		return Frame{}, err
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	f, n, err := parseFrameHeader(hdr[:])
	if err != nil {
		return Frame{}, err
	}
	if n > 0 {
		f.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Frame{}, err
		}
	}
	return f, nil
}

// FrameWriter encodes frames into an in-memory coalescing buffer, assigning
// sequence numbers: small writes accumulate and reach the kernel in one
// syscall per Flush (or Take) rather than one per frame. It encodes with
// AppendFrame, in place. It is not safe for concurrent use; Take lets a
// background flusher detach a filled buffer and perform the socket write
// outside the writer's critical section.
type FrameWriter struct {
	w       io.Writer
	buf     []byte
	nextSeq uint64
}

// NewFrameWriter returns a FrameWriter whose first data frame will carry
// sequence number next.
func NewFrameWriter(w io.Writer, next uint64) *FrameWriter {
	return &FrameWriter{w: w, nextSeq: next}
}

// LastSeq returns the sequence number of the most recently written data
// frame, or 0 if none has been written on this writer (sequence numbers
// start at 1).
func (fw *FrameWriter) LastSeq() uint64 { return fw.nextSeq - 1 }

// WriteData writes payload as a single data frame and flushes it — the
// one-frame-per-syscall path, kept for callers that need the frame on the
// wire before returning. The hot path uses WriteDataBuffered + Flush.
func (fw *FrameWriter) WriteData(payload []byte) (uint64, error) {
	seq, err := fw.WriteDataBuffered(payload)
	if err != nil {
		return 0, err
	}
	return seq, fw.Flush()
}

// WriteDataBuffered encodes payload as a single data frame into the
// coalescing buffer without flushing. The frame reaches the wire at the
// next Flush or Take. Callers that need a write barrier — the pre-suspend
// flush, retransmission — call Flush (or WriteFlush) explicitly.
func (fw *FrameWriter) WriteDataBuffered(payload []byte) (uint64, error) {
	seq := fw.nextSeq
	buf, err := AppendFrame(fw.buf, Frame{Seq: seq, Flags: FlagData, Payload: payload})
	if err != nil {
		return 0, err
	}
	fw.buf = buf
	fw.nextSeq++
	return seq, nil
}

// Flush writes the coalescing buffer to the underlying writer in one call.
func (fw *FrameWriter) Flush() error {
	if len(fw.buf) == 0 {
		return nil
	}
	_, err := fw.w.Write(fw.buf)
	fw.buf = fw.buf[:0]
	return err
}

// Take detaches the filled coalescing buffer — the caller becomes
// responsible for writing it to the stream — and installs spare (which may
// be nil) as the empty replacement. This is the double-buffering hook: a
// background flusher takes the batch inside the writer's lock but performs
// the socket write outside it, so frame encoding and the flush syscall
// overlap.
func (fw *FrameWriter) Take(spare []byte) []byte {
	b := fw.buf
	fw.buf = spare[:0]
	return b
}

// Buffered returns the number of encoded bytes waiting in the coalescing
// buffer.
func (fw *FrameWriter) Buffered() int { return len(fw.buf) }

// WriteFlush writes the pre-suspend flush marker carrying the last data
// sequence number written on this stream, then flushes.
func (fw *FrameWriter) WriteFlush() error {
	buf, err := AppendFrame(fw.buf, Frame{Seq: fw.LastSeq(), Flags: FlagFlush})
	if err != nil {
		return err
	}
	fw.buf = buf
	return fw.Flush()
}
