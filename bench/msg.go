package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
)

// Every message the benchmark sends is one of a flow's seeded templates with
// a header stamped over its first bytes: the sequence number, which makes a
// lost, duplicated or reordered message visible, and a flag word. The
// receiver holds the same templates and compares the rest byte for byte,
// which is stronger than a checksum and as cheap (one memcmp).
const (
	hdrLen = 12 // seq uint64 | flags uint32

	// flagLast marks the final message of a slice, so the receiving side
	// knows where to stop without a side channel.
	flagLast uint32 = 1
)

// tmplBytes bounds the seeded bytes generated per flow; a flow cycles
// through as many templates of its message size as fit, at least two.
const tmplBytes = 256 << 10

// flow is one direction of one connection: the sender's next sequence
// number and the receiver's next expected one. The two ends run on
// different goroutines and touch only their own counter; the sender writes
// only the header bytes of a template and the receiver reads only the rest.
type flow struct {
	size int
	tmpl [][]byte
	sent uint64
	recv uint64
}

func newFlow(rng *rand.Rand, size int) *flow {
	n := tmplBytes / size
	if n < 2 {
		n = 2
	}
	f := &flow{size: size, tmpl: make([][]byte, n)}
	for i := range f.tmpl {
		f.tmpl[i] = make([]byte, size)
		rng.Read(f.tmpl[i])
	}
	return f
}

// next returns the next message to send. The slice is reused after
// len(tmpl) further calls; Socket.Write copies it before returning.
func (f *flow) next(flags uint32) []byte {
	m := f.tmpl[f.sent%uint64(len(f.tmpl))]
	binary.BigEndian.PutUint64(m[0:8], f.sent)
	binary.BigEndian.PutUint32(m[8:12], flags)
	f.sent++
	return m
}

// verify checks that m is exactly the next message of the flow.
func (f *flow) verify(m []byte) (flags uint32, err error) {
	if len(m) != f.size {
		return 0, fmt.Errorf("message of %d bytes, want %d", len(m), f.size)
	}
	seq := binary.BigEndian.Uint64(m[0:8])
	if seq != f.recv {
		return 0, fmt.Errorf("sequence %d, want %d (lost, duplicated or reordered)", seq, f.recv)
	}
	if !bytes.Equal(m[hdrLen:], f.tmpl[seq%uint64(len(f.tmpl))][hdrLen:]) {
		return 0, fmt.Errorf("message %d corrupt", seq)
	}
	f.recv++
	return binary.BigEndian.Uint32(m[8:12]), nil
}

// byteReader is the receiving call the benchmark makes into the layer under
// test: Socket.Read, directly or through the tracer.
type byteReader func(p []byte) (int, error)

// receiver reassembles a flow's fixed-size messages from a byte stream.
// Socket.Read returns as many buffered messages as fit plus a partial tail,
// so the tail is carried to the next call.
type receiver struct {
	f    *flow
	buf  []byte
	have int
}

func newReceiver(f *flow) *receiver {
	n := (64 << 10) / f.size
	if n < 1 {
		n = 1
	}
	return &receiver{f: f, buf: make([]byte, n*f.size)}
}

// recv reads and verifies messages until want have arrived (want > 0) or
// one carries flagLast (want == 0). It returns the number verified and the
// flags of the last one.
func (r *receiver) recv(read byteReader, want int) (n int, flags uint32, err error) {
	size := r.f.size
	for {
		for r.have < size {
			m, err := read(r.buf[r.have:])
			if err != nil {
				return n, flags, err
			}
			r.have += m
		}
		off := 0
		for r.have-off >= size {
			if flags, err = r.f.verify(r.buf[off : off+size]); err != nil {
				return n, flags, err
			}
			off += size
			n++
			if n == want || (want == 0 && flags&flagLast != 0) {
				r.have = copy(r.buf, r.buf[off:r.have])
				if r.have != 0 {
					return n, flags, fmt.Errorf("%d bytes beyond the expected end of the slice", r.have)
				}
				return n, flags, nil
			}
		}
		r.have = copy(r.buf, r.buf[off:r.have])
	}
}
