package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"naplet/internal/security"
	"naplet/internal/wire"
)

// sealedWire is one end of an encrypted session registered on an in-memory
// pipe under a fixed key schedule. The test holds the other end, with the
// sealer the transport's opener expects, so it writes the exact records a
// peer would — or a forged, tampered or malformed one — and watches what
// the read loop makes of them. What the transport writes back (grants,
// pongs, resets) is drained and dropped.
type sealedWire struct {
	tr      *Transport
	peer    net.Conn
	sealer  *security.Sealer
	streams chan *Stream
}

func newSealedWire(t testing.TB, maxPayload uint32) *sealedWire {
	t.Helper()
	near, far := net.Pipe()
	w := &sealedWire{peer: far, streams: make(chan *Stream, 64)}
	m := NewManager(Config{
		HostName:          "near",
		KeepaliveInterval: -1,
		Deliver: func(_ *wire.HandoffHeader, s *Stream) bool {
			select {
			case w.streams <- s:
				return true
			default:
				return false
			}
		},
	})
	id := wire.ConnID{1, 2, 3}
	secret := bytes.Repeat([]byte{7}, 32)
	transcript := []byte("sealed-wire transcript")
	lim := wire.DefaultLimits()
	lim.MaxPayload = maxPayload
	hs := &handshakeResult{
		id: id, secret: secret, ks: security.NewKeySchedule(secret, id[:]),
		neg:        wire.Negotiated{Version: wire.TransportVersion5, Cipher: wire.CipherAES256GCM, Limits: lim},
		transcript: transcript,
		peer:       &wire.TransportHello{Host: "far"},
	}
	if w.tr = m.register(near, hs, true, "", false); w.tr == nil {
		t.Fatal("register refused the transport")
	}
	// The transport dials, so it opens what the acceptor's key sealed.
	_, acceptKey := hs.ks.SealKeys(transcript)
	var err error
	if w.sealer, err = security.NewSealer(acceptKey); err != nil {
		t.Fatal(err)
	}
	go io.Copy(io.Discard, far)
	t.Cleanup(func() {
		far.Close()
		m.Close()
	})
	return w
}

// seal returns one sealed record as the peer's flusher writes it: the
// header {typ, stream, len(pt)+tag}, then pt sealed under that header.
func (w *sealedWire) seal(typ uint8, stream uint64, pt []byte) []byte {
	hdr := wire.AppendMuxHeader(nil, typ, stream, len(pt)+security.RecordOverhead)
	rec, err := w.sealer.Seal(nil, pt, hdr)
	if err != nil {
		panic(err)
	}
	return append(hdr, rec...)
}

// frame encodes one whole mux frame: a container's plaintext is a run of
// them, and a cleartext session's wire.
func frame(typ uint8, stream uint64, payload []byte) []byte {
	return append(wire.AppendMuxHeader(nil, typ, stream, len(payload)), payload...)
}

// openFrame is a MuxOpen frame for stream, carrying a valid handoff header.
func openFrame(t testing.TB, stream uint64) []byte {
	var hdr bytes.Buffer
	if err := (&wire.HandoffHeader{Purpose: wire.HandoffConnect, ConnID: wire.ConnID{byte(stream)}, TargetAgent: "srv", FromAgent: "cli"}).Write(&hdr); err != nil {
		t.Fatal(err)
	}
	return frame(wire.MuxOpen, stream, hdr.Bytes())
}

func (w *sealedWire) write(t testing.TB, b []byte) {
	t.Helper()
	w.peer.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if _, err := w.peer.Write(b); err != nil {
		t.Fatalf("writing %d bytes to the transport: %v", len(b), err)
	}
}

// openStreams opens the given streams with one sealed container and
// returns them, in the order given, as the transport delivered them.
func (w *sealedWire) openStreams(t testing.TB, ids ...uint64) []*Stream {
	t.Helper()
	var pt []byte
	for _, id := range ids {
		pt = append(pt, openFrame(t, id)...)
	}
	w.write(t, w.seal(wire.MuxSealed, 0, pt))
	byID := map[uint64]*Stream{}
	for range ids {
		select {
		case s := <-w.streams:
			byID[s.id] = s
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d streams delivered", len(byID), len(ids))
		}
	}
	out := make([]*Stream, len(ids))
	for i, id := range ids {
		out[i] = byID[id]
	}
	return out
}

// failure waits for the transport to fail and returns what it failed with.
func (w *sealedWire) failure(t testing.TB) error {
	t.Helper()
	select {
	case <-w.tr.down:
	case <-time.After(5 * time.Second):
		t.Fatal("transport still alive")
	}
	w.tr.mu.Lock()
	defer w.tr.mu.Unlock()
	return w.tr.closeErr
}

// waitBuffered waits until s holds n bytes.
func waitBuffered(t *testing.T, s *Stream, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); s.Buffered() != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("stream holds %d bytes, want %d", s.Buffered(), n)
		}
	}
}

// A sealed data record's header is its associated data: a record whose
// stream id, length or type was changed on the wire fails authentication
// and fails the transport, and no stream receives its bytes.
func TestSealedDataRecordHeaderIsAuthenticated(t *testing.T) {
	for _, tc := range []struct {
		name string
		flip func(rec []byte)
	}{
		{"stream", func(rec []byte) { rec[8] ^= 2 ^ 4 }}, // stream 2 becomes stream 4, also open
		{"length", func(rec []byte) { rec[12]-- }},
		{"type", func(rec []byte) { rec[0] = wire.MuxSealed }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newSealedWire(t, wire.MaxMuxPayload)
			ss := w.openStreams(t, 2, 4)
			good := bytes.Repeat([]byte{0xA5}, 300)
			w.write(t, w.seal(wire.MuxData, 2, good))
			waitBuffered(t, ss[0], len(good))

			// The stream id's low byte, the length's low byte and the type
			// are all in the clear: the tag alone must catch the change.
			rec := w.seal(wire.MuxData, 2, bytes.Repeat([]byte{0x5A}, 300))
			tc.flip(rec)
			w.peer.SetWriteDeadline(time.Now().Add(5 * time.Second))
			w.peer.Write(rec) // a short read leaves the tail unread
			if err := w.failure(t); !errors.Is(err, security.ErrRecordAuth) {
				t.Fatalf("transport failed with %v, want ErrRecordAuth", err)
			}
			if n0, n1 := ss[0].Buffered(), ss[1].Buffered(); n0 != len(good) || n1 != 0 {
				t.Fatalf("streams hold %d and %d bytes after a forged record, want %d and 0", n0, n1, len(good))
			}
		})
	}
}

// A sealed container carries control frames only: one that carries a data
// frame, even a validly sealed one, fails the transport as malformed, and
// the stream gets none of it.
func TestContainerCarryingDataFrameRefused(t *testing.T) {
	w := newSealedWire(t, wire.MaxMuxPayload)
	ss := w.openStreams(t, 2)
	w.write(t, w.seal(wire.MuxSealed, 0, append(frame(wire.MuxWindow, 2, []byte{0, 0, 16, 0}), frame(wire.MuxData, 2, []byte("smuggled"))...)))
	if err := w.failure(t); !errors.Is(err, wire.ErrBadTransport) {
		t.Fatalf("transport failed with %v, want ErrBadTransport", err)
	}
	if n := ss[0].Buffered(); n != 0 {
		t.Fatalf("stream holds %d bytes from a data frame inside a container", n)
	}
}

// A data frame that was never sealed fails an encrypted session: one long
// enough to hold a tag fails authentication, a shorter one is malformed.
func TestUnsealedDataFrameOnSealedSession(t *testing.T) {
	for _, tc := range []struct {
		size int
		want error
	}{
		{100, security.ErrRecordAuth},
		{security.RecordOverhead - 1, wire.ErrBadTransport},
	} {
		t.Run(fmt.Sprint(tc.size), func(t *testing.T) {
			w := newSealedWire(t, wire.MaxMuxPayload)
			ss := w.openStreams(t, 2)
			w.peer.SetWriteDeadline(time.Now().Add(5 * time.Second))
			w.peer.Write(frame(wire.MuxData, 2, bytes.Repeat([]byte{'c'}, tc.size)))
			if err := w.failure(t); !errors.Is(err, tc.want) {
				t.Fatalf("transport failed with %v, want %v", err, tc.want)
			}
			if n := ss[0].Buffered(); n != 0 {
				t.Fatalf("stream holds %d bytes of an unsealed frame", n)
			}
		})
	}
}

// A sealed record longer than the negotiated MaxPayload is refused on its
// header: the read loop fails the transport before it draws a buffer for
// the body, so not one body byte is read. The header goes out in a write of
// its own, so a loop that read on would take the next write.
func TestOversizedRecordRefusedBeforeDraw(t *testing.T) {
	const maxPayload = 2048
	for _, typ := range []uint8{wire.MuxData, wire.MuxSealed} {
		t.Run(fmt.Sprint(typ), func(t *testing.T) {
			w := newSealedWire(t, maxPayload)
			w.openStreams(t, 2)
			w.write(t, wire.AppendMuxHeader(nil, typ, 2, maxPayload+1))
			w.peer.SetWriteDeadline(time.Now().Add(5 * time.Second))
			if n, err := w.peer.Write(make([]byte, maxPayload+1)); err == nil || n > 0 {
				t.Fatalf("the read loop took %d body bytes of an oversized record (%v)", n, err)
			}
			if err := w.failure(t); !errors.Is(err, wire.ErrBadTransport) {
				t.Fatalf("transport failed with %v, want ErrBadTransport", err)
			}
		})
	}
	// The largest record the limit allows is read and delivered.
	w := newSealedWire(t, maxPayload)
	ss := w.openStreams(t, 2)
	w.write(t, w.seal(wire.MuxData, 2, make([]byte, maxPayload-security.RecordOverhead)))
	waitBuffered(t, ss[0], maxPayload-security.RecordOverhead)
}

// Data records of two streams interleave on the wire with the containers
// that carry the window grants answering the other direction's data, all
// under one nonce counter per direction: every byte of all four directions
// arrives in order. The sniffed wire shows the interleaving happened.
func TestDataRecordsAndContainersInterleave(t *testing.T) {
	sniff := &wireSniffer{}
	small := wire.Limits{InitialWindow: 8 << 10}
	a := newTestPeerCfg(t, "a", false, func(cfg *Config) {
		cfg.Limits = small
		cfg.WrapData = sniff.wrap
	})
	b := newTestPeerCfg(t, "b", false, func(cfg *Config) { cfg.Limits = small })
	var cs, ss [2]*Stream
	for i := range cs {
		var err error
		if cs[i], err = a.mgr.OpenStream(b.addr(), testHeader(t), 5*time.Second); err != nil {
			t.Fatal(err)
		}
		ss[i] = recvStream(t, b)
	}

	const total = 192 << 10
	payload := func(seed int) []byte {
		p := make([]byte, total)
		for i := range p {
			p[i] = byte(i*seed + i>>9)
		}
		return p
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := range cs {
		for dir, pair := range [][2]*Stream{{cs[i], ss[i]}, {ss[i], cs[i]}} {
			want := payload(2*i + dir + 3)
			wg.Add(2)
			go func(w *Stream) {
				defer wg.Done()
				// Writes of uneven sizes, so records and grants fall
				// at varying points.
				for off, n := 0, 1; off < total; off, n = off+n, n%3000+977 {
					n = min(n, total-off)
					if _, err := w.Write(want[off : off+n]); err != nil {
						errs <- err
						return
					}
				}
			}(pair[0])
			go func(r *Stream, name string) {
				defer wg.Done()
				got := make([]byte, total)
				if _, err := io.ReadFull(r, got); err != nil {
					errs <- fmt.Errorf("%s: %w", name, err)
				} else if !bytes.Equal(got, want) {
					errs <- fmt.Errorf("%s: bytes out of order", name)
				}
			}(pair[1], fmt.Sprintf("stream %d direction %d", i, dir))
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// a's side of the wire: a sequence of records whose headers are clear.
	sniff.mu.Lock()
	raw := append([]byte(nil), sniff.out.Bytes()...)
	sniff.mu.Unlock()
	var kinds []uint8
	for len(raw) >= wire.MuxHeaderSize {
		n := int(binary.BigEndian.Uint32(raw[9:13]))
		kinds = append(kinds, raw[0])
		raw = raw[min(len(raw), wire.MuxHeaderSize+n):]
	}
	between := 0
	for i := 1; i+1 < len(kinds); i++ {
		if kinds[i] == wire.MuxSealed && kinds[i-1] == wire.MuxData && kinds[i+1] == wire.MuxData {
			between++
		}
	}
	if between == 0 {
		t.Fatalf("no container went out between two data records in %d records", len(kinds))
	}
}

// FuzzSealedReadLoop feeds the encrypted read loop a fuzzer-chosen run of
// records — outer types, stream ids, length fields and container contents
// chosen freely; sealed under the peer's key, tampered, or never sealed —
// and checks what a compromised peer can do with them: the loop never
// panics, never reads the body of a record longer than the negotiated
// MaxPayload (the buffer for it is drawn only after the bound), and fails
// the session only as malformed (ErrBadTransport) or unauthenticated
// (ErrRecordAuth).
//
// Input: a sequence of [op, type, stream, n, n bytes]. op&3 picks the
// record kind — 0 a sealed record whose plaintext is the bytes, 1 the same
// with the header's length field raised by op>>2 (the body stays the same),
// 2 a sealed record with one byte flipped at op>>2, 3 the bytes as they are
// under a header claiming op>>2 times 512 bytes more than they are.
func FuzzSealedReadLoop(f *testing.F) {
	const maxPayload = 2048
	rec := func(op, typ uint8, stream uint8, body []byte) []byte {
		return append([]byte{op, typ, stream, byte(len(body))}, body...)
	}
	var open bytes.Buffer
	(&wire.HandoffHeader{Purpose: wire.HandoffConnect, TargetAgent: "srv", FromAgent: "cli"}).Write(&open)
	openPT := frame(wire.MuxOpen, 2, open.Bytes())
	seeds := [][]byte{
		// Open stream 2, send it data, grant, ping, FIN: all accepted.
		bytes.Join([][]byte{
			rec(0, wire.MuxSealed, 0, openPT),
			rec(0, wire.MuxData, 2, []byte("hello")),
			rec(0, wire.MuxSealed, 0, append(frame(wire.MuxWindow, 2, []byte{0, 0, 4, 0}), frame(wire.MuxPing, 0, nil)...)),
			rec(0, wire.MuxData, 2, bytes.Repeat([]byte{1}, 200)),
			rec(0, wire.MuxSealed, 0, frame(wire.MuxFin, 2, nil)),
		}, nil),
		// A data frame inside a container.
		bytes.Join([][]byte{rec(0, wire.MuxSealed, 0, openPT), rec(0, wire.MuxSealed, 0, frame(wire.MuxData, 2, []byte("x")))}, nil),
		// A tampered data record, and a tampered container.
		rec(2|5<<2, wire.MuxData, 2, []byte("tampered")),
		rec(2|20<<2, wire.MuxSealed, 0, frame(wire.MuxPing, 0, nil)),
		// Never sealed: a data frame, and one whose header claims 4 KiB.
		rec(3, wire.MuxData, 2, bytes.Repeat([]byte{'c'}, 40)),
		rec(3|8<<2, wire.MuxData, 2, []byte("oversized")),
		// A length field that does not match the body.
		rec(1|3<<2, wire.MuxData, 2, []byte("short")),
		// Outer types no sealed session takes.
		rec(0, wire.MuxPing, 0, nil),
		rec(0, wire.MuxOpen, 2, open.Bytes()),
		rec(0, 0, 0, nil),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		w := newSealedWire(t, maxPayload)
		// aligned holds while every record so far had a length field that
		// matched its body: only then does the loop read this record's
		// header where this writer put it.
		aligned := true
		for len(data) >= 4 {
			parsed := aligned
			op, typ, stream, n := data[0], data[1], uint64(data[2]), int(data[3])
			body := data[4:min(len(data), 4+n)]
			data = data[len(body)+4:]
			arg := int(op >> 2)
			var hdr []byte
			switch op & 3 {
			case 0, 1, 2:
				r := w.seal(typ, stream, body)
				if op&3 == 1 && arg > 0 {
					binary.BigEndian.PutUint32(r[9:13], uint32(len(r)-wire.MuxHeaderSize+arg))
					aligned = false
				}
				if op&3 == 2 {
					// Flip a byte of the type, the stream id or the sealed
					// body, never of the length field.
					i := arg % (len(r) - 4)
					if i >= 9 {
						i += 4
					}
					r[i] ^= 0x80
				}
				hdr, body = r[:wire.MuxHeaderSize], r[wire.MuxHeaderSize:]
			case 3:
				hdr = wire.AppendMuxHeader(nil, typ, stream, len(body)+arg*512)
				if arg > 0 {
					aligned = false
				}
			}
			claimed := binary.BigEndian.Uint32(hdr[9:13])
			w.peer.SetWriteDeadline(time.Now().Add(5 * time.Second))
			if _, err := w.peer.Write(hdr); err != nil {
				if errors.Is(err, io.ErrClosedPipe) {
					break // the loop already failed the session
				}
				t.Fatalf("writing a record header: %v", err)
			}
			if len(body) == 0 {
				continue
			}
			nb, err := w.peer.Write(body)
			if parsed && claimed > maxPayload && nb > 0 {
				t.Fatalf("the read loop took %d body bytes of a %d-byte record (limit %d)", nb, claimed, maxPayload)
			}
			if err != nil {
				if errors.Is(err, io.ErrClosedPipe) {
					break
				}
				t.Fatalf("writing a record body: %v", err)
			}
		}
		// End of input: the peer hangs up. A session still alive fails with
		// the loss of its connection, which is not a verdict on the input.
		w.peer.Close()
		err := w.failure(t)
		switch {
		case errors.Is(err, wire.ErrBadTransport), errors.Is(err, security.ErrRecordAuth):
		case errors.Is(err, ErrTransportLost) && (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.ErrClosedPipe)):
		default:
			t.Fatalf("session failed with %v, want ErrBadTransport or ErrRecordAuth", err)
		}
	})
}
