package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
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
// pongs, resets) is drained and dropped; registerSealedWire leaves it to
// the caller.
type sealedWire struct {
	tr      *Transport
	peer    net.Conn
	sealer  *security.Sealer
	opener  *security.Opener // opens what the transport seals
	streams chan *Stream
}

func newSealedWire(t testing.TB, maxPayload uint32) *sealedWire {
	t.Helper()
	w := registerSealedWire(t, maxPayload)
	go io.Copy(io.Discard, w.peer)
	return w
}

// registerSealedWire is newSealedWire without the drain: nothing the
// transport writes is read until the caller reads it from w.peer.
func registerSealedWire(t testing.TB, maxPayload uint32) *sealedWire {
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
		neg:        wire.Negotiated{Version: wire.TransportVersion6, Cipher: wire.CipherAES256GCM, Limits: lim},
		transcript: transcript,
		peer:       &wire.TransportHello{Host: "far"},
	}
	if w.tr = m.register(near, hs, true, "", false); w.tr == nil {
		t.Fatal("register refused the transport")
	}
	// The transport dials, so it opens what the acceptor's key sealed and
	// seals under the dialer's.
	dialKey, acceptKey := hs.ks.SealKeys(transcript)
	var err error
	if w.sealer, err = security.NewSealer(acceptKey); err != nil {
		t.Fatal(err)
	}
	if w.opener, err = security.NewOpener(dialKey); err != nil {
		t.Fatal(err)
	}
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

// frame encodes one whole mux frame as a cleartext session's wire carries
// it.
func frame(typ uint8, stream uint64, payload []byte) []byte {
	return append(wire.AppendMuxHeader(nil, typ, stream, len(payload)), payload...)
}

// openPayload is a MuxOpen payload for stream: a valid handoff header.
func openPayload(t testing.TB, stream uint64) []byte {
	var hdr bytes.Buffer
	if err := (&wire.HandoffHeader{Purpose: wire.HandoffConnect, ConnID: wire.ConnID{byte(stream)}, TargetAgent: "srv", FromAgent: "cli"}).Write(&hdr); err != nil {
		t.Fatal(err)
	}
	return hdr.Bytes()
}

func (w *sealedWire) write(t testing.TB, b []byte) {
	t.Helper()
	w.peer.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if _, err := w.peer.Write(b); err != nil {
		t.Fatalf("writing %d bytes to the transport: %v", len(b), err)
	}
}

// openStreams opens the given streams with one sealed open record each and
// returns them, in the order given, as the transport delivered them.
func (w *sealedWire) openStreams(t testing.TB, ids ...uint64) []*Stream {
	t.Helper()
	var recs []byte
	for _, id := range ids {
		recs = append(recs, w.seal(wire.MuxOpen, id, openPayload(t, id))...)
	}
	w.write(t, recs)
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

// A sealed record's header is its associated data: a record whose stream
// id, length or type was changed on the wire fails authentication and fails
// the transport, and no stream receives its bytes or its credit.
func TestSealedDataRecordHeaderIsAuthenticated(t *testing.T) {
	data := func(w *sealedWire) []byte { return w.seal(wire.MuxData, 2, bytes.Repeat([]byte{0x5A}, 300)) }
	for _, tc := range []struct {
		name   string
		record func(w *sealedWire) []byte
		flip   func(rec []byte)
	}{
		{"stream", data, func(rec []byte) { rec[8] ^= 2 ^ 4 }}, // stream 2 becomes stream 4, also open
		{"length", data, func(rec []byte) { rec[12]-- }},
		{"type", data, func(rec []byte) { rec[0] = wire.MuxWindow }}, // a live control type
		{"window-stream", func(w *sealedWire) []byte {
			return w.seal(wire.MuxWindow, 2, []byte{0, 1, 0, 0})
		}, func(rec []byte) { rec[8] ^= 2 ^ 4 }}, // a grant for stream 2 becomes one for stream 4
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newSealedWire(t, wire.MaxMuxPayload)
			ss := w.openStreams(t, 2, 4)
			good := bytes.Repeat([]byte{0xA5}, 300)
			w.write(t, w.seal(wire.MuxData, 2, good))
			waitBuffered(t, ss[0], len(good))
			window := func(s *Stream) int {
				s.mu.Lock()
				defer s.mu.Unlock()
				return s.sendWindow
			}
			w0, w1 := window(ss[0]), window(ss[1])

			// The stream id's low byte, the length's low byte and the type
			// are all in the clear: the tag alone must catch the change.
			rec := tc.record(w)
			tc.flip(rec)
			w.peer.SetWriteDeadline(time.Now().Add(5 * time.Second))
			w.peer.Write(rec) // a short read leaves the tail unread
			if err := w.failure(t); !errors.Is(err, security.ErrRecordAuth) {
				t.Fatalf("transport failed with %v, want ErrRecordAuth", err)
			}
			if n0, n1 := ss[0].Buffered(), ss[1].Buffered(); n0 != len(good) || n1 != 0 {
				t.Fatalf("streams hold %d and %d bytes after a forged record, want %d and 0", n0, n1, len(good))
			}
			if v0, v1 := window(ss[0]), window(ss[1]); v0 != w0 || v1 != w1 {
				t.Fatalf("send windows %d and %d after a forged record, want %d and %d", v0, v1, w0, w1)
			}
		})
	}
}

// sealedRecordsGolden is what the transport's own flusher writes, under
// registerSealedWire's fixed key schedule, for an open of stream 1, 300
// bytes of data on it, a window grant, a FIN and a ping: five records, each
// header in the clear and each body sealed under its header, in one nonce
// sequence. A change to the record format, the key schedule or the nonce
// order changes these bytes, as TestCleartextWireBytes pins the cleartext
// wire.
const sealedRecordsGolden = "testdata/sealed-records.hex"

func TestSealedRecordsGolden(t *testing.T) {
	w := registerSealedWire(t, wire.MaxMuxPayload)
	open := &wire.HandoffHeader{Purpose: wire.HandoffConnect, ConnID: wire.ConnID{9}, TargetAgent: "srv", FromAgent: "cli", Nonce: 7}
	s, err := w.tr.OpenStream(open)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xA5}, 300)
	if _, err := s.Write(data); err != nil {
		t.Fatal(err)
	}
	s.grantWindow(4096)
	if err := s.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if err := w.tr.writeFrame(wire.MuxPing, 0, nil); err != nil {
		t.Fatal(err)
	}

	var openPT bytes.Buffer
	open.Write(&openPT)
	want := []struct {
		typ uint8
		pt  []byte
	}{
		{wire.MuxOpen, openPT.Bytes()},
		{wire.MuxData, data},
		{wire.MuxWindow, []byte{0, 0, 16, 0}},
		{wire.MuxFin, nil},
		{wire.MuxPing, nil},
	}
	var got []byte
	w.peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i, rec := range want {
		hdr := make([]byte, wire.MuxHeaderSize)
		if _, err := io.ReadFull(w.peer, hdr); err != nil {
			t.Fatalf("record %d header: %v", i, err)
		}
		body := make([]byte, binary.BigEndian.Uint32(hdr[9:13]))
		if _, err := io.ReadFull(w.peer, body); err != nil {
			t.Fatalf("record %d body: %v", i, err)
		}
		got = append(append(got, hdr...), body...)
		pt, err := w.opener.Open(nil, body, hdr)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if stream := binary.BigEndian.Uint64(hdr[1:9]); hdr[0] != rec.typ || !bytes.Equal(pt, rec.pt) || stream != 1 && rec.typ != wire.MuxPing {
			t.Fatalf("record %d is type %d on stream %d with plaintext %x, want type %d with %x", i, hdr[0], stream, pt, rec.typ, rec.pt)
		}
	}
	raw, err := os.ReadFile(sealedRecordsGolden)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("%s: %v", sealedRecordsGolden, err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatalf("the flusher wrote\n%x\nwant (%s)\n%x", got, sealedRecordsGolden, golden)
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
// its own, so a loop that read on would take the next write. The reserved
// container type is refused on its header whatever its length.
func TestOversizedRecordRefusedBeforeDraw(t *testing.T) {
	const maxPayload = 2048
	for _, typ := range []uint8{wire.MuxData, wire.MuxWindow, wire.MuxSealed} {
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

// A MuxSealed header, the container type of version 5, is refused as
// malformed before any body byte is read: the read loop fails the transport
// on the header alone, and the body write that follows finds nobody reading.
func TestSealedContainerTypeRefusedBeforeBody(t *testing.T) {
	w := newSealedWire(t, wire.MaxMuxPayload)
	w.openStreams(t, 2)
	rec := w.seal(wire.MuxSealed, 0, frame(wire.MuxPing, 0, nil))
	w.write(t, rec[:wire.MuxHeaderSize])
	w.peer.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if n, err := w.peer.Write(rec[wire.MuxHeaderSize:]); err == nil || n > 0 {
		t.Fatalf("the read loop took %d body bytes of a container record (%v)", n, err)
	}
	if err := w.failure(t); !errors.Is(err, wire.ErrBadTransport) {
		t.Fatalf("transport failed with %v, want ErrBadTransport", err)
	}
}

// Data records of two streams interleave on the wire with the control
// records — the window grants answering the other direction's data — all
// under one nonce counter per direction: every byte of all four directions
// arrives in order. The sniffed wire shows the interleaving happened.
func TestRecordsInterleave(t *testing.T) {
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

	// a's side of the wire: a sequence of records whose headers are clear,
	// each frame a record of its own.
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
		if kinds[i] != wire.MuxData && kinds[i-1] == wire.MuxData && kinds[i+1] == wire.MuxData {
			between++
		}
	}
	if between == 0 {
		t.Fatalf("no control record went out between two data records in %d records", len(kinds))
	}
}

// FuzzSealedReadLoop feeds the encrypted read loop a fuzzer-chosen run of
// records — types, stream ids, length fields and plaintexts chosen freely;
// sealed under the peer's key, tampered, or never sealed —
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
	seeds := [][]byte{
		// Open stream 2, send it data, grant, ping, FIN: all accepted.
		bytes.Join([][]byte{
			rec(0, wire.MuxOpen, 2, open.Bytes()),
			rec(0, wire.MuxData, 2, []byte("hello")),
			rec(0, wire.MuxWindow, 2, []byte{0, 0, 4, 0}),
			rec(0, wire.MuxPing, 0, nil),
			rec(0, wire.MuxData, 2, bytes.Repeat([]byte{1}, 200)),
			rec(0, wire.MuxFin, 2, nil),
		}, nil),
		// The reserved container type, sealed like any record.
		bytes.Join([][]byte{rec(0, wire.MuxOpen, 2, open.Bytes()), rec(0, wire.MuxSealed, 2, []byte("x"))}, nil),
		// A version-5 peer: a container of an open and a grant, then a data
		// record.
		bytes.Join([][]byte{
			rec(0, wire.MuxSealed, 0, append(frame(wire.MuxOpen, 2, open.Bytes()), frame(wire.MuxWindow, 2, []byte{0, 0, 4, 0})...)),
			rec(0, wire.MuxData, 2, []byte("hello")),
		}, nil),
		// A tampered data record, and a tampered control record.
		rec(2|5<<2, wire.MuxData, 2, []byte("tampered")),
		rec(2|20<<2, wire.MuxWindow, 2, []byte{0, 0, 4, 0}),
		// Never sealed: a data frame, and one whose header claims 4 KiB.
		rec(3, wire.MuxData, 2, bytes.Repeat([]byte{'c'}, 40)),
		rec(3|8<<2, wire.MuxData, 2, []byte("oversized")),
		// A length field that does not match the body.
		rec(1|3<<2, wire.MuxData, 2, []byte("short")),
		// Never sealed: bare control frames, and a type no build sends.
		rec(3, wire.MuxPing, 0, nil),
		rec(3, wire.MuxOpen, 2, open.Bytes()),
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
