package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	cases := []Frame{
		{Seq: 0, Flags: FlagData, Payload: nil},
		{Seq: 1, Flags: FlagData, Payload: []byte("hello")},
		{Seq: 1<<64 - 1, Flags: FlagFlush, Payload: nil},
		{Seq: 42, Flags: FlagData | FlagProbe, Payload: bytes.Repeat([]byte{0xab}, 4096)},
	}
	for _, want := range cases {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, want); err != nil {
			t.Fatalf("WriteFrame(%v): %v", want, err)
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if got.Seq != want.Seq || got.Flags != want.Flags || !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("round trip: got %+v want %+v", got, want)
		}
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(seq uint64, flags uint8, payload []byte) bool {
		if len(payload) > MaxFramePayload {
			payload = payload[:MaxFramePayload]
		}
		in := Frame{Seq: seq, Flags: flags, Payload: payload}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, in); err != nil {
			return false
		}
		out, err := ReadFrame(&buf)
		if err != nil {
			return false
		}
		return out.Seq == in.Seq && out.Flags == in.Flags && bytes.Equal(out.Payload, in.Payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFrameStreamSequence(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf, 1)
	if fw.LastSeq() != 0 {
		t.Fatalf("LastSeq before writes = %d, want 0", fw.LastSeq())
	}
	msgs := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")}
	for i, m := range msgs {
		seq, err := fw.WriteData(m)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	if err := fw.WriteFlush(); err != nil {
		t.Fatal(err)
	}
	for i := range msgs {
		f, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !f.IsData() || f.Seq != uint64(i+1) || !bytes.Equal(f.Payload, msgs[i]) {
			t.Fatalf("frame %d: %+v", i, f)
		}
	}
	fl, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !fl.IsFlush() || fl.Seq != 3 {
		t.Fatalf("flush frame = %+v, want flush seq 3", fl)
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("past end: err = %v, want io.EOF", err)
	}
}

func TestReadFrameErrors(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		if _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
			t.Fatalf("err = %v, want io.EOF", err)
		}
	})
	t.Run("truncated header", func(t *testing.T) {
		if _, err := ReadFrame(bytes.NewReader([]byte{0x4e, 0x53, 1})); err != io.ErrUnexpectedEOF {
			t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, Frame{Flags: FlagData}); err != nil {
			t.Fatal(err)
		}
		b := buf.Bytes()
		b[0] = 0xff
		if _, err := ReadFrame(bytes.NewReader(b)); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("err = %v, want ErrBadFrame", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, Frame{Flags: FlagData}); err != nil {
			t.Fatal(err)
		}
		b := buf.Bytes()
		b[2] = 99
		if _, err := ReadFrame(bytes.NewReader(b)); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("err = %v, want ErrBadFrame", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, Frame{Flags: FlagData, Payload: []byte("abcdef")}); err != nil {
			t.Fatal(err)
		}
		b := buf.Bytes()[:buf.Len()-3]
		if _, err := ReadFrame(bytes.NewReader(b)); err != io.ErrUnexpectedEOF {
			t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
		}
	})
	t.Run("oversize write rejected", func(t *testing.T) {
		err := WriteFrame(io.Discard, Frame{Payload: make([]byte, MaxFramePayload+1)})
		if err == nil {
			t.Fatal("oversize frame accepted")
		}
	})
}

// trickleSource is a PeekSource that holds back all but avail bytes of its
// buffer, the way a stream holds only what the network has delivered.
type trickleSource struct {
	buf   []byte
	avail int
}

func (s *trickleSource) Buffered() int { return s.avail }

func (s *trickleSource) Read(p []byte) (int, error) {
	if len(p) > s.avail {
		p = p[:s.avail]
	}
	n := copy(p, s.buf)
	s.buf = s.buf[n:]
	s.avail -= n
	return n, nil
}

// FrameDecoder must yield exactly the frames the reference decoder
// (ReadFrame) does, however the bytes are chopped up on arrival, and the
// same verdict on a malformed header.
func TestFrameDecoderMatchesReadFrame(t *testing.T) {
	var enc bytes.Buffer
	fw := NewFrameWriter(&enc, 7)
	for _, n := range []int{0, 1, 15, 16, 17, 1000, 70000} {
		if _, err := fw.WriteData(bytes.Repeat([]byte{byte(n)}, n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.WriteFlush(); err != nil {
		t.Fatal(err)
	}
	var want []Frame
	for r := bytes.NewReader(enc.Bytes()); ; {
		f, err := ReadFrame(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, f)
	}

	for _, step := range []int{1, 3, frameHeaderSize, 4096, enc.Len()} {
		src := &trickleSource{buf: append([]byte(nil), enc.Bytes()...)}
		var dec FrameDecoder
		var got []Frame
		for len(src.buf) > 0 {
			src.avail += step
			if src.avail > len(src.buf) {
				src.avail = len(src.buf)
			}
			for {
				f, ok, err := dec.Next(src)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if !ok {
					break
				}
				got = append(got, f)
			}
		}
		if dec.Partial() {
			t.Fatalf("step %d: decoder mid-frame at end of input", step)
		}
		if len(got) != len(want) {
			t.Fatalf("step %d: %d frames, want %d", step, len(got), len(want))
		}
		for i := range want {
			if got[i].Seq != want[i].Seq || got[i].Flags != want[i].Flags || !bytes.Equal(got[i].Payload, want[i].Payload) {
				t.Fatalf("step %d frame %d: got seq %d flags %#x len %d, want seq %d flags %#x len %d", step, i,
					got[i].Seq, got[i].Flags, len(got[i].Payload), want[i].Seq, want[i].Flags, len(want[i].Payload))
			}
			PutPayload(got[i].Payload)
		}
	}

	bad := append([]byte(nil), enc.Bytes()[:frameHeaderSize]...)
	bad[0] ^= 0xff
	_, refErr := ReadFrame(bytes.NewReader(bad))
	var dec FrameDecoder
	_, _, err := dec.Next(&trickleSource{buf: bad, avail: len(bad)})
	if !errors.Is(refErr, ErrBadFrame) || !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad magic: reference %v, decoder %v", refErr, err)
	}
}

func TestConnIDRoundTrip(t *testing.T) {
	id, err := NewConnID()
	if err != nil {
		t.Fatal(err)
	}
	if id.IsZero() {
		t.Fatal("NewConnID returned zero id")
	}
	parsed, err := ParseConnID(id.String())
	if err != nil {
		t.Fatal(err)
	}
	if parsed != id {
		t.Fatalf("parsed %v != original %v", parsed, id)
	}
}

func TestParseConnIDErrors(t *testing.T) {
	if _, err := ParseConnID("zz"); err == nil {
		t.Error("bad hex accepted")
	}
	if _, err := ParseConnID("abcd"); err == nil {
		t.Error("short id accepted")
	}
}

// TestAppendFrameInPlace: AppendFrame onto a buffer with room encodes the
// frame where it lies — no allocation, the same backing array — and what
// it writes is what PeekFrame reads back, at every payload size the data
// plane produces, up to MaxFramePayload. An oversized payload is refused
// with buf unchanged.
func TestAppendFrameInPlace(t *testing.T) {
	for _, n := range []int{0, 1, 100, 64 << 10, MaxFramePayload} {
		payload := bytes.Repeat([]byte{0x5a}, n)
		buf := make([]byte, 3, 3+FrameHeaderSize+n)
		copy(buf, "pre")
		out, err := AppendFrame(buf, Frame{Seq: 7, Flags: FlagData, Payload: payload})
		if err != nil {
			t.Fatalf("%d B: %v", n, err)
		}
		if len(out) != 3+FrameHeaderSize+n || &out[0] != &buf[0] {
			t.Fatalf("%d B: %d bytes, same array %v: not encoded in place", n, len(out), &out[0] == &buf[0])
		}
		f, size, err := PeekFrame(out[3:])
		if err != nil || size != FrameHeaderSize+n || f.Seq != 7 || f.Flags != FlagData || !bytes.Equal(f.Payload, payload) {
			t.Fatalf("%d B: PeekFrame read seq %d flags %#x size %d, %v", n, f.Seq, f.Flags, size, err)
		}
		if string(out[:3]) != "pre" {
			t.Fatalf("%d B: the bytes before the frame changed", n)
		}
		allocs := testing.AllocsPerRun(100, func() {
			out, _ = AppendFrame(buf, Frame{Seq: 7, Flags: FlagData, Payload: payload})
		})
		if allocs != 0 {
			t.Fatalf("%d B: %.1f allocations per AppendFrame into a buffer with room", n, allocs)
		}
	}

	buf := make([]byte, 5, 64)
	big := make([]byte, MaxFramePayload+1)
	out, err := AppendFrame(buf, Frame{Seq: 1, Flags: FlagData, Payload: big})
	if err == nil {
		t.Fatal("an oversized payload was encoded")
	}
	if len(out) != len(buf) || cap(out) != cap(buf) || &out[0] != &buf[0] || !bytes.Equal(buf[:cap(buf)], make([]byte, cap(buf))) {
		t.Fatalf("the refused append changed buf: len %d cap %d", len(out), cap(out))
	}
}
