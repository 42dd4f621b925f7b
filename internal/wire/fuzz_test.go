package wire

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// Fuzz targets: the decoders face bytes from the network, so they must
// never panic or over-allocate, and anything they accept must re-encode to
// an equivalent value. Run longer with `go test -fuzz=FuzzDecodeControlMsg
// ./internal/wire`; in normal test runs the seed corpus executes.

// frameErrClass folds a frame decoder's terminal error into what the two
// decoders must agree on: a clean end, a truncated frame, or a bad header.
func frameErrClass(err error) string {
	switch {
	case err == io.EOF:
		return "eof"
	case err == io.ErrUnexpectedEOF:
		return "truncated"
	case errors.Is(err, ErrBadFrame):
		return "bad frame"
	}
	return err.Error()
}

// FuzzReadFrame is differential: ReadFrame, the reference decoder, reads
// data in one piece; FrameDecoder.Next gets the same bytes through a source
// that releases them in the chunk sizes the fuzzer picks; and the in-place
// walk — PeekFrame over each segment, Fill for the frame that straddles two,
// the way the data plane consumes a stream — gets them cut into pooled
// segments of those same sizes. All three must yield the same frames and the
// same kind of ending, and every buffer drawn from the pool must find its way
// back.
func FuzzReadFrame(f *testing.F) {
	var good bytes.Buffer
	WriteFrame(&good, Frame{Seq: 7, Flags: FlagData, Payload: []byte("seed")})
	f.Add(good.Bytes(), []byte{})
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0x4e, 0x53, 1, 1, 0, 0, 0, 0, 0, 0, 0, 9, 0xff, 0xff, 0xff, 0xff}, []byte{0})
	var several bytes.Buffer
	fw := NewFrameWriter(&several, 1)
	for _, n := range []int{0, 1, 17, 3000} {
		fw.WriteData(bytes.Repeat([]byte{byte(n)}, n))
	}
	fw.WriteFlush()
	f.Add(several.Bytes(), []byte{0, 2, 15, 16, 255})                  // chopped mid-header and mid-payload
	f.Add(several.Bytes()[:several.Len()-5], []byte{40})               // ends inside a payload
	f.Add(append(several.Bytes(), good.Bytes()[:7]...), []byte{99, 1}) // ends inside a header
	f.Fuzz(func(t *testing.T, data, chunks []byte) {
		var want []Frame
		var wantErr error
		for r := bytes.NewReader(data); wantErr == nil; {
			var fr Frame
			if fr, wantErr = ReadFrame(r); wantErr == nil {
				want = append(want, fr)
			}
		}

		hits0, misses0 := PoolStats()
		returns0 := PoolReturns()
		walked, walkErr := walkSegments(t, data, chunks)
		src := &trickleSource{buf: data}
		var dec FrameDecoder
		var got []Frame
		var gotErr error
		for gotErr == nil {
			fr, ok, err := dec.Next(src)
			switch {
			case err != nil:
				gotErr = err
			case ok:
				got = append(got, fr)
			case len(src.buf) > 0:
				// The source ran dry: release the next chunk, 1..256 bytes,
				// or everything once the fuzzer's list is used up.
				src.avail = len(src.buf)
				if len(chunks) > 0 {
					src.avail = min(src.avail, int(chunks[0])+1)
					chunks = chunks[1:]
				}
			case dec.Partial():
				gotErr = io.ErrUnexpectedEOF
			default:
				gotErr = io.EOF
			}
		}
		dec.Release()

		if frameErrClass(gotErr) != frameErrClass(wantErr) {
			t.Fatalf("FrameDecoder ended with %v, ReadFrame with %v", gotErr, wantErr)
		}
		if frameErrClass(walkErr) != frameErrClass(wantErr) {
			t.Fatalf("the in-place walk ended with %v, ReadFrame with %v", walkErr, wantErr)
		}
		if len(got) != len(want) || len(walked) != len(want) {
			t.Fatalf("FrameDecoder yielded %d frames, the in-place walk %d, ReadFrame %d", len(got), len(walked), len(want))
		}
		for i, fr := range want {
			if walked[i].Seq != fr.Seq || walked[i].Flags != fr.Flags || !bytes.Equal(walked[i].Payload, fr.Payload) {
				t.Fatalf("frame %d: the in-place walk seq %d flags %#x len %d, ReadFrame seq %d flags %#x len %d", i,
					walked[i].Seq, walked[i].Flags, len(walked[i].Payload), fr.Seq, fr.Flags, len(fr.Payload))
			}
			if got[i].Seq != fr.Seq || got[i].Flags != fr.Flags || !bytes.Equal(got[i].Payload, fr.Payload) {
				t.Fatalf("frame %d: FrameDecoder seq %d flags %#x len %d, ReadFrame seq %d flags %#x len %d", i,
					got[i].Seq, got[i].Flags, len(got[i].Payload), fr.Seq, fr.Flags, len(fr.Payload))
			}
			if got[i].Payload != nil {
				PutPayload(got[i].Payload)
			}
			// Re-encode and re-decode: must round-trip.
			var buf bytes.Buffer
			if err := WriteFrame(&buf, fr); err != nil {
				t.Fatalf("accepted frame failed to encode: %v", err)
			}
			fr2, err := ReadFrame(&buf)
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if fr2.Seq != fr.Seq || fr2.Flags != fr.Flags || !bytes.Equal(fr2.Payload, fr.Payload) {
				t.Fatal("frame round-trip mismatch")
			}
		}
		hits, misses := PoolStats()
		if drawn, returned := (hits-hits0)+(misses-misses0), PoolReturns()-returns0; drawn != returned {
			t.Fatalf("the decoders drew %d buffers from the pool and %d came back", drawn, returned)
		}
	})
}

// walkSegments consumes data the way the data plane consumes a stream: cut
// into pooled segments (1..256 bytes each as chunks dictates, then the rest
// in one), each walked in place with PeekFrame, the frame that straddles two
// of them assembled with Fill. The frames it returns are copies; every
// segment and assembly buffer is back in the pool when it returns. Every
// frame of a run it accepts is decoded with FrameAt too, the way the data
// plane reads what it admitted, and must come out the same.
func walkSegments(t *testing.T, data, chunks []byte) (frames []Frame, err error) {
	var dec FrameDecoder
	defer dec.Release()
	keep := func(run []byte) {
		for len(run) > 0 {
			f, size, err := PeekFrame(run)
			if err != nil || size == 0 {
				t.Fatalf("an accepted run does not walk: size %d, %v", size, err)
			}
			g, gsize := FrameAt(run)
			if gsize != size || g.Seq != f.Seq || g.Flags != f.Flags || !bytes.Equal(g.Payload, f.Payload) {
				t.Fatalf("FrameAt read seq %d flags %#x size %d where PeekFrame accepted seq %d flags %#x size %d",
					g.Seq, g.Flags, gsize, f.Seq, f.Flags, size)
			}
			f.Payload = append([]byte(nil), f.Payload...)
			frames = append(frames, f)
			run = run[size:]
		}
	}
	for len(data) > 0 {
		n := len(data)
		if len(chunks) > 0 {
			n = min(n, int(chunks[0])+1)
			chunks = chunks[1:]
		}
		seg := GetPayload(n)
		copy(seg, data)
		data = data[n:]
		off := 0
		if dec.Partial() {
			var frame []byte
			if frame, off, err = dec.Fill(seg); frame != nil {
				keep(frame)
				PutPayload(frame)
			}
		}
		for err == nil && off < len(seg) {
			var size int
			if _, size, err = PeekFrame(seg[off:]); err == nil && size == 0 {
				_, _, err = dec.Fill(seg[off:])
				break
			}
			keep(seg[off : off+size])
			off += size
		}
		PutPayload(seg)
		if err != nil {
			return frames, err
		}
	}
	if dec.Partial() {
		return frames, io.ErrUnexpectedEOF
	}
	return frames, io.EOF
}

// fuzzMAC is a session authenticator for the control-codec fuzz targets and
// tests (dhkx.Authenticator does the same under a derived key).
type fuzzMAC struct{}

func (fuzzMAC) Sign(msg []byte) (tag [TagSize]byte) {
	h := hmac.New(sha256.New, []byte("fuzz session key"))
	h.Write(msg)
	h.Sum(tag[:0])
	return tag
}

// checkEncodedTag is what lets a control message be verified as received,
// without re-encoding what was decoded from it: data decoded, so it is the
// canonical encoding of what it decoded to, and the tag check over the wire
// bytes gives the verdict the check over the re-encoded signing bytes gives —
// leaving the bytes as they came.
func checkEncodedTag(t *testing.T, data, reencoded, signing []byte, tag [TagSize]byte) {
	t.Helper()
	if !bytes.Equal(reencoded, data) {
		t.Fatalf("decoded from a non-canonical encoding:\n got %x\nfrom %x", reencoded, data)
	}
	want := fuzzMAC{}.Sign(signing) == tag
	if got := VerifyEncoded(data, fuzzMAC{}); got != want {
		t.Fatalf("verify over the wire bytes = %v, over the re-encoded message = %v", got, want)
	}
	if !bytes.Equal(data, reencoded) {
		t.Fatal("VerifyEncoded changed the bytes it was given")
	}
}

func FuzzDecodeControlMsg(f *testing.F) {
	m := &ControlMsg{Type: MsgResume, From: "a", To: "b", Nonce: 3, DataAddr: "x:1", ControlAddr: "y:2"}
	f.Add(m.Encode())
	f.Add(SignEncoded(m.Encode(), fuzzMAC{}))
	f.Add(SignEncoded(sampleMsg().Encode(), fuzzMAC{})) // signed over a tag that was not zero
	f.Add([]byte{})
	f.Add([]byte{0x4e, 0x43})
	// The retired ID message: a must-reject seed.
	id := &ControlMsg{Type: msgIDReserved, From: "a", To: "b", Nonce: 2}
	f.Add(SignEncoded(id.Encode(), fuzzMAC{}))
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := DecodeControlMsg(data)
		if err != nil {
			return
		}
		if msg.Type == msgIDReserved {
			t.Fatal("accepted the reserved type 2")
		}
		re, err := DecodeControlMsg(msg.Encode())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if re.Type != msg.Type || re.Nonce != msg.Nonce || re.From != msg.From || re.To != msg.To {
			t.Fatal("control message round-trip mismatch")
		}
		checkEncodedTag(t, data, msg.Encode(), msg.SigningBytes(), msg.Tag)
	})
}

func FuzzDecodeControlReply(f *testing.F) {
	r := &ControlReply{Verdict: VerdictAck, Reason: "x", LastSeq: 9}
	f.Add(r.Encode())
	f.Add(SignEncoded(r.Encode(), fuzzMAC{}))
	f.Add((&ControlReply{Verdict: VerdictReject, Code: RejectResumeRace, Reason: "race"}).Encode())
	// An unknown code, and a code beside a verdict that is not a rejection:
	// both must fail to decode.
	f.Add((&ControlReply{Verdict: VerdictReject, Code: RejectResumeRace + 1}).Encode())
	f.Add((&ControlReply{Verdict: VerdictAck, Code: RejectRetry}).Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := DecodeControlReply(data)
		if err != nil {
			return
		}
		re, err := DecodeControlReply(rep.Encode())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if rep.Code > RejectResumeRace || (rep.Code != RejectOther && rep.Verdict != VerdictReject) {
			t.Fatalf("decoded reject code %d on verdict %s", rep.Code, rep.Verdict)
		}
		if re.Verdict != rep.Verdict || re.Code != rep.Code || re.Reason != rep.Reason || re.LastSeq != rep.LastSeq {
			t.Fatal("reply round-trip mismatch")
		}
		unsigned := *rep
		unsigned.Tag = [TagSize]byte{}
		checkEncodedTag(t, data, rep.Encode(), unsigned.Encode(), rep.Tag)
	})
}

func FuzzReadTransportHello(f *testing.F) {
	id, _ := NewConnID()
	var seed bytes.Buffer
	WriteTransportHello(&seed, &TransportHello{
		ID:       id,
		Host:     "h",
		Addr:     "a:1",
		Public:   testPublic,
		Versions: []uint8{3, 4},
		Ciphers:  []uint16{CipherAES256GCM},
		Limits:   DefaultLimits(),
	})
	f.Add(seed.Bytes())
	// A raw version-1 body under its prefix: a must-reject seed.
	v1 := encodeV1Hello(&TransportHello{ID: id, Host: "old"})
	var v1msg bytes.Buffer
	v1msg.Write([]byte{0x4e, 0x54})
	var lenb [4]byte
	binary.BigEndian.PutUint32(lenb[:], uint32(len(v1)))
	v1msg.Write(lenb[:])
	v1msg.Write(v1)
	if _, _, err := ReadTransportHello(bytes.NewReader(v1msg.Bytes())); !errors.Is(err, ErrBadTransport) {
		f.Fatalf("version-1 hello: want ErrBadTransport, got %v", err)
	}
	f.Add(v1msg.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x4e, 0x54, 0, 0, 0, 4, 0x4e, 0x54, 2, 0})
	// A session-resumption hello of earlier builds: a must-reject seed.
	resume := oldResumeHello(id)
	if _, _, err := ReadTransportHello(bytes.NewReader(resume)); !errors.Is(err, ErrBadTransport) {
		f.Fatalf("old-format resume hello: want ErrBadTransport, got %v", err)
	}
	f.Add(resume)
	// A version-2 hello, MODP public value and all: a must-reject seed.
	if _, _, err := ReadTransportHello(bytes.NewReader(v2Hello(id))); !errors.Is(err, ErrBadTransport) {
		f.Fatalf("version-2 hello: want ErrBadTransport, got %v", err)
	}
	f.Add(v2Hello(id))
	// A version-3 hello, byte for byte today's but for the version: a
	// must-reject seed.
	if _, _, err := ReadTransportHello(bytes.NewReader(v3Hello(id))); !errors.Is(err, ErrBadTransport) {
		f.Fatalf("version-3 hello: want ErrBadTransport, got %v", err)
	}
	f.Add(v3Hello(id))
	// Secure hellos whose public value is not one X25519 value, and an
	// insecure hello that carries one: must-reject seeds.
	for _, h := range []*TransportHello{
		{ID: id, Host: "h"},
		{ID: id, Host: "h", Public: make([]byte, 31)},
		{ID: id, Host: "h", Public: make([]byte, 33)},
		{ID: id, Host: "h", Public: make([]byte, 256)},
		{ID: id, Host: "h", Insecure: true, Public: testPublic},
	} {
		var b bytes.Buffer
		WriteTransportHello(&b, h)
		if _, _, err := ReadTransportHello(bytes.NewReader(b.Bytes())); !errors.Is(err, ErrBadTransport) {
			f.Fatalf("%d-byte public value (insecure %v): want ErrBadTransport, got %v", len(h.Public), h.Insecure, err)
		}
		f.Add(b.Bytes())
	}
	// The largest MaxPayload a hello may carry, and one past it: a must-accept
	// and a must-reject seed.
	for _, mp := range []uint32{MaxMuxPayload, MaxMuxPayload + 1} {
		lim := DefaultLimits()
		lim.MaxPayload = mp
		var b bytes.Buffer
		WriteTransportHello(&b, &TransportHello{ID: id, Host: "h", Public: testPublic, Versions: []uint8{4}, Limits: lim})
		_, _, err := ReadTransportHello(bytes.NewReader(b.Bytes()))
		if (err == nil) != (mp == MaxMuxPayload) {
			f.Fatalf("MaxPayload %d: decode error %v", mp, err)
		}
		f.Add(b.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, _, err := ReadTransportHello(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything accepted is a version-4 hello (the version byte follows
		// the six-byte prefix and the body magic, the flags byte follows it)
		// with no flag but insecure, a public value of 32 bytes when secure
		// and none when insecure, validated limits and a non-empty version
		// list, and re-encodes losslessly.
		if data[8] != TransportVersion4 {
			t.Fatalf("accepted hello of version %d", data[8])
		}
		if data[9]&^transportFlagInsecure != 0 {
			t.Fatalf("accepted hello with unknown flags %#02x", data[9])
		}
		want := helloPublicSize
		if h.Insecure {
			want = 0
		}
		if len(h.Public) != want {
			t.Fatalf("accepted hello (insecure %v) with a %d-byte public value", h.Insecure, len(h.Public))
		}
		if len(h.Versions) == 0 {
			t.Fatal("accepted hello with empty version list")
		}
		if err := h.Limits.Validate(); err != nil {
			t.Fatalf("accepted hello with invalid limits: %v", err)
		}
		var buf bytes.Buffer
		if _, err := WriteTransportHello(&buf, h); err != nil {
			t.Fatalf("accepted hello failed to encode: %v", err)
		}
		h2, _, err := ReadTransportHello(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if h2.ID != h.ID || h2.Host != h.Host || h2.Insecure != h.Insecure ||
			!bytes.Equal(h2.Versions, h.Versions) || h2.Limits != h.Limits ||
			len(h2.Ciphers) != len(h.Ciphers) {
			t.Fatal("hello round-trip mismatch")
		}
	})
}

func FuzzReadHandoffHeader(f *testing.F) {
	var buf bytes.Buffer
	h := &HandoffHeader{Purpose: HandoffConnect, TargetAgent: "t", FromAgent: "f", Nonce: 1}
	h.Write(&buf)
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 2, 0x4e, 0x48})
	// An agent-bundle open must be accepted; purposes 0 and 4, on either
	// side of the legal range, must be rejected.
	for _, p := range []HandoffPurpose{HandoffAgent, 0, 4} {
		var seed bytes.Buffer
		(&HandoffHeader{Purpose: p}).Write(&seed)
		_, err := ReadHandoffHeader(bytes.NewReader(seed.Bytes()))
		if (err == nil) != (p == HandoffAgent) {
			f.Fatalf("purpose %d: decode error %v", p, err)
		}
		f.Add(seed.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, err := ReadHandoffHeader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := hdr.Write(&out); err != nil {
			t.Fatalf("accepted header failed to encode: %v", err)
		}
		hdr2, err := ReadHandoffHeader(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if hdr.Purpose < HandoffConnect || hdr.Purpose > HandoffAgent {
			t.Fatalf("accepted handoff purpose %d", hdr.Purpose)
		}
		if hdr2.Purpose != hdr.Purpose || hdr2.TargetAgent != hdr.TargetAgent || hdr2.Nonce != hdr.Nonce {
			t.Fatal("handoff round-trip mismatch")
		}
	})
}
