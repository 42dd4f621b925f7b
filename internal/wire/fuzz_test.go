package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// Fuzz targets: the decoders face bytes from the network, so they must
// never panic or over-allocate, and anything they accept must re-encode to
// an equivalent value. Run longer with `go test -fuzz=FuzzDecodeControlMsg
// ./internal/wire`; in normal test runs the seed corpus executes.

func FuzzReadFrame(f *testing.F) {
	var good bytes.Buffer
	WriteFrame(&good, Frame{Seq: 7, Flags: FlagData, Payload: []byte("seed")})
	f.Add(good.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x4e, 0x53, 1, 1, 0, 0, 0, 0, 0, 0, 0, 9, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
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
	})
}

func FuzzDecodeControlMsg(f *testing.F) {
	m := &ControlMsg{Type: MsgResume, From: "a", To: "b", Nonce: 3, DataAddr: "x:1", ControlAddr: "y:2"}
	f.Add(m.Encode())
	f.Add([]byte{})
	f.Add([]byte{0x4e, 0x43})
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := DecodeControlMsg(data)
		if err != nil {
			return
		}
		re, err := DecodeControlMsg(msg.Encode())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if re.Type != msg.Type || re.Nonce != msg.Nonce || re.From != msg.From || re.To != msg.To {
			t.Fatal("control message round-trip mismatch")
		}
	})
}

func FuzzDecodeControlReply(f *testing.F) {
	r := &ControlReply{Verdict: VerdictAck, Reason: "x", LastSeq: 9}
	f.Add(r.Encode())
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
		if re.Verdict != rep.Verdict || re.Reason != rep.Reason || re.LastSeq != rep.LastSeq {
			t.Fatal("reply round-trip mismatch")
		}
	})
}

func FuzzReadTransportHello(f *testing.F) {
	id, _ := NewConnID()
	var seed bytes.Buffer
	WriteTransportHello(&seed, &TransportHello{
		ID:       id,
		Host:     "h",
		Addr:     "a:1",
		Public:   []byte{1, 2, 3},
		Versions: []uint8{1, 2},
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
	f.Fuzz(func(t *testing.T, data []byte) {
		h, _, err := ReadTransportHello(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything accepted is a version-2 hello (the version byte follows
		// the six-byte prefix and the body magic) with validated limits and
		// a non-empty version list, and re-encodes losslessly.
		if data[8] != TransportVersion2 {
			t.Fatalf("accepted hello of version %d", data[8])
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
		if h2.ID != h.ID || h2.Host != h.Host || h2.RecvSeq != h.RecvSeq ||
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
		if hdr2.Purpose != hdr.Purpose || hdr2.TargetAgent != hdr.TargetAgent || hdr2.Nonce != hdr.Nonce {
			t.Fatal("handoff round-trip mismatch")
		}
	})
}
