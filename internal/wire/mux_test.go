package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func TestTransportHelloRoundTrip(t *testing.T) {
	id, err := NewConnID()
	if err != nil {
		t.Fatal(err)
	}
	h := &TransportHello{
		ID:     id,
		Host:   "alpha",
		Addr:   "127.0.0.1:4410",
		Public: bytes.Repeat([]byte{0xAB}, 256),
		Trace:  bytes.Repeat([]byte{0xC3}, 24),
	}
	var buf bytes.Buffer
	raw, err := WriteTransportHello(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, buf.Bytes()) {
		t.Fatal("returned raw bytes differ from written bytes")
	}
	got, raw2, err := ReadTransportHello(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Fatal("reader raw bytes differ from writer raw bytes")
	}
	if got.ID != h.ID || got.Host != h.Host || got.Addr != h.Addr || got.Insecure {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", got, h)
	}
	if !bytes.Equal(got.Public, h.Public) {
		t.Fatal("public value mismatch")
	}
}

func TestTransportHelloInsecureFlag(t *testing.T) {
	id, _ := NewConnID()
	var buf bytes.Buffer
	if _, err := WriteTransportHello(&buf, &TransportHello{ID: id, Insecure: true, Host: "h"}); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadTransportHello(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Insecure {
		t.Fatal("insecure flag lost in roundtrip")
	}
	if len(got.Public) != 0 {
		t.Fatal("unexpected public value on insecure hello")
	}
}

func TestTransportHelloResumeRoundTrip(t *testing.T) {
	id, _ := NewConnID()
	h := &TransportHello{
		ID:        id,
		Resume:    true,
		Host:      "beta",
		RecvSeq:   0xDEADBEEF01,
		ResumeTag: bytes.Repeat([]byte{0x5A}, 32),
	}
	var buf bytes.Buffer
	if _, err := WriteTransportHello(&buf, h); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadTransportHello(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Resume || got.ResumeDenied || got.RecvSeq != h.RecvSeq || !bytes.Equal(got.ResumeTag, h.ResumeTag) {
		t.Fatalf("resume roundtrip mismatch: %+v", got)
	}

	buf.Reset()
	if _, err := WriteTransportHello(&buf, &TransportHello{ID: id, ResumeDenied: true}); err != nil {
		t.Fatal(err)
	}
	if got, _, err = ReadTransportHello(&buf); err != nil || !got.ResumeDenied {
		t.Fatalf("denied roundtrip: %+v, %v", got, err)
	}
}

func TestReliableMuxFrame(t *testing.T) {
	for _, typ := range []uint8{MuxOpen, MuxReset, MuxData, MuxFin, MuxWindow} {
		if !ReliableMuxFrame(typ) {
			t.Fatalf("type %d should be reliable", typ)
		}
	}
	for _, typ := range []uint8{MuxPing, MuxPong, MuxAck, 0, 99} {
		if ReliableMuxFrame(typ) {
			t.Fatalf("type %d should not be reliable", typ)
		}
	}
}

func TestReadTransportHelloRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0x4e, 0x54, 0xFF, 0xFF, 0xFF, 0xFF})
	if _, _, err := ReadTransportHello(&buf); !errors.Is(err, ErrBadTransport) {
		t.Fatalf("want ErrBadTransport, got %v", err)
	}
}

// A peer that does not open with the transport magic is refused on its
// first two bytes: the reader must not wait for the rest of a six-byte
// prefix that may never come.
func TestReadTransportHelloRejectsForeignMagicAtOnce(t *testing.T) {
	for _, first := range [][]byte{
		{0x00, 0x00}, // an old length-prefixed handoff header's first bytes
		{0xde, 0xad}, // garbage
	} {
		// The reader holds exactly two bytes: a decoder that asked for more
		// before judging the magic would see io.ErrUnexpectedEOF instead.
		if _, _, err := ReadTransportHello(bytes.NewReader(first)); !errors.Is(err, ErrBadTransport) {
			t.Fatalf("first bytes %x: want ErrBadTransport, got %v", first, err)
		}
	}
}

func TestMuxHeaderRoundTrip(t *testing.T) {
	for _, typ := range []uint8{MuxOpen, MuxReset, MuxData, MuxFin, MuxWindow, MuxPing, MuxPong, MuxAck} {
		b := AppendMuxHeader(nil, typ, 0x0102030405060708, 77)
		if len(b) != MuxHeaderSize {
			t.Fatalf("header length %d, want %d", len(b), MuxHeaderSize)
		}
		h, err := ReadMuxHeader(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("type %d: %v", typ, err)
		}
		if h.Type != typ || h.Stream != 0x0102030405060708 || h.Length != 77 {
			t.Fatalf("roundtrip mismatch: %+v", h)
		}
	}
}

func TestReadMuxHeaderRejects(t *testing.T) {
	bad := AppendMuxHeader(nil, 99, 1, 0)
	if _, err := ReadMuxHeader(bytes.NewReader(bad)); !errors.Is(err, ErrBadTransport) {
		t.Fatalf("unknown type: want ErrBadTransport, got %v", err)
	}
	big := AppendMuxHeader(nil, MuxData, 1, MaxMuxPayload+1)
	if _, err := ReadMuxHeader(bytes.NewReader(big)); !errors.Is(err, ErrBadTransport) {
		t.Fatalf("oversize payload: want ErrBadTransport, got %v", err)
	}
	if _, err := ReadMuxHeader(bytes.NewReader([]byte{MuxData, 0})); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestControlMsgTransportIDRoundTrip(t *testing.T) {
	id, _ := NewConnID()
	tid, _ := NewConnID()
	m := &ControlMsg{
		Type:        MsgConnect,
		ConnID:      id,
		From:        "a",
		To:          "b",
		TransportID: tid,
		Payload:     []byte("hello"),
	}
	got, err := DecodeControlMsg(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.TransportID != tid {
		t.Fatalf("TransportID mismatch: %v vs %v", got.TransportID, tid)
	}
	if !bytes.Equal(got.Payload, m.Payload) {
		t.Fatal("payload mismatch after TransportID field")
	}
}

func TestMuxHeaderReaderEOF(t *testing.T) {
	if _, err := ReadMuxHeader(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Fatalf("want io.EOF on empty reader, got %v", err)
	}
}

func TestTransportHelloNegotiationRoundTrip(t *testing.T) {
	id, _ := NewConnID()
	h := &TransportHello{
		ID:       id,
		Host:     "gamma",
		Versions: []uint8{1, 2},
		Ciphers:  []uint16{CipherAES256GCM, 7},
		Limits: Limits{
			MaxPayload:    32 << 10,
			InitialWindow: 512 << 10,
			AckFrames:     32,
			AckBytes:      128 << 10,
			KeepaliveMs:   5000,
		},
	}
	var buf bytes.Buffer
	if _, err := WriteTransportHello(&buf, h); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadTransportHello(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Versions, h.Versions) {
		t.Fatalf("versions mismatch: %v vs %v", got.Versions, h.Versions)
	}
	if len(got.Ciphers) != 2 || got.Ciphers[0] != CipherAES256GCM || got.Ciphers[1] != 7 {
		t.Fatalf("ciphers mismatch: %v", got.Ciphers)
	}
	if got.Limits != h.Limits {
		t.Fatalf("limits mismatch: %+v vs %+v", got.Limits, h.Limits)
	}
}

func TestTransportHelloDefaultsNegotiationSection(t *testing.T) {
	// A hello built without negotiation fields still advertises the full
	// version list and the default limits on the wire.
	id, _ := NewConnID()
	var buf bytes.Buffer
	if _, err := WriteTransportHello(&buf, &TransportHello{ID: id, Host: "d"}); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadTransportHello(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Versions, SupportedVersions()) {
		t.Fatalf("default versions = %v", got.Versions)
	}
	if len(got.Ciphers) != 0 {
		t.Fatalf("default ciphers = %v", got.Ciphers)
	}
	if got.Limits != DefaultLimits() {
		t.Fatalf("default limits = %+v", got.Limits)
	}
}

// encodeV1Hello reproduces the version-1 hello body wire format (no
// negotiation section), which decode must refuse.
func encodeV1Hello(h *TransportHello) []byte {
	b := binary.BigEndian.AppendUint16(nil, 0x4e54)
	b = append(b, 1)
	var flags byte
	if h.Insecure {
		flags |= 0x01
	}
	b = append(b, flags)
	b = append(b, h.ID[:]...)
	b = appendString(b, h.Host)
	b = appendString(b, h.Addr)
	b = appendBytes(b, h.Public)
	b = binary.BigEndian.AppendUint64(b, h.RecvSeq)
	b = appendBytes(b, h.ResumeTag)
	b = appendBytes(b, h.Trace)
	return b
}

func TestTransportHelloV1Refused(t *testing.T) {
	id, _ := NewConnID()
	h := &TransportHello{ID: id, Host: "old", Addr: "127.0.0.1:1", Public: []byte{1, 2, 3}}
	if _, err := decodeTransportHello(encodeV1Hello(h)); !errors.Is(err, ErrBadTransport) {
		t.Fatalf("version-1 hello: want ErrBadTransport, got %v", err)
	}
	// A version-1 version byte in front of a complete negotiation section
	// is refused just the same.
	var buf bytes.Buffer
	if _, err := WriteTransportHello(&buf, h); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()[6:]
	body[2] = 1
	if _, err := decodeTransportHello(body); !errors.Is(err, ErrBadTransport) {
		t.Fatalf("version byte 1 on a current body: want ErrBadTransport, got %v", err)
	}
}

func TestDecodeHelloRejectsMalformedNegotiation(t *testing.T) {
	id, _ := NewConnID()
	base := func() []byte {
		var buf bytes.Buffer
		if _, err := WriteTransportHello(&buf, &TransportHello{ID: id, Host: "x"}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()[6:] // strip magic + length prefix: raw body
	}
	valid := base()
	if _, err := decodeTransportHello(valid); err != nil {
		t.Fatal(err)
	}
	// The negotiation section is the final 2 + len(versions) + 20 bytes.
	tail := 2 + len(SupportedVersions()) + 20

	mutate := func(name string, f func(b []byte) []byte) {
		b := append([]byte(nil), valid...)
		if _, err := decodeTransportHello(f(b)); !errors.Is(err, ErrBadTransport) {
			t.Fatalf("%s: want ErrBadTransport, got %v", name, err)
		}
	}
	mutate("truncated version list", func(b []byte) []byte { return b[:len(b)-tail] })
	mutate("empty version list", func(b []byte) []byte {
		b[len(b)-tail] = 0
		return b[:len(b)-tail+1+1+20] // count byte, cipher count, limits
	})
	mutate("version zero", func(b []byte) []byte {
		b[len(b)-tail+1] = 0
		return b
	})
	mutate("truncated limits", func(b []byte) []byte { return b[:len(b)-1] })
	mutate("zero max payload", func(b []byte) []byte {
		copy(b[len(b)-20:], []byte{0, 0, 0, 0})
		return b
	})
	mutate("overflow window", func(b []byte) []byte {
		copy(b[len(b)-16:], []byte{0xFF, 0xFF, 0xFF, 0xFF})
		return b
	})
	mutate("zero ack cadence", func(b []byte) []byte {
		copy(b[len(b)-12:], []byte{0, 0, 0, 0})
		return b
	})
	mutate("cleartext in cipher list", func(b []byte) []byte {
		// Rebuild with one cipher whose id is 0.
		head := b[:len(b)-tail+1+len(SupportedVersions())]
		out := append([]byte(nil), head...)
		out = append(out, 1, 0, 0) // 1 cipher: 0x0000
		return append(out, b[len(b)-20:]...)
	})
}

func TestLimitsValidate(t *testing.T) {
	if err := DefaultLimits().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Limits{
		{MaxPayload: 0, InitialWindow: 1 << 20, AckFrames: 64, AckBytes: 256 << 10},
		{MaxPayload: MaxMuxPayload + 1, InitialWindow: 1 << 20, AckFrames: 64, AckBytes: 256 << 10},
		{MaxPayload: MaxMuxPayload, InitialWindow: 0, AckFrames: 64, AckBytes: 256 << 10},
		{MaxPayload: MaxMuxPayload, InitialWindow: 1 << 31, AckFrames: 64, AckBytes: 256 << 10},
		{MaxPayload: MaxMuxPayload, InitialWindow: 1 << 20, AckFrames: 0, AckBytes: 256 << 10},
		{MaxPayload: MaxMuxPayload, InitialWindow: 1 << 20, AckFrames: 64, AckBytes: 0},
		{MaxPayload: MaxMuxPayload, InitialWindow: 1 << 20, AckFrames: 64, AckBytes: 256 << 10, KeepaliveMs: 1 << 31},
	}
	for i, l := range bad {
		if err := l.Validate(); !errors.Is(err, ErrBadTransport) {
			t.Fatalf("case %d: want ErrBadTransport, got %v", i, err)
		}
	}
}

func TestNegotiate(t *testing.T) {
	v2 := func(ciphers []uint16, l Limits) *TransportHello {
		return &TransportHello{Versions: []uint8{1, 2}, Ciphers: ciphers, Limits: l}
	}
	small := Limits{MaxPayload: 16 << 10, InitialWindow: 256 << 10, AckFrames: 16, AckBytes: 64 << 10, KeepaliveMs: 4000}
	big := DefaultLimits()

	n, err := Negotiate(v2([]uint16{CipherAES256GCM}, big), v2([]uint16{CipherAES256GCM}, small))
	if err != nil {
		t.Fatal(err)
	}
	if n.Version != TransportVersion2 || n.Cipher != CipherAES256GCM {
		t.Fatalf("negotiated %+v", n)
	}
	if n.Limits != small {
		t.Fatalf("min-of-both limits: %+v", n.Limits)
	}

	// Highest common cipher wins, regardless of list order.
	n, _ = Negotiate(v2([]uint16{CipherAES256GCM, 9}, big), v2([]uint16{9, CipherAES256GCM}, big))
	if n.Cipher != 9 {
		t.Fatalf("highest common cipher: got %d", n.Cipher)
	}

	// Either side offering no ciphers yields cleartext.
	n, _ = Negotiate(v2(nil, big), v2([]uint16{CipherAES256GCM}, big))
	if n.Cipher != CipherCleartext {
		t.Fatalf("empty-list negotiation: got cipher %d", n.Cipher)
	}

	// Insecure mode can never negotiate a cipher.
	ins := v2([]uint16{CipherAES256GCM}, big)
	ins.Insecure = true
	n, _ = Negotiate(ins, v2([]uint16{CipherAES256GCM}, big))
	if n.Cipher != CipherCleartext {
		t.Fatalf("insecure negotiation: got cipher %d", n.Cipher)
	}

	// A peer whose list lacks version 2 is refused, from either side, even
	// though both lists name version 1.
	v1 := &TransportHello{Versions: []uint8{1}, Limits: big}
	if _, err := Negotiate(v2([]uint16{CipherAES256GCM}, small), v1); !errors.Is(err, ErrBadTransport) {
		t.Fatalf("version-1-only peer: want ErrBadTransport, got %v", err)
	}
	if _, err := Negotiate(v1, v2([]uint16{CipherAES256GCM}, small)); !errors.Is(err, ErrBadTransport) {
		t.Fatalf("version-1-only local: want ErrBadTransport, got %v", err)
	}

	// No common version is a handshake failure.
	if _, err := Negotiate(v2(nil, big), &TransportHello{Versions: []uint8{7}}); !errors.Is(err, ErrBadTransport) {
		t.Fatalf("no common version: %v", err)
	}

	// Symmetry: both ends compute the identical agreement.
	a, b := v2([]uint16{9, CipherAES256GCM}, small), v2([]uint16{CipherAES256GCM, 9}, big)
	na, _ := Negotiate(a, b)
	nb, _ := Negotiate(b, a)
	if na != nb {
		t.Fatalf("asymmetric negotiation: %+v vs %+v", na, nb)
	}
}

func TestLimitsMergeKeepalive(t *testing.T) {
	a := DefaultLimits()
	a.KeepaliveMs = 0
	b := DefaultLimits()
	b.KeepaliveMs = 9000
	if got := a.Merge(b).KeepaliveMs; got != 9000 {
		t.Fatalf("zero keepalive merged to %d", got)
	}
	a.KeepaliveMs = 3000
	if got := a.Merge(b).KeepaliveMs; got != 3000 {
		t.Fatalf("min keepalive merged to %d", got)
	}
}
