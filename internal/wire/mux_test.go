package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"strings"
	"testing"
)

// testPublic stands in for an X25519 public value: a secure hello's Public
// is exactly 32 bytes.
var testPublic = bytes.Repeat([]byte{0xAB}, helloPublicSize)

func TestTransportHelloRoundTrip(t *testing.T) {
	id, err := NewConnID()
	if err != nil {
		t.Fatal(err)
	}
	h := &TransportHello{
		ID:     id,
		Host:   "alpha",
		Addr:   "127.0.0.1:4410",
		Public: testPublic,
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

// The insecure bit is the only hello flag. A peer still setting one of the
// bits earlier builds used for session resumption (0x02 resume, 0x04 resume
// denied) is refused at decode — its hello must not start a fresh handshake
// under the id it meant to resume — and so is any other unknown bit.
func TestTransportHelloRejectsUnknownFlags(t *testing.T) {
	id, _ := NewConnID()
	var buf bytes.Buffer
	if _, err := WriteTransportHello(&buf, &TransportHello{ID: id, Host: "h", Public: testPublic}); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()[6:]
	if _, err := decodeTransportHello(body); err != nil {
		t.Fatal(err)
	}
	for _, flag := range []byte{0x02, 0x04, 0x80} {
		b := append([]byte(nil), body...)
		b[3] |= flag
		if _, err := decodeTransportHello(b); !errors.Is(err, ErrBadTransport) {
			t.Fatalf("flag %#02x: want ErrBadTransport, got %v", flag, err)
		}
	}
	if _, _, err := ReadTransportHello(bytes.NewReader(oldResumeHello(id))); !errors.Is(err, ErrBadTransport) {
		t.Fatalf("old-format resume hello: want ErrBadTransport, got %v", err)
	}
}

// oldResumeHello is a complete version-2 resume hello as earlier builds sent
// it: the resume flag, then a receive count and a resume tag between the DH
// value and the trace, and a five-field limits block.
func oldResumeHello(id ConnID) []byte {
	body := binary.BigEndian.AppendUint16(nil, 0x4e54)
	body = append(body, 2, 0x02)
	body = append(body, id[:]...)
	body = appendString(body, "old")
	body = appendString(body, "")
	body = appendBytes(body, nil)
	body = binary.BigEndian.AppendUint64(body, 42)
	body = appendBytes(body, bytes.Repeat([]byte{0x5A}, 32))
	body = appendBytes(body, nil)
	body = append(body, 1, 2, 0)
	for _, v := range []uint32{MaxMuxPayload, 1 << 20, 64, 256 << 10, 15_000} {
		body = binary.BigEndian.AppendUint32(body, v)
	}
	msg := binary.BigEndian.AppendUint16(nil, 0x4e54)
	msg = binary.BigEndian.AppendUint32(msg, uint32(len(body)))
	return append(msg, body...)
}

// The type values of frames no build sends any more stay reserved: neither
// the wire reader nor the container demux accepts them.
func TestMuxHeaderRejectsReservedTypes(t *testing.T) {
	for _, typ := range []uint8{MuxAccept, MuxAck} {
		b := AppendMuxHeader(nil, typ, 1, 8)
		if _, err := ReadMuxHeader(bytes.NewReader(b)); !errors.Is(err, ErrBadTransport) {
			t.Fatalf("ReadMuxHeader type %d: want ErrBadTransport, got %v", typ, err)
		}
		if _, err := DecodeMuxHeader(b); !errors.Is(err, ErrBadTransport) {
			t.Fatalf("DecodeMuxHeader type %d: want ErrBadTransport, got %v", typ, err)
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
	for _, typ := range []uint8{MuxOpen, MuxReset, MuxData, MuxFin, MuxWindow, MuxPing, MuxPong} {
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
		Public:   testPublic,
		Versions: []uint8{3, 4},
		Ciphers:  []uint16{CipherAES256GCM, 7},
		Limits: Limits{
			MaxPayload:    32 << 10,
			InitialWindow: 512 << 10,
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
	if _, err := WriteTransportHello(&buf, &TransportHello{ID: id, Host: "d", Public: testPublic}); err != nil {
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
	b = binary.BigEndian.AppendUint64(b, 0) // receive count
	b = appendBytes(b, nil)                 // resume tag
	b = appendBytes(b, h.Trace)
	return b
}

func TestTransportHelloV1Refused(t *testing.T) {
	id, _ := NewConnID()
	h := &TransportHello{ID: id, Host: "old", Addr: "127.0.0.1:1", Public: testPublic}
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

// v2Hello is a complete hello as version-2 builds sent it: the layout is
// today's, but the version byte and list say 2 and Public is a 256-byte
// MODP group 14 value.
func v2Hello(id ConnID) []byte {
	var buf bytes.Buffer
	WriteTransportHello(&buf, &TransportHello{ID: id, Host: "old", Public: bytes.Repeat([]byte{0xAB}, 256), Versions: []uint8{2}, Ciphers: []uint16{CipherAES256GCM}})
	b := buf.Bytes()
	b[8] = 2 // the version byte follows the length prefix and the body magic
	return b
}

// A version-2 host is refused at decode just as a version-1 host is: two
// hosts of different versions get one typed error, not a transcript-tag
// mismatch after a key exchange one of them cannot do.
func TestTransportHelloV2Refused(t *testing.T) {
	id, _ := NewConnID()
	if _, _, err := ReadTransportHello(bytes.NewReader(v2Hello(id))); !errors.Is(err, ErrBadTransport) {
		t.Fatalf("version-2 hello: want ErrBadTransport, got %v", err)
	}
	// A version-2 version byte in front of an otherwise valid current body
	// is refused just the same.
	var buf bytes.Buffer
	if _, err := WriteTransportHello(&buf, &TransportHello{ID: id, Host: "h", Public: testPublic}); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()[6:]
	if _, err := decodeTransportHello(body); err != nil {
		t.Fatal(err)
	}
	body[2] = 2
	if _, err := decodeTransportHello(body); !errors.Is(err, ErrBadTransport) {
		t.Fatalf("version byte 2 on a current body: want ErrBadTransport, got %v", err)
	}
}

// v3Hello is a complete hello as version-3 builds sent it: today's layout
// and values, but the version byte and list say 3.
func v3Hello(id ConnID) []byte {
	var buf bytes.Buffer
	WriteTransportHello(&buf, &TransportHello{ID: id, Host: "old", Public: testPublic, Versions: []uint8{3}, Ciphers: []uint16{CipherAES256GCM}})
	b := buf.Bytes()
	b[8] = 3 // the version byte follows the length prefix and the body magic
	return b
}

// A version-3 host opens its connections with an ID message after its own
// data stream, and would wait for a version-4 acceptor's stream while that
// acceptor waits for its: the hello refuses it at decode instead, so mixed
// versions get one typed error, not an OpTimeout wait.
func TestTransportHelloV3Refused(t *testing.T) {
	id, _ := NewConnID()
	if _, _, err := ReadTransportHello(bytes.NewReader(v3Hello(id))); !errors.Is(err, ErrBadTransport) {
		t.Fatalf("version-3 hello: want ErrBadTransport, got %v", err)
	}
	// A version-3 version byte in front of an otherwise valid current body
	// is refused just the same.
	var buf bytes.Buffer
	if _, err := WriteTransportHello(&buf, &TransportHello{ID: id, Host: "h", Public: testPublic}); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()[6:]
	if _, err := decodeTransportHello(body); err != nil {
		t.Fatal(err)
	}
	body[2] = 3
	if _, err := decodeTransportHello(body); !errors.Is(err, ErrBadTransport) {
		t.Fatalf("version byte 3 on a current body: want ErrBadTransport, got %v", err)
	}
}

func TestDecodeHelloRejectsMalformedNegotiation(t *testing.T) {
	id, _ := NewConnID()
	base := func() []byte {
		var buf bytes.Buffer
		if _, err := WriteTransportHello(&buf, &TransportHello{ID: id, Host: "x", Public: testPublic}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()[6:] // strip magic + length prefix: raw body
	}
	valid := base()
	if _, err := decodeTransportHello(valid); err != nil {
		t.Fatal(err)
	}
	// The negotiation section is the final 2 + len(versions) + limitsSize
	// bytes.
	tail := 2 + len(SupportedVersions()) + limitsSize

	mutate := func(name string, f func(b []byte) []byte) {
		b := append([]byte(nil), valid...)
		if _, err := decodeTransportHello(f(b)); !errors.Is(err, ErrBadTransport) {
			t.Fatalf("%s: want ErrBadTransport, got %v", name, err)
		}
	}
	mutate("truncated version list", func(b []byte) []byte { return b[:len(b)-tail] })
	mutate("empty version list", func(b []byte) []byte {
		b[len(b)-tail] = 0
		return b[:len(b)-tail+1+1+limitsSize] // count byte, cipher count, limits
	})
	mutate("version zero", func(b []byte) []byte {
		b[len(b)-tail+1] = 0
		return b
	})
	mutate("truncated limits", func(b []byte) []byte { return b[:len(b)-1] })
	mutate("zero max payload", func(b []byte) []byte {
		copy(b[len(b)-12:], []byte{0, 0, 0, 0})
		return b
	})
	mutate("overflow window", func(b []byte) []byte {
		copy(b[len(b)-8:], []byte{0xFF, 0xFF, 0xFF, 0xFF})
		return b
	})
	mutate("cleartext in cipher list", func(b []byte) []byte {
		// Rebuild with one cipher whose id is 0.
		head := b[:len(b)-tail+1+len(SupportedVersions())]
		out := append([]byte(nil), head...)
		out = append(out, 1, 0, 0) // 1 cipher: 0x0000
		return append(out, b[len(b)-limitsSize:]...)
	})
}

func TestLimitsValidate(t *testing.T) {
	good := []Limits{
		DefaultLimits(),
		{MaxPayload: MaxMuxPayload, InitialWindow: DefaultInitialWindow},
		{MaxPayload: 64 << 10, InitialWindow: 1 << 20}, // the defaults of earlier builds
		{MaxPayload: minLimitPayload, InitialWindow: minLimitWindow},
	}
	for i, l := range good {
		if err := l.Validate(); err != nil {
			t.Fatalf("good case %d: %v", i, err)
		}
	}
	bad := []Limits{
		{MaxPayload: 0, InitialWindow: 1 << 20},
		{MaxPayload: MaxMuxPayload + 1, InitialWindow: 1 << 20},
		{MaxPayload: MaxMuxPayload, InitialWindow: 0},
		{MaxPayload: MaxMuxPayload, InitialWindow: 1 << 31},
		{MaxPayload: MaxMuxPayload, InitialWindow: 1 << 20, KeepaliveMs: 1 << 31},
	}
	for i, l := range bad {
		if err := l.Validate(); !errors.Is(err, ErrBadTransport) {
			t.Fatalf("case %d: want ErrBadTransport, got %v", i, err)
		}
	}
}

func TestNegotiate(t *testing.T) {
	v4 := func(ciphers []uint16, l Limits) *TransportHello {
		return &TransportHello{Versions: []uint8{3, 4}, Ciphers: ciphers, Limits: l}
	}
	small := Limits{MaxPayload: 16 << 10, InitialWindow: 256 << 10, KeepaliveMs: 4000}
	big := DefaultLimits()

	n, err := Negotiate(v4([]uint16{CipherAES256GCM}, big), v4([]uint16{CipherAES256GCM}, small))
	if err != nil {
		t.Fatal(err)
	}
	if n.Version != TransportVersion4 || n.Cipher != CipherAES256GCM {
		t.Fatalf("negotiated %+v", n)
	}
	if n.Limits != small {
		t.Fatalf("min-of-both limits: %+v", n.Limits)
	}

	// Highest common cipher wins, regardless of list order.
	n, _ = Negotiate(v4([]uint16{CipherAES256GCM, 9}, big), v4([]uint16{9, CipherAES256GCM}, big))
	if n.Cipher != 9 {
		t.Fatalf("highest common cipher: got %d", n.Cipher)
	}

	// Either side offering no ciphers yields cleartext.
	n, _ = Negotiate(v4(nil, big), v4([]uint16{CipherAES256GCM}, big))
	if n.Cipher != CipherCleartext {
		t.Fatalf("empty-list negotiation: got cipher %d", n.Cipher)
	}

	// Insecure mode can never negotiate a cipher.
	ins := v4([]uint16{CipherAES256GCM}, big)
	ins.Insecure = true
	n, _ = Negotiate(ins, v4([]uint16{CipherAES256GCM}, big))
	if n.Cipher != CipherCleartext {
		t.Fatalf("insecure negotiation: got cipher %d", n.Cipher)
	}

	// A peer whose list lacks version 4 is refused, from either side, even
	// though both lists name version 3.
	v3 := &TransportHello{Versions: []uint8{2, 3}, Limits: big}
	if _, err := Negotiate(v4([]uint16{CipherAES256GCM}, small), v3); !errors.Is(err, ErrBadTransport) {
		t.Fatalf("version-3-only peer: want ErrBadTransport, got %v", err)
	}
	if _, err := Negotiate(v3, v4([]uint16{CipherAES256GCM}, small)); !errors.Is(err, ErrBadTransport) {
		t.Fatalf("version-3-only local: want ErrBadTransport, got %v", err)
	}

	// No common version is a handshake failure.
	if _, err := Negotiate(v4(nil, big), &TransportHello{Versions: []uint8{7}}); !errors.Is(err, ErrBadTransport) {
		t.Fatalf("no common version: %v", err)
	}

	// Symmetry: both ends compute the identical agreement.
	a, b := v4([]uint16{9, CipherAES256GCM}, small), v4([]uint16{CipherAES256GCM, 9}, big)
	na, _ := Negotiate(a, b)
	nb, _ := Negotiate(b, a)
	if na != nb {
		t.Fatalf("asymmetric negotiation: %+v vs %+v", na, nb)
	}
}

// helloGolden is a secure hello as this build writes it with every
// negotiation field defaulted: it pins the version byte and version list
// (3), the 32-byte public value (RFC 7748's example public key of Alice),
// and, in the limits block at its tail, the default MaxPayload (64 KiB +
// 64), InitialWindow (2 MiB) and keepalive (15 s). A change to any of them
// changes what a peer must accept, so it changes this file.
const helloGolden = "testdata/hello-default-limits.hex"

func TestTransportHelloGolden(t *testing.T) {
	var id ConnID
	for i := range id {
		id[i] = byte(i + 1)
	}
	var buf bytes.Buffer
	public, _ := hex.DecodeString("8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a")
	if _, err := WriteTransportHello(&buf, &TransportHello{ID: id, Host: "h1", Addr: "127.0.0.1:7401", Public: public, Ciphers: []uint16{CipherAES256GCM}}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(helloGolden)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("%s: %v", helloGolden, err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("hello encodes as\n%x\nwant (%s)\n%x", buf.Bytes(), helloGolden, want)
	}
	h, _, err := ReadTransportHello(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if h.Limits != DefaultLimits() || h.Limits.MaxPayload != 64<<10+64 || h.Limits.InitialWindow != 2<<20 {
		t.Fatalf("golden hello limits %+v, want the defaults %+v", h.Limits, DefaultLimits())
	}
}

// A peer advertising the 64 KiB MaxPayload and 1 MiB window of earlier
// builds still negotiates; the session takes its smaller bounds.
func TestNegotiateWithEarlierLimits(t *testing.T) {
	local := &TransportHello{Versions: SupportedVersions(), Ciphers: []uint16{CipherAES256GCM}, Limits: DefaultLimits()}
	earlier := &TransportHello{Versions: SupportedVersions(), Ciphers: []uint16{CipherAES256GCM}, Limits: Limits{MaxPayload: 64 << 10, InitialWindow: 1 << 20, KeepaliveMs: 15_000}}
	for _, pair := range [][2]*TransportHello{{local, earlier}, {earlier, local}} {
		n, err := Negotiate(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if n.Limits != earlier.Limits || n.Cipher != CipherAES256GCM {
			t.Fatalf("negotiated %+v, want the earlier peer's limits %+v under AES-256-GCM", n, earlier.Limits)
		}
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
