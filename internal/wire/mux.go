package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// This file defines the stream-multiplexing vocabulary of the shared
// per-host-pair transport: the hello exchanged when two hosts first meet,
// and the frames that carry many logical NapletSocket data streams over the
// one TCP connection between them. The mux layer is deliberately dumb — it
// knows streams, credits, and opaque payloads; which NapletSocket a stream
// belongs to is carried by the HandoffHeader riding inside MuxOpen, so the
// controller's handoff authorization (Section 3.4 of the paper) is unchanged.

// transportMagic are the first two bytes a transport dialer writes; the
// acceptor closes a connection that opens with anything else without
// reading further.
const transportMagic = 0x4e54 // "NT"

// TransportVersion4 is the transport protocol version: the hello carries a
// negotiation section — a supported-version list, a cipher-suite preference
// list, and a Limits block — and, when a cipher is agreed, every mux
// payload rides the sealed-record framing. A secure hello's Public is a
// 32-byte X25519 value (version 2 carried a 2048-bit MODP value in the same
// field). Version 4 changed no hello byte but the version: it marks the
// connection open in which the accepting host opens the data stream
// (version 3 hosts waited for the dialer's stream and an ID message, so the
// two would each wait for the other's stream). Both sides send the highest
// version they speak plus the full list; the effective version is the
// highest one both lists contain (see Negotiate). Downgrade protection is
// inherited from the handshake: the transcript tags cover the raw hello
// bytes, so a middlebox that rewrites either list breaks the tag on both
// sides. A hello with any other version byte is refused at decode, so a
// host of an earlier version gets a typed refusal rather than a
// transcript-tag mismatch or a stalled open.
const TransportVersion4 = 4

// SupportedVersions is the version list a hello advertises by default.
func SupportedVersions() []uint8 { return []uint8{TransportVersion4} }

// helloPublicSize is the length of a secure hello's Public: an X25519
// public value.
const helloPublicSize = 32

// Cipher suites negotiable in a hello, in wire form. Cleartext (0) is never
// sent in a cipher list; it is the result of negotiation when either side
// offers no suites (insecure mode, or encryption explicitly disabled).
const (
	CipherCleartext uint16 = 0
	// CipherAES256GCM seals every mux frame payload with AES-256-GCM under
	// per-direction keys derived from the transport secret (the stdlib
	// AEAD; hardware-accelerated on amd64/arm64).
	CipherAES256GCM uint16 = 1
)

// CipherName renders a cipher suite for the debug surface.
func CipherName(c uint16) string {
	switch c {
	case CipherCleartext:
		return "cleartext"
	case CipherAES256GCM:
		return "aes256gcm"
	default:
		return fmt.Sprintf("cipher(%d)", c)
	}
}

// Limits is the tunable-protocol block of a hello: advertised per hop so
// the effective limit is the minimum both ends accept. All bounds are
// validated at decode — a zero or overflowing limit from the network is a
// malformed hello, never a divide-by-zero or an unbounded allocation.
type Limits struct {
	// MaxPayload caps one mux frame's on-wire payload bytes (sealed
	// length when a cipher is active), within [1 KiB, MaxMuxPayload].
	MaxPayload uint32
	// InitialWindow is the per-stream credit window in each direction,
	// within [4 KiB, 1 GiB].
	InitialWindow uint32
	// KeepaliveMs is the advertised keepalive probe interval in
	// milliseconds; 0 means the sender does not probe.
	KeepaliveMs uint32
}

// DefaultLimits are the limits advertised when the caller sets nothing
// else.
func DefaultLimits() Limits {
	return Limits{
		MaxPayload:    MaxMuxPayload,
		InitialWindow: DefaultInitialWindow,
		KeepaliveMs:   15_000,
	}
}

// DefaultInitialWindow is the per-stream credit window a hello advertises by
// default. Negotiation takes the minimum of both sides', so it is also the
// largest window a session can end up with when the caller overrides
// nothing: the bound the layers above size their buffers from. 2 MiB keeps
// the two-CPU pipeline of a 64 KiB bulk stream busy: at 1 MiB it sat idle
// for over a third of each message's wall time, and 4 MiB, though faster in
// the median, made whole runs fall into a slow mode more often.
const DefaultInitialWindow = 2 << 20

// Limit bounds enforced at decode.
const (
	minLimitPayload = 1 << 10
	minLimitWindow  = 4 << 10
	maxLimitWindow  = 1 << 30
	maxKeepaliveMs  = 24 * 60 * 60 * 1000
)

// Validate checks every limit against its protocol bounds.
func (l Limits) Validate() error {
	switch {
	case l.MaxPayload < minLimitPayload || l.MaxPayload > MaxMuxPayload:
		return fmt.Errorf("%w: max payload %d outside [%d, %d]", ErrBadTransport, l.MaxPayload, minLimitPayload, MaxMuxPayload)
	case l.InitialWindow < minLimitWindow || l.InitialWindow > maxLimitWindow:
		return fmt.Errorf("%w: initial window %d outside [%d, %d]", ErrBadTransport, l.InitialWindow, minLimitWindow, maxLimitWindow)
	case l.KeepaliveMs > maxKeepaliveMs:
		return fmt.Errorf("%w: keepalive interval %dms above %dms", ErrBadTransport, l.KeepaliveMs, maxKeepaliveMs)
	}
	return nil
}

func minU32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

// Merge combines two advertised limit blocks into the effective set: the
// minimum of each bound, so neither side is ever pushed past what it
// offered. Keepalive merges to the smaller non-zero interval (a side that
// does not probe still answers pings, so the eager side's cadence wins).
func (l Limits) Merge(o Limits) Limits {
	ka := minU32(l.KeepaliveMs, o.KeepaliveMs)
	if ka == 0 {
		ka = l.KeepaliveMs + o.KeepaliveMs // one of them is zero
	}
	return Limits{
		MaxPayload:    minU32(l.MaxPayload, o.MaxPayload),
		InitialWindow: minU32(l.InitialWindow, o.InitialWindow),
		KeepaliveMs:   ka,
	}
}

// transportFlagInsecure marks a hello from a host running the paper's
// "w/o security" configuration; both sides must agree. It is the only flag:
// decode refuses a hello with any other bit set (0x02 and 0x04 marked the
// session-resumption hellos of earlier builds, which had no other use).
const transportFlagInsecure = 0x01

// limitsSize is the encoded length of a hello's Limits block.
const limitsSize = 12

// maxTransportHello bounds a hello read so a garbage peer cannot make the
// acceptor allocate unbounded memory. It leaves room for the host name,
// address and trace context, which dominate a hello's size.
const maxTransportHello = 4096

// TransportHello is the first message each side sends on a fresh transport
// connection. The dialer picks the transport id; the acceptor echoes it.
// Public carries the sender's ephemeral X25519 value (empty in insecure mode),
// and Addr advertises the sender's redirector address so the acceptor can
// reuse this transport for its own future dials to that host.
type TransportHello struct {
	ID       ConnID
	Insecure bool
	// Host is the sender's host name (diagnostics only).
	Host string
	// Addr is the sender's redirector address ("" when not listening).
	Addr string
	// Public is the sender's ephemeral X25519 public value: exactly 32
	// bytes in a secure hello, empty in an insecure one.
	Public []byte
	// Trace is the dialer's marshaled tracing span context (empty when
	// not tracing): a dial performed on behalf of a migration carries the
	// migration's trace so the acceptor's handshake span joins it.
	Trace []byte
	// Versions lists every protocol version the sender speaks.
	// Negotiation picks the highest version present in both lists.
	Versions []uint8
	// Ciphers lists the sender's acceptable cipher suites in preference
	// order. Empty means the sender cannot (insecure mode) or will not
	// (encryption disabled) seal records, and negotiation yields
	// CipherCleartext.
	Ciphers []uint16
	// Limits advertises the sender's protocol limits; the effective set
	// is the field-wise minimum of both sides (Limits.Merge).
	Limits Limits
}

// ErrBadTransport reports a malformed transport hello or mux frame.
var ErrBadTransport = errors.New("wire: malformed transport message")

// encode returns the canonical hello bytes (without the length prefix).
func (h *TransportHello) encode() []byte {
	b := make([]byte, 0, 32+len(h.Host)+len(h.Addr)+len(h.Public))
	b = binary.BigEndian.AppendUint16(b, transportMagic)
	b = append(b, TransportVersion4)
	var flags byte
	if h.Insecure {
		flags |= transportFlagInsecure
	}
	b = append(b, flags)
	b = append(b, h.ID[:]...)
	b = appendString(b, h.Host)
	b = appendString(b, h.Addr)
	b = appendBytes(b, h.Public)
	b = appendBytes(b, h.Trace)

	// Negotiation section. A zero-value hello still encodes a valid
	// advertisement: full version list, no ciphers, default limits.
	versions := h.Versions
	if len(versions) == 0 {
		versions = SupportedVersions()
	}
	b = append(b, byte(len(versions)))
	b = append(b, versions...)
	b = append(b, byte(len(h.Ciphers)))
	for _, c := range h.Ciphers {
		b = binary.BigEndian.AppendUint16(b, c)
	}
	limits := h.Limits
	if limits == (Limits{}) {
		limits = DefaultLimits()
	}
	b = binary.BigEndian.AppendUint32(b, limits.MaxPayload)
	b = binary.BigEndian.AppendUint32(b, limits.InitialWindow)
	b = binary.BigEndian.AppendUint32(b, limits.KeepaliveMs)
	return b
}

// WriteTransportHello writes the hello: the transport magic, a 4-byte body
// length, then the body. It returns the exact bytes written, which both
// sides feed into the handshake authentication tag.
func WriteTransportHello(w io.Writer, h *TransportHello) ([]byte, error) {
	body := h.encode()
	msg := make([]byte, 0, 6+len(body))
	msg = binary.BigEndian.AppendUint16(msg, transportMagic)
	msg = binary.BigEndian.AppendUint32(msg, uint32(len(body)))
	msg = append(msg, body...)
	if _, err := w.Write(msg); err != nil {
		return nil, err
	}
	return msg, nil
}

// ReadTransportHello reads a hello written by WriteTransportHello. It
// returns the decoded hello and the raw bytes read (for tag computation).
// The magic is checked as soon as its two bytes are in, so a foreign peer
// is refused on its first bytes instead of holding the read open until the
// caller's deadline.
func ReadTransportHello(r io.Reader) (*TransportHello, []byte, error) {
	var pre [6]byte
	if _, err := io.ReadFull(r, pre[:2]); err != nil {
		return nil, nil, err
	}
	if binary.BigEndian.Uint16(pre[:2]) != transportMagic {
		return nil, nil, fmt.Errorf("%w: bad hello magic %#04x", ErrBadTransport, binary.BigEndian.Uint16(pre[:2]))
	}
	if _, err := io.ReadFull(r, pre[2:]); err != nil {
		return nil, nil, err
	}
	n := binary.BigEndian.Uint32(pre[2:6])
	if n > maxTransportHello {
		return nil, nil, fmt.Errorf("%w: hello of %d bytes", ErrBadTransport, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, nil, err
	}
	h, err := decodeTransportHello(body)
	if err != nil {
		return nil, nil, err
	}
	raw := make([]byte, 0, 6+len(body))
	raw = append(raw, pre[:]...)
	raw = append(raw, body...)
	return h, raw, nil
}

func decodeTransportHello(b []byte) (*TransportHello, error) {
	if len(b) < 2 || binary.BigEndian.Uint16(b) != transportMagic {
		return nil, fmt.Errorf("%w: bad hello body magic", ErrBadTransport)
	}
	b = b[2:]
	if len(b) < 2+16 {
		return nil, fmt.Errorf("%w: truncated hello", ErrBadTransport)
	}
	if b[0] != TransportVersion4 {
		return nil, fmt.Errorf("%w: unsupported transport version %d", ErrBadTransport, b[0])
	}
	if b[1]&^transportFlagInsecure != 0 {
		return nil, fmt.Errorf("%w: unknown hello flags %#02x", ErrBadTransport, b[1]&^transportFlagInsecure)
	}
	h := &TransportHello{Insecure: b[1]&transportFlagInsecure != 0}
	copy(h.ID[:], b[2:18])
	b = b[18:]
	var err error
	if h.Host, b, err = takeString(b); err != nil {
		return nil, err
	}
	if h.Addr, b, err = takeString(b); err != nil {
		return nil, err
	}
	if h.Public, b, err = takeBytes(b); err != nil {
		return nil, err
	}
	switch {
	case h.Insecure && len(h.Public) != 0:
		return nil, fmt.Errorf("%w: insecure hello carries a %d-byte public value", ErrBadTransport, len(h.Public))
	case !h.Insecure && len(h.Public) != helloPublicSize:
		return nil, fmt.Errorf("%w: public value of %d bytes, want %d", ErrBadTransport, len(h.Public), helloPublicSize)
	}
	if h.Trace, b, err = takeBytes(b); err != nil {
		return nil, err
	}
	if len(b) < 1 {
		return nil, fmt.Errorf("%w: truncated hello version list", ErrBadTransport)
	}
	nv := int(b[0])
	b = b[1:]
	if nv == 0 {
		return nil, fmt.Errorf("%w: empty hello version list", ErrBadTransport)
	}
	if len(b) < nv {
		return nil, fmt.Errorf("%w: truncated hello version list", ErrBadTransport)
	}
	h.Versions = append([]uint8(nil), b[:nv]...)
	b = b[nv:]
	for _, v := range h.Versions {
		if v == 0 {
			return nil, fmt.Errorf("%w: version 0 in hello version list", ErrBadTransport)
		}
	}
	if len(b) < 1 {
		return nil, fmt.Errorf("%w: truncated hello cipher list", ErrBadTransport)
	}
	nc := int(b[0])
	b = b[1:]
	if len(b) < 2*nc {
		return nil, fmt.Errorf("%w: truncated hello cipher list", ErrBadTransport)
	}
	if nc > 0 {
		h.Ciphers = make([]uint16, nc)
		for i := range h.Ciphers {
			c := binary.BigEndian.Uint16(b[2*i:])
			if c == CipherCleartext {
				return nil, fmt.Errorf("%w: cleartext offered as a cipher suite", ErrBadTransport)
			}
			h.Ciphers[i] = c
		}
	}
	b = b[2*nc:]
	if len(b) < limitsSize {
		return nil, fmt.Errorf("%w: truncated hello limits", ErrBadTransport)
	}
	h.Limits = Limits{
		MaxPayload:    binary.BigEndian.Uint32(b[0:]),
		InitialWindow: binary.BigEndian.Uint32(b[4:]),
		KeepaliveMs:   binary.BigEndian.Uint32(b[8:]),
	}
	if err := h.Limits.Validate(); err != nil {
		return nil, err
	}
	b = b[limitsSize:]
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing hello bytes", ErrBadTransport, len(b))
	}
	return h, nil
}

// Negotiated is the protocol agreement two hellos resolve to.
type Negotiated struct {
	Version uint8
	Cipher  uint16
	Limits  Limits
}

// Negotiate resolves the local and remote hellos into the effective
// protocol: the highest supported version both lists contain, the
// highest-numbered cipher suite both offer (cleartext when either offers
// none or either side is insecure), and the field-wise minimum of both
// limit blocks.
// The function is symmetric — both ends compute the identical result —
// and the handshake transcript tags cover both raw hellos, so a
// middlebox that edits either side's advertisement breaks the handshake
// rather than steering the negotiation.
func Negotiate(local, remote *TransportHello) (Negotiated, error) {
	version := uint8(0)
	for _, v := range SupportedVersions() {
		if v > version && bytes.IndexByte(local.Versions, v) >= 0 && bytes.IndexByte(remote.Versions, v) >= 0 {
			version = v
		}
	}
	if version == 0 {
		return Negotiated{}, fmt.Errorf("%w: no common protocol version (local %v, remote %v)",
			ErrBadTransport, local.Versions, remote.Versions)
	}
	n := Negotiated{Version: version, Limits: local.Limits.Merge(remote.Limits)}
	if err := n.Limits.Validate(); err != nil {
		return Negotiated{}, err
	}
	if local.Insecure || remote.Insecure {
		return n, nil
	}
	for _, lc := range local.Ciphers {
		if lc <= n.Cipher {
			continue
		}
		for _, rc := range remote.Ciphers {
			if rc == lc {
				n.Cipher = lc
				break
			}
		}
	}
	return n, nil
}

// Mux frame types. Stream ids are chosen by the side opening the stream:
// the transport dialer uses odd ids, the acceptor even ids, so the two
// sides never collide without coordination.
const (
	// MuxOpen opens a stream; the payload is the length-prefixed
	// HandoffHeader naming and authenticating the logical connection. The
	// opener waits for no answer: it may write behind its own MuxOpen.
	MuxOpen uint8 = 1 + iota
	// MuxAccept is reserved (it confirmed a MuxOpen): never sent, not reused.
	MuxAccept
	// MuxReset kills a stream in either direction; the payload is an
	// optional reason string. A reset answering MuxOpen is a refusal.
	MuxReset
	// MuxData carries stream payload bytes, bounded by the receiver's
	// credit window.
	MuxData
	// MuxFin half-closes the sender's direction of the stream.
	MuxFin
	// MuxWindow grants the peer more send credit; the payload is a 4-byte
	// big-endian byte count.
	MuxWindow
	// MuxPing probes transport liveness and samples the path RTT; it has
	// no payload.
	MuxPing
	// MuxPong answers a ping, with no payload.
	MuxPong
	// MuxAck is reserved (it acknowledged frames for a transport-level
	// replay log): never sent, not reused, refused by both decoders.
	MuxAck
	// MuxSealed wraps one AEAD record on encrypted sessions: the payload
	// is a sealed container whose plaintext is a sequence of complete mux
	// frames (header + payload), so one GCM pass amortises over many
	// small frames. Never valid inside another container (DecodeMuxHeader
	// rejects it) and never valid on a cleartext session.
	MuxSealed
)

// MaxMuxPayload bounds one mux frame's payload; stream writes larger than
// this are split by the transport layer. It is 64 KiB plus 64 bytes of
// headroom: enough for one full data-plane segment (a 64 KiB message and
// its 16-byte frame header) to travel as one mux frame even when sealed —
// the inner mux header and the AEAD tag come out of the same budget — so a
// bulk message costs one container, one seal and one open, not two. It
// matches the payload pool's 64 KiB class so inbound data segments recycle
// through the pool instead of falling into the top class; it also bounds
// how long one bulk stream's frame can occupy the shared wire ahead of its
// siblings.
const MaxMuxPayload = 64<<10 + 64

// reservedMuxType reports the type values no build sends any more.
func reservedMuxType(typ uint8) bool { return typ == MuxAccept || typ == MuxAck }

// MuxHeaderSize is the fixed mux frame header length:
//
//	type   uint8
//	stream uint64
//	length uint32
//
// No per-frame magic: frames follow the authenticated hello exchange on a
// trusted byte stream, and any desynchronization kills the whole transport.
const MuxHeaderSize = 1 + 8 + 4

// MuxHeader is a decoded mux frame header; the payload follows on the wire.
type MuxHeader struct {
	Type   uint8
	Stream uint64
	Length uint32
}

// AppendMuxHeader encodes a mux frame header onto b.
func AppendMuxHeader(b []byte, typ uint8, stream uint64, length int) []byte {
	b = append(b, typ)
	b = binary.BigEndian.AppendUint64(b, stream)
	return binary.BigEndian.AppendUint32(b, uint32(length))
}

// ReadMuxHeader decodes the next mux frame header from r, validating the
// type and payload bound.
func ReadMuxHeader(r io.Reader) (MuxHeader, error) {
	var hdr [MuxHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return MuxHeader{}, err
	}
	h := MuxHeader{
		Type:   hdr[0],
		Stream: binary.BigEndian.Uint64(hdr[1:9]),
		Length: binary.BigEndian.Uint32(hdr[9:13]),
	}
	if h.Type < MuxOpen || h.Type > MuxSealed || reservedMuxType(h.Type) {
		return MuxHeader{}, fmt.Errorf("%w: unknown mux frame type %d", ErrBadTransport, h.Type)
	}
	if h.Length > MaxMuxPayload {
		return MuxHeader{}, fmt.Errorf("%w: mux payload %d exceeds limit %d", ErrBadTransport, h.Length, MaxMuxPayload)
	}
	return h, nil
}

// DecodeMuxHeader decodes a mux frame header from the front of an opened
// MuxSealed container. Containers never nest, so MuxSealed itself is
// rejected here along with unknown types and oversized payloads.
func DecodeMuxHeader(b []byte) (MuxHeader, error) {
	if len(b) < MuxHeaderSize {
		return MuxHeader{}, fmt.Errorf("%w: truncated inner mux header (%d bytes)", ErrBadTransport, len(b))
	}
	h := MuxHeader{
		Type:   b[0],
		Stream: binary.BigEndian.Uint64(b[1:9]),
		Length: binary.BigEndian.Uint32(b[9:13]),
	}
	if h.Type < MuxOpen || h.Type >= MuxSealed || reservedMuxType(h.Type) {
		return MuxHeader{}, fmt.Errorf("%w: unknown inner mux frame type %d", ErrBadTransport, h.Type)
	}
	if h.Length > MaxMuxPayload {
		return MuxHeader{}, fmt.Errorf("%w: inner mux payload %d exceeds limit %d", ErrBadTransport, h.Length, MaxMuxPayload)
	}
	return h, nil
}
