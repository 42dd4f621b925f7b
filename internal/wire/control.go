package wire

import (
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
)

// MsgType enumerates the control messages of the NapletSocket protocol
// (Figure 3 of the paper). Requests travel from the initiating controller to
// its peer; verdicts travel back as the reply of the reliable-UDP exchange.
type MsgType uint8

const (
	// MsgInvalid is the zero value and never legal on the wire.
	MsgInvalid MsgType = iota

	// MsgConnect asks the peer controller to establish a new connection to
	// a resident agent (CONNECT in the paper). Its payload carries the
	// initiator's DH public key; the ACK carries the responder's.
	MsgConnect
	// MsgIDExchange completes establishment: the client reports its own
	// socket id after receiving the server's ACK+id.
	MsgIDExchange
	// MsgSuspend asks the peer to suspend the connection (SUS).
	MsgSuspend
	// MsgSusRes tells a peer whose suspend was parked with ACK_WAIT that the
	// high-priority migration finished and its blocked suspend may complete
	// (SUS_RES).
	MsgSusRes
	// MsgResume asks the peer to resume a suspended connection (RES). The
	// DataAddr field carries the mover's new redirector address.
	MsgResume
	// MsgClose asks the peer to close the connection (CLS).
	MsgClose
)

// String returns the paper's name for the message type.
func (t MsgType) String() string {
	switch t {
	case MsgConnect:
		return "CONNECT"
	case MsgIDExchange:
		return "ID"
	case MsgSuspend:
		return "SUS"
	case MsgSusRes:
		return "SUS_RES"
	case MsgResume:
		return "RES"
	case MsgClose:
		return "CLS"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Verdict is the peer controller's reply to a control request.
type Verdict uint8

const (
	// VerdictInvalid is the zero value and never legal on the wire.
	VerdictInvalid Verdict = iota
	// VerdictAck grants the request (ACK).
	VerdictAck
	// VerdictAckWait grants a suspend but tells the low-priority requester
	// to wait until the high-priority peer finishes migrating (ACK_WAIT,
	// overlapped concurrent migration).
	VerdictAckWait
	// VerdictResumeWait parks a resume because the replier has a blocked
	// suspend of its own to finish first (RESUME_WAIT, non-overlapped
	// concurrent migration).
	VerdictResumeWait
	// VerdictReject denies the request (bad authentication, unknown
	// connection, policy denial, or illegal state).
	VerdictReject
)

// String returns the paper's name for the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictAck:
		return "ACK"
	case VerdictAckWait:
		return "ACK_WAIT"
	case VerdictResumeWait:
		return "RESUME_WAIT"
	case VerdictReject:
		return "REJECT"
	default:
		return fmt.Sprintf("Verdict(%d)", uint8(v))
	}
}

// RejectCode says what a VerdictReject means for the requester's next step.
// It is the part of a rejection the protocol acts on; Reason is for logs.
type RejectCode uint8

const (
	// RejectOther is a refusal that retrying will not change (policy,
	// malformed request, failed authentication). It is the zero value and
	// the only code legal beside a verdict other than VerdictReject.
	RejectOther RejectCode = iota
	// RejectUnknownConn means the replier's host does not hold the
	// connection: the peer agent moved on, has not landed, or closed it.
	RejectUnknownConn
	// RejectRetry means the replier cannot serve the request in its current
	// state but expects to shortly.
	RejectRetry
	// RejectResumeRace means both sides resumed at once and the replier's
	// own RES takes precedence; it will complete the connection.
	RejectResumeRace
)

// TagSize is the length of the HMAC-SHA256 authentication tag on control
// messages.
const TagSize = 32

// ControlMsg is a control-channel request. Every message names the
// connection it operates on and the agents at both ends; messages past
// establishment are authenticated with an HMAC keyed by the connection's
// secret session key (Section 3.3 of the paper).
type ControlMsg struct {
	Type   MsgType
	ConnID ConnID
	// From and To are the agent ids of the sender and intended receiver.
	From, To string
	// Nonce is a strictly increasing per-connection counter used for replay
	// protection of authenticated operations.
	Nonce uint64
	// DataAddr is the redirector address the receiver should use to reach
	// the sender's data plane (set on MsgResume, and on MsgConnect for the
	// client's own redirector).
	DataAddr string
	// ControlAddr is the sender's control-channel address; a mover includes
	// it on MsgResume and MsgSusRes so the peer can reach it at its new
	// host.
	ControlAddr string
	// LastSeq carries a data-stream high-water mark where relevant.
	LastSeq uint64
	// TransportID names the shared per-host-pair transport the sender
	// reached the receiver's host through (set on MsgConnect): both sides
	// derive the connection's session key from that transport's secret,
	// amortising the Diffie-Hellman exchange across every stream the
	// transport carries. Zero in insecure mode.
	TransportID ConnID
	// TraceID and SpanID propagate the sender's tracing context so the
	// suspend/resume exchanges of one migration form a single cross-host
	// trace (observability extension, not part of the paper protocol).
	// All-zero when the sender is not tracing; covered by the HMAC like
	// every other field.
	TraceID [16]byte
	SpanID  [8]byte
	// LocEpoch is the sender's location epoch in the naming service: a
	// mover stamps its post-migration epoch on MsgResume and MsgSusRes so
	// the peer can advance (or epoch-guard-invalidate) its location cache
	// without re-consulting the registry. Zero when unknown, which peers
	// must treat as "invalidate unconditionally".
	LocEpoch uint64
	// Payload carries message-specific bytes.
	Payload []byte
	// Tag authenticates the message; all-zero for messages sent before a
	// session key exists (connect and id-exchange).
	Tag [TagSize]byte
}

// ControlReply is the response half of a control exchange.
type ControlReply struct {
	Verdict Verdict
	// Code classifies a VerdictReject; requesters branch on it, never on
	// Reason.
	Code   RejectCode
	ConnID ConnID
	// Reason is a human-readable explanation for VerdictReject.
	Reason string
	// LastSeq carries the replier's delivered data high-water mark on
	// resume acks, so the mover can retransmit anything the replier never
	// received (failure-recovery extension).
	LastSeq uint64
	// Payload carries reply-specific bytes.
	Payload []byte
	// Tag authenticates the reply under the session key, mirroring the
	// request tag.
	Tag [TagSize]byte
}

const controlMagic = 0x4e43 // "NC"

// Encoded sizes with every variable field empty (each term a field, in wire
// order), so that Encode sizes its buffer exactly.
const (
	controlMsgFixed   = 2 + 1 + 16 + 4*2 + 8 + 8 + 16 + 16 + 8 + 8 + 4 + TagSize
	controlReplyFixed = 2 + 1 + 1 + 16 + 2 + 8 + 4 + TagSize
)

var (
	// ErrBadControl reports a malformed control message or reply.
	ErrBadControl = errors.New("wire: malformed control message")
	// errShort reports truncated input during decoding.
	errShort = fmt.Errorf("%w: truncated", ErrBadControl)
)

// appendString appends a length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// appendBytes appends a length-prefixed byte slice.
func appendBytes(b []byte, p []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(p)))
	return append(b, p...)
}

func takeString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, errShort
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return "", nil, errShort
	}
	return string(b[:n]), b[n:], nil
}

func takeBytes(b []byte) ([]byte, []byte, error) {
	if len(b) < 4 {
		return nil, nil, errShort
	}
	n := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	if len(b) < n {
		return nil, nil, errShort
	}
	if n == 0 {
		return nil, b, nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out, b[n:], nil
}

// MAC is the signing half of a session authenticator (*dhkx.Authenticator).
type MAC interface {
	Sign(msg []byte) [TagSize]byte
}

// SignEncoded signs b — Encode's output for a message or reply whose Tag is
// zero — in place: the tag is the trailing TagSize bytes and covers the
// encoding with those bytes zero, so one encoding serves to sign and to send.
func SignEncoded(b []byte, mac MAC) []byte {
	tag := mac.Sign(b)
	copy(b[len(b)-TagSize:], tag[:])
	return b
}

// VerifyEncoded checks the trailing tag of b, a message or reply as
// received, over the received bytes (zeroed at the tag for the computation,
// then restored). The decoders accept only the canonical encoding, so this
// is the verdict re-encoding the decoded message would give.
func VerifyEncoded(b []byte, mac MAC) bool {
	if len(b) < TagSize {
		return false
	}
	tail := b[len(b)-TagSize:]
	tag := [TagSize]byte(tail)
	clear(tail)
	want := mac.Sign(b)
	copy(tail, tag[:])
	return subtle.ConstantTimeCompare(want[:], tag[:]) == 1
}

// SigningBytes returns the canonical encoding of m with a zeroed tag; it is
// the input to the session HMAC.
func (m *ControlMsg) SigningBytes() []byte {
	b := m.Encode()
	clear(b[len(b)-TagSize:])
	return b
}

// Encode returns the canonical wire encoding of m.
func (m *ControlMsg) Encode() []byte {
	b := make([]byte, 0, controlMsgFixed+len(m.From)+len(m.To)+len(m.DataAddr)+len(m.ControlAddr)+len(m.Payload))
	b = binary.BigEndian.AppendUint16(b, controlMagic)
	b = append(b, byte(m.Type))
	b = append(b, m.ConnID[:]...)
	b = appendString(b, m.From)
	b = appendString(b, m.To)
	b = binary.BigEndian.AppendUint64(b, m.Nonce)
	b = appendString(b, m.DataAddr)
	b = appendString(b, m.ControlAddr)
	b = binary.BigEndian.AppendUint64(b, m.LastSeq)
	b = append(b, m.TransportID[:]...)
	b = append(b, m.TraceID[:]...)
	b = append(b, m.SpanID[:]...)
	b = binary.BigEndian.AppendUint64(b, m.LocEpoch)
	b = appendBytes(b, m.Payload)
	b = append(b, m.Tag[:]...)
	return b
}

// DecodeControlMsg parses a canonical control message.
func DecodeControlMsg(b []byte) (*ControlMsg, error) {
	if len(b) < 2 || binary.BigEndian.Uint16(b) != controlMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadControl)
	}
	b = b[2:]
	if len(b) < 1+16 {
		return nil, errShort
	}
	m := &ControlMsg{Type: MsgType(b[0])}
	copy(m.ConnID[:], b[1:17])
	b = b[17:]
	var err error
	if m.From, b, err = takeString(b); err != nil {
		return nil, err
	}
	if m.To, b, err = takeString(b); err != nil {
		return nil, err
	}
	if len(b) < 8 {
		return nil, errShort
	}
	m.Nonce = binary.BigEndian.Uint64(b)
	b = b[8:]
	if m.DataAddr, b, err = takeString(b); err != nil {
		return nil, err
	}
	if m.ControlAddr, b, err = takeString(b); err != nil {
		return nil, err
	}
	if len(b) < 8 {
		return nil, errShort
	}
	m.LastSeq = binary.BigEndian.Uint64(b)
	b = b[8:]
	if len(b) < 16 {
		return nil, errShort
	}
	copy(m.TransportID[:], b[:16])
	b = b[16:]
	if len(b) < 16+8 {
		return nil, errShort
	}
	copy(m.TraceID[:], b[:16])
	copy(m.SpanID[:], b[16:24])
	b = b[24:]
	if len(b) < 8 {
		return nil, errShort
	}
	m.LocEpoch = binary.BigEndian.Uint64(b)
	b = b[8:]
	if m.Payload, b, err = takeBytes(b); err != nil {
		return nil, err
	}
	if len(b) != TagSize {
		return nil, fmt.Errorf("%w: bad tag length %d", ErrBadControl, len(b))
	}
	copy(m.Tag[:], b)
	if m.Type == MsgInvalid || m.Type > MsgClose {
		return nil, fmt.Errorf("%w: unknown type %d", ErrBadControl, m.Type)
	}
	return m, nil
}

// Encode returns the canonical wire encoding of r.
func (r *ControlReply) Encode() []byte {
	b := make([]byte, 0, controlReplyFixed+len(r.Reason)+len(r.Payload))
	b = binary.BigEndian.AppendUint16(b, controlMagic)
	b = append(b, byte(r.Verdict), byte(r.Code))
	b = append(b, r.ConnID[:]...)
	b = appendString(b, r.Reason)
	b = binary.BigEndian.AppendUint64(b, r.LastSeq)
	b = appendBytes(b, r.Payload)
	b = append(b, r.Tag[:]...)
	return b
}

// DecodeControlReply parses a canonical control reply.
func DecodeControlReply(b []byte) (*ControlReply, error) {
	if len(b) < 2 || binary.BigEndian.Uint16(b) != controlMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadControl)
	}
	b = b[2:]
	if len(b) < 2+16 {
		return nil, errShort
	}
	r := &ControlReply{Verdict: Verdict(b[0]), Code: RejectCode(b[1])}
	copy(r.ConnID[:], b[2:18])
	b = b[18:]
	var err error
	if r.Reason, b, err = takeString(b); err != nil {
		return nil, err
	}
	if len(b) < 8 {
		return nil, errShort
	}
	r.LastSeq = binary.BigEndian.Uint64(b)
	b = b[8:]
	if r.Payload, b, err = takeBytes(b); err != nil {
		return nil, err
	}
	if len(b) != TagSize {
		return nil, fmt.Errorf("%w: bad tag length %d", ErrBadControl, len(b))
	}
	copy(r.Tag[:], b)
	if r.Verdict == VerdictInvalid || r.Verdict > VerdictReject {
		return nil, fmt.Errorf("%w: unknown verdict %d", ErrBadControl, r.Verdict)
	}
	if r.Code > RejectResumeRace || (r.Code != RejectOther && r.Verdict != VerdictReject) {
		return nil, fmt.Errorf("%w: reject code %d on verdict %s", ErrBadControl, r.Code, r.Verdict)
	}
	return r, nil
}
