package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// HandoffPurpose says why a data stream is arriving at a redirector
// (Section 3.4 of the paper).
type HandoffPurpose uint8

const (
	// HandoffInvalid is the zero value and never legal on the wire.
	HandoffInvalid HandoffPurpose = iota
	// HandoffConnect hands a brand-new data socket to the NapletServerSocket
	// of the target agent during connection setup.
	HandoffConnect
	// HandoffResume hands a replacement data socket to a suspended
	// NapletSocket during connection resume.
	HandoffResume
)

// String names the purpose.
func (p HandoffPurpose) String() string {
	switch p {
	case HandoffConnect:
		return "connect"
	case HandoffResume:
		return "resume"
	default:
		return fmt.Sprintf("HandoffPurpose(%d)", uint8(p))
	}
}

// HandoffHeader is the payload of the MuxOpen that opens a data stream,
// telling the redirector where to deliver it. For a resume the
// Token authenticates the caller under the connection's session key, so a
// third party cannot steal a suspended connection.
type HandoffHeader struct {
	Purpose HandoffPurpose
	// ConnID identifies the connection (both purposes).
	ConnID ConnID
	// TargetAgent is the resident agent being connected to (connect only).
	TargetAgent string
	// FromAgent is the dialing agent (connect only; resume identity is
	// established by the token).
	FromAgent string
	// Nonce feeds the resume token to prevent replay.
	Nonce uint64
	// Token = HMAC(sessionKey, canonical header bytes with zero token).
	Token [TagSize]byte
}

const handoffMagic = 0x4e48 // "NH"

// SigningBytes returns the canonical encoding of h with a zeroed token.
func (h *HandoffHeader) SigningBytes() []byte {
	saved := h.Token
	h.Token = [TagSize]byte{}
	b := h.encode()
	h.Token = saved
	return b
}

func (h *HandoffHeader) encode() []byte {
	b := make([]byte, 0, 64+len(h.TargetAgent)+len(h.FromAgent))
	b = binary.BigEndian.AppendUint16(b, handoffMagic)
	b = append(b, byte(h.Purpose))
	b = append(b, h.ConnID[:]...)
	b = appendString(b, h.TargetAgent)
	b = appendString(b, h.FromAgent)
	b = binary.BigEndian.AppendUint64(b, h.Nonce)
	b = append(b, h.Token[:]...)
	return b
}

// Write writes the header, length-prefixed, to w.
func (h *HandoffHeader) Write(w io.Writer) error {
	body := h.encode()
	var lenb [4]byte
	binary.BigEndian.PutUint32(lenb[:], uint32(len(body)))
	if _, err := w.Write(lenb[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// maxHandoffSize bounds a handoff header read so a garbage peer cannot make
// the acceptor allocate unbounded memory.
const maxHandoffSize = 4096

// ReadHandoffHeader reads a length-prefixed handoff header from r.
func ReadHandoffHeader(r io.Reader) (*HandoffHeader, error) {
	var lenb [4]byte
	if _, err := io.ReadFull(r, lenb[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(lenb[:])
	if n > maxHandoffSize {
		return nil, fmt.Errorf("%w: handoff header %d bytes", ErrBadControl, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return decodeHandoff(body)
}

func decodeHandoff(b []byte) (*HandoffHeader, error) {
	if len(b) < 2 || binary.BigEndian.Uint16(b) != handoffMagic {
		return nil, fmt.Errorf("%w: bad handoff magic", ErrBadControl)
	}
	b = b[2:]
	if len(b) < 1+16 {
		return nil, errShort
	}
	h := &HandoffHeader{Purpose: HandoffPurpose(b[0])}
	copy(h.ConnID[:], b[1:17])
	b = b[17:]
	var err error
	if h.TargetAgent, b, err = takeString(b); err != nil {
		return nil, err
	}
	if h.FromAgent, b, err = takeString(b); err != nil {
		return nil, err
	}
	if len(b) < 8 {
		return nil, errShort
	}
	h.Nonce = binary.BigEndian.Uint64(b)
	b = b[8:]
	if len(b) != TagSize {
		return nil, fmt.Errorf("%w: bad token length %d", ErrBadControl, len(b))
	}
	copy(h.Token[:], b)
	if h.Purpose != HandoffConnect && h.Purpose != HandoffResume {
		return nil, fmt.Errorf("%w: unknown purpose %d", ErrBadControl, h.Purpose)
	}
	return h, nil
}
