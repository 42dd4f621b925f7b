package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"naplet/internal/dhkx"
	"naplet/internal/wire"
)

// This file is the one serialized form of a connection endpoint: what a
// migration blob carries (PreDepart/PostArrive) and what the journal holds
// (journalRecord/RecoverConns). It is written by hand and flat: fixed
// scalars, length-prefixed strings, then the receive buffer and the send log
// as the runs of encoded frames the connection already holds, appended
// segment by segment and, on the way back, checked where they lie and copied
// once into pooled segments. DESIGN.md has the byte layout.

const (
	connStateMagic = 0x4e4b // "NK"
	hookBlobMagic  = 0x4e42 // "NB"
	stateVersion   = 1

	// maxStateString bounds an agent id or an address, as the control
	// messages that carry the same strings do.
	maxStateString = math.MaxUint16
	// maxStateTrace bounds the opaque span context of a blob.
	maxStateTrace = 255
	// maxRecvRun bounds a record's receive run: the buffer's own bound plus
	// what a suspend drain, which lifts that bound, can add to it — the
	// peer's stream window and the frames it had pending.
	maxRecvRun = 2 * maxRecvBuffer

	// connStateFixedMax is the most a record takes beside its strings, key
	// and runs: magic, version, flags, id, four counters and seven length
	// prefixes at their widest, and the header of the tail frame.
	connStateFixedMax = 4 + 16 + 11*binary.MaxVarintLen64 + wire.FrameHeaderSize
	// connStateMin is the least a record takes: empty strings and runs.
	connStateMin = 4 + 16 + 4 + 1 + dhkx.KeySize + 4 + 2
	// blobHeaderSize is the fixed head of a hook blob: magic, version,
	// flags, departure time, connection count, backlog count.
	blobHeaderSize = 2 + 1 + 1 + 8 + 4 + 4
)

// connState flag bits.
const (
	stOwesSusRes = 1 << iota
	stAccepted
	stPeerClosed
	// stTail: the receive run's first frame is Leftover under LeftoverSeq.
	stTail
	stTailVia
	stFlagsEnd
)

// blobListener is the one hook-blob flag bit.
const blobListener = 1

var (
	// errBadState reports a record or blob that fails validation; nothing of
	// it is restored.
	errBadState = errors.New("napletsocket: malformed connection state")
	// errPreV1State reports bytes that do not start with the magic: the
	// output of a binary that predates this form.
	errPreV1State = fmt.Errorf("%w: no v1 magic", errBadState)
)

// connState is one connection endpoint at rest. RecvBuf and SendLog are the
// receive buffer and the send log as the connection holds them — runs of
// whole encoded frames, oldest first, in as many pieces as there were
// segments (a decoded state has one) — and alias their source: the live
// segments, so the caller encodes before releasing mu, or the decoded bytes.
// The buffered data inside RecvBuf is the migrating NapletInputStream of
// Section 3.1 — the paper's guarantee that data in transmission moves with
// the agent.
type connState struct {
	ID                        [16]byte
	LocalAgent, RemoteAgent   string
	SessionKey                []byte
	NextSendSeq, LastEnqueued uint64
	RecvBuf                   [][]byte
	// Leftover is the unread rest of a half-read message, LeftoverSeq the
	// sequence number it was delivered under, and LeftoverBuf whether it had
	// already crossed a migration in the buffer (Fig 7's provenance of the
	// bytes served so far). Encoded, it leads the receive run as a frame of
	// its own.
	Leftover                 []byte
	LeftoverSeq              uint64
	LeftoverBuf              bool
	SendLog                  [][]byte
	PeerControlAddr          string
	PeerDataAddr             string
	SendNonce, LastPeerNonce uint64
	OwesSusRes               bool
	Accepted                 bool
	// PeerClosed marks an endpoint the peer closed while unread data sat in
	// RecvBuf: it travels so the agent can read that data, then EOF, at its
	// new host; there is nothing left to resume.
	PeerClosed bool
}

// hookBlob is the controller's contribution to a migration bundle.
type hookBlob struct {
	Conns       []connState
	HasListener bool
	// Backlog lists queued-but-unaccepted connection ids, to repopulate
	// the restored server socket's accept queue.
	Backlog [][16]byte
	// Trace is the marshaled span context of the origin's depart span, so
	// the destination's arrival spans join the same migration trace.
	Trace []byte
	// DepartedAt is the origin's clock when the blob was sealed; the
	// arrival side uses it to attribute the in-flight gap.
	DepartedAt time.Time
}

func piecesLen(pieces [][]byte) (n int) {
	for _, p := range pieces {
		n += len(p)
	}
	return n
}

func appendPrefixed[T string | []byte](dst []byte, v T) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	return append(dst, v...)
}

// appendTo appends the record: one append per piece of a run.
func (st *connState) appendTo(dst []byte) []byte {
	recv, send := piecesLen(st.RecvBuf), piecesLen(st.SendLog)
	tail := len(st.Leftover) > 0
	if tail {
		recv += wire.FrameHeaderSize + len(st.Leftover)
	}
	dst = slices.Grow(dst, connStateFixedMax+len(st.SessionKey)+len(st.LocalAgent)+len(st.RemoteAgent)+
		len(st.PeerControlAddr)+len(st.PeerDataAddr)+recv+send)

	var flags byte
	for i, set := range [...]bool{st.OwesSusRes, st.Accepted, st.PeerClosed, tail, st.LeftoverBuf} {
		if set {
			flags |= 1 << i
		}
	}
	dst = binary.BigEndian.AppendUint16(dst, connStateMagic)
	dst = append(dst, stateVersion, flags)
	dst = append(dst, st.ID[:]...)
	for _, v := range [...]uint64{st.NextSendSeq, st.LastEnqueued, st.SendNonce, st.LastPeerNonce} {
		dst = binary.AppendUvarint(dst, v)
	}
	dst = appendPrefixed(dst, st.SessionKey)
	for _, s := range [...]string{st.LocalAgent, st.RemoteAgent, st.PeerControlAddr, st.PeerDataAddr} {
		dst = appendPrefixed(dst, s)
	}
	dst = binary.AppendUvarint(dst, uint64(recv))
	if tail {
		// A remainder is shorter than the frame it is the rest of.
		dst, _ = wire.AppendFrame(dst, wire.Frame{Seq: st.LeftoverSeq, Flags: wire.FlagData, Payload: st.Leftover})
	}
	for _, p := range st.RecvBuf {
		dst = append(dst, p...)
	}
	dst = binary.AppendUvarint(dst, uint64(send))
	for _, p := range st.SendLog {
		dst = append(dst, p...)
	}
	return dst
}

// beginBlob starts a hook blob; the connection records are appended to it,
// and sealBlob finishes it.
func beginBlob(trace []byte) []byte {
	b := make([]byte, blobHeaderSize, blobHeaderSize+1+len(trace))
	binary.BigEndian.PutUint16(b, hookBlobMagic)
	b[2] = stateVersion
	return appendPrefixed(b, trace)
}

// sealBlob finishes a blob begun by beginBlob, after conns records have been
// appended to it: the backlog goes on the end and the counts, the listener
// flag and the departure time into the header.
func sealBlob(b []byte, conns int, listener bool, backlog [][16]byte, departed time.Time) []byte {
	if listener {
		b[3] = blobListener
	}
	if !departed.IsZero() {
		binary.BigEndian.PutUint64(b[4:], uint64(departed.UnixNano()))
	}
	binary.BigEndian.PutUint32(b[12:], uint32(conns))
	binary.BigEndian.PutUint32(b[16:], uint32(len(backlog)))
	for i := range backlog {
		b = append(b, backlog[i][:]...)
	}
	return b
}

// stateReader consumes a record front to back; the first failure sticks, so
// a decoder reads every field and checks once.
type stateReader struct {
	b   []byte
	err error
}

func (r *stateReader) failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", errBadState, fmt.Sprintf(format, args...))
	}
}

// take returns the next n bytes, aliasing the input.
func (r *stateReader) take(n uint64, what string) []byte {
	if r.err == nil && n > uint64(len(r.b)) {
		r.failf("%s of %d bytes with %d left", what, n, len(r.b))
	}
	if r.err != nil {
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

// uvarint reads a varint in its shortest form: the only one appendTo writes,
// so that a state has one encoding.
func (r *stateReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 || n > 1 && r.b[n-1] == 0 {
		r.failf("%s: bad varint", what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// prefixed reads a length-prefixed field of at most limit bytes. The length
// is checked against the bytes left before anything is made of it.
func (r *stateReader) prefixed(limit int, what string) []byte {
	n := r.uvarint(what)
	if n > uint64(limit) {
		r.failf("%s of %d bytes exceeds %d", what, n, limit)
	}
	return r.take(n, what)
}

// takeConnState decodes and validates the record at the head of b and
// returns what follows it. The state aliases b.
func takeConnState(b []byte) (st connState, rest []byte, err error) {
	if len(b) < 2 || binary.BigEndian.Uint16(b) != connStateMagic {
		return st, nil, errPreV1State
	}
	r := stateReader{b: b[2:]}
	head := r.take(2, "version and flags")
	switch {
	case r.err != nil:
	case head[0] != stateVersion:
		r.failf("unsupported version %d", head[0])
	case head[1] >= stFlagsEnd:
		r.failf("unknown flags %#x", head[1])
	}
	if r.err != nil {
		return st, nil, r.err
	}
	flags := head[1]
	st.OwesSusRes = flags&stOwesSusRes != 0
	st.Accepted = flags&stAccepted != 0
	st.PeerClosed = flags&stPeerClosed != 0
	st.LeftoverBuf = flags&stTailVia != 0

	copy(st.ID[:], r.take(16, "connection id"))
	st.NextSendSeq = r.uvarint("next send seq")
	st.LastEnqueued = r.uvarint("last enqueued")
	st.SendNonce = r.uvarint("send nonce")
	st.LastPeerNonce = r.uvarint("last peer nonce")
	st.SessionKey = r.prefixed(dhkx.KeySize, "session key")
	st.LocalAgent = string(r.prefixed(maxStateString, "local agent"))
	st.RemoteAgent = string(r.prefixed(maxStateString, "remote agent"))
	st.PeerControlAddr = string(r.prefixed(maxStateString, "peer control address"))
	st.PeerDataAddr = string(r.prefixed(maxStateString, "peer data address"))
	recv := r.prefixed(maxRecvRun, "receive run")
	send := r.prefixed(maxSendLog, "send run")
	switch {
	case r.err != nil:
	case len(st.SessionKey) != dhkx.KeySize:
		r.failf("session key of %d bytes, want %d", len(st.SessionKey), dhkx.KeySize)
	case st.NextSendSeq == 0:
		r.failf("next send seq 0")
	case flags&stTailVia != 0 && flags&stTail == 0:
		r.failf("tail provenance without a tail")
	case st.PeerClosed && len(recv) == 0:
		r.failf("peer-closed endpoint with nothing left to read")
	}
	if r.err != nil {
		return connState{}, nil, r.err
	}

	if err := checkRecvRun(recv, st.LastEnqueued); err != nil {
		return connState{}, nil, err
	}
	if flags&stTail != 0 {
		f, size, _ := wire.PeekFrame(recv)
		if size == 0 || f.Flags != wire.FlagData || len(f.Payload) == 0 {
			return connState{}, nil, fmt.Errorf("%w: receive run does not start with a tail frame", errBadState)
		}
		st.Leftover, st.LeftoverSeq, recv = f.Payload, f.Seq, recv[size:]
	}
	if err := checkSendRun(send, st.NextSendSeq); err != nil {
		return connState{}, nil, err
	}
	if len(recv) > 0 {
		st.RecvBuf = [][]byte{recv}
	}
	if len(send) > 0 {
		st.SendLog = [][]byte{send}
	}
	return st, r.b, nil
}

// checkRecvRun walks a receive run to its end. What counts as data is what
// the pump admitted as data; a run may also hold voided duplicates and flush
// markers, carried verbatim, but its data frames ascend and it ends with the
// one lastEnqueued names.
func checkRecvRun(run []byte, lastEnqueued uint64) error {
	var last uint64
	seen, data := false, false
	for off := 0; off < len(run); {
		f, size, err := wire.PeekFrame(run[off:])
		if err != nil {
			return fmt.Errorf("%w: receive run at %d: %v", errBadState, off, err)
		}
		if size == 0 {
			return fmt.Errorf("%w: receive run ends inside the frame at %d", errBadState, off)
		}
		if data = f.IsData() && !f.IsFlush(); data {
			if seen && f.Seq <= last {
				return fmt.Errorf("%w: receive run: seq %d after %d", errBadState, f.Seq, last)
			}
			last, seen = f.Seq, true
		}
		off += size
	}
	if len(run) > 0 && (!data || last != lastEnqueued) {
		return fmt.Errorf("%w: receive run ends at seq %d (a data frame: %v), last enqueued is %d",
			errBadState, last, data, lastEnqueued)
	}
	return nil
}

// checkSendRun walks a send run to its end: data frames only, consecutive,
// the last one the frame before nextSendSeq.
func checkSendRun(run []byte, nextSendSeq uint64) error {
	var next uint64
	for off := 0; off < len(run); {
		f, size, err := wire.PeekFrame(run[off:])
		if err != nil {
			return fmt.Errorf("%w: send run at %d: %v", errBadState, off, err)
		}
		if size == 0 {
			return fmt.Errorf("%w: send run ends inside the frame at %d", errBadState, off)
		}
		if f.Flags != wire.FlagData || off > 0 && f.Seq != next {
			return fmt.Errorf("%w: send run at %d: flags %#x seq %d, want data frame %d", errBadState, off, f.Flags, f.Seq, next)
		}
		next = f.Seq + 1
		off += size
	}
	if len(run) > 0 && next != nextSendSeq {
		return fmt.Errorf("%w: send run ends before seq %d, next send seq is %d", errBadState, next, nextSendSeq)
	}
	return nil
}

// decodeConnState decodes a journal record: one connection, nothing after.
func decodeConnState(b []byte) (connState, error) {
	st, rest, err := takeConnState(b)
	if err == nil && len(rest) > 0 {
		return connState{}, fmt.Errorf("%w: %d bytes after the record", errBadState, len(rest))
	}
	return st, err
}

// decodeHookBlob decodes and validates a whole migration blob; PostArrive
// restores nothing until it has. The blob's states alias b.
func decodeHookBlob(b []byte) (hb hookBlob, err error) {
	if len(b) < 2 || binary.BigEndian.Uint16(b) != hookBlobMagic {
		return hb, errPreV1State
	}
	r := stateReader{b: b[2:]}
	head := r.take(blobHeaderSize-2, "blob header")
	switch {
	case r.err != nil:
	case head[0] != stateVersion:
		r.failf("unsupported blob version %d", head[0])
	case head[1] > blobListener:
		r.failf("unknown blob flags %#x", head[1])
	}
	hb.Trace = r.prefixed(maxStateTrace, "trace context")
	if r.err != nil {
		return hookBlob{}, r.err
	}
	hb.HasListener = head[1] == blobListener
	if ns := int64(binary.BigEndian.Uint64(head[2:])); ns != 0 {
		hb.DepartedAt = time.Unix(0, ns)
	}
	conns, backlog := binary.BigEndian.Uint32(head[10:]), binary.BigEndian.Uint32(head[14:])
	if uint64(conns)*connStateMin+uint64(backlog)*16 > uint64(len(r.b)) {
		return hookBlob{}, fmt.Errorf("%w: %d connections and %d backlog ids in %d bytes", errBadState, conns, backlog, len(r.b))
	}
	if conns > 0 {
		hb.Conns = make([]connState, conns)
	}
	for i := range hb.Conns {
		if hb.Conns[i], r.b, err = takeConnState(r.b); err != nil {
			return hookBlob{}, fmt.Errorf("connection %d of %d: %w", i, conns, err)
		}
	}
	if uint64(len(r.b)) != uint64(backlog)*16 {
		return hookBlob{}, fmt.Errorf("%w: %d bytes where %d backlog ids go", errBadState, len(r.b), backlog)
	}
	for ; len(r.b) > 0; r.b = r.b[16:] {
		hb.Backlog = append(hb.Backlog, [16]byte(r.b))
	}
	return hb, nil
}

// packRuns copies validated runs of whole frames into pooled segments, the
// way back from the serialized form: frames are packed up to sendSegBytes a
// segment (a larger frame gets one sized for it), one copy per segment; via
// marks them all.
func packRuns(pieces [][]byte, via bool) []segment {
	var q []segment
	for _, run := range pieces {
		for len(run) > 0 {
			n := 0
			var first, last uint64
			for n < len(run) {
				f, size, _ := wire.PeekFrame(run[n:])
				if n > 0 && n+size > sendSegBytes {
					break
				}
				if n == 0 {
					first = f.Seq
				}
				last = f.Seq
				n += size
			}
			buf := wire.GetPayload(n)
			copy(buf, run[:n])
			q = append(q, segment{buf: buf, first: first, last: last, via: via})
			run = run[n:]
		}
	}
	return q
}
