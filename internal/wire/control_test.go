package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleMsg() *ControlMsg {
	var id ConnID
	for i := range id {
		id[i] = byte(i)
	}
	m := &ControlMsg{
		Type:        MsgSuspend,
		ConnID:      id,
		From:        "agent-a",
		To:          "agent-b",
		Nonce:       7,
		DataAddr:    "127.0.0.1:9000",
		ControlAddr: "127.0.0.1:9001",
		LastSeq:     12345,
		LocEpoch:    42,
		Payload:     []byte{1, 2, 3},
	}
	for i := range m.TraceID {
		m.TraceID[i] = byte(0xA0 + i)
	}
	for i := range m.SpanID {
		m.SpanID[i] = byte(0xB0 + i)
	}
	for i := range m.Tag {
		m.Tag[i] = byte(255 - i)
	}
	return m
}

func TestControlMsgRoundTrip(t *testing.T) {
	want := sampleMsg()
	got, err := DecodeControlMsg(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestControlMsgRoundTripProperty(t *testing.T) {
	f := func(typ uint8, id [16]byte, from, to, addr, caddr string, nonce, lastSeq, locEpoch uint64, payload []byte, tag [32]byte) bool {
		mt := MsgType(typ%uint8(MsgClose)) + 1
		if mt == msgIDReserved {
			mt = MsgConnect
		}
		in := &ControlMsg{
			Type: mt, ConnID: ConnID(id), From: from, To: to,
			Nonce: nonce, DataAddr: addr, ControlAddr: caddr, LastSeq: lastSeq, LocEpoch: locEpoch, Payload: payload, Tag: tag,
		}
		if len(from) > 65535 || len(to) > 65535 || len(addr) > 65535 || len(caddr) > 65535 {
			return true // encoder length prefix is uint16; core never sends such names
		}
		out, err := DecodeControlMsg(in.Encode())
		if err != nil {
			return false
		}
		// Decode normalizes empty payload to nil.
		if len(in.Payload) == 0 {
			in.Payload = nil
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestControlReplyRoundTrip(t *testing.T) {
	var id ConnID
	id[0] = 9
	want := &ControlReply{
		Verdict: VerdictReject,
		Code:    RejectRetry,
		ConnID:  id,
		Reason:  "busy",
		LastSeq: 77,
		Payload: []byte("pubkey"),
	}
	want.Tag[31] = 0x5a
	got, err := DecodeControlReply(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestSigningBytesExcludesTag(t *testing.T) {
	m := sampleMsg()
	withTag := m.SigningBytes()
	tagSaved := m.Tag
	m.Tag = [TagSize]byte{}
	withoutTag := m.SigningBytes()
	m.Tag = tagSaved
	if !bytes.Equal(withTag, withoutTag) {
		t.Error("SigningBytes depends on the tag value")
	}
	// And the tag must still be in place afterwards.
	if m.Tag != tagSaved {
		t.Error("SigningBytes clobbered the tag")
	}
}

func TestSigningBytesCoversAllFields(t *testing.T) {
	base := sampleMsg()
	mutations := []func(*ControlMsg){
		func(m *ControlMsg) { m.Type = MsgResume },
		func(m *ControlMsg) { m.ConnID[0] ^= 1 },
		func(m *ControlMsg) { m.From = "other" },
		func(m *ControlMsg) { m.To = "other" },
		func(m *ControlMsg) { m.Nonce++ },
		func(m *ControlMsg) { m.DataAddr = "10.0.0.1:1" },
		func(m *ControlMsg) { m.ControlAddr = "10.0.0.1:2" },
		func(m *ControlMsg) { m.LastSeq++ },
		func(m *ControlMsg) { m.LocEpoch++ },
		func(m *ControlMsg) { m.Payload = append([]byte(nil), 9) },
	}
	ref := base.SigningBytes()
	for i, mutate := range mutations {
		m := sampleMsg()
		mutate(m)
		if bytes.Equal(m.SigningBytes(), ref) {
			t.Errorf("mutation %d not covered by SigningBytes", i)
		}
	}
}

func TestDecodeControlErrors(t *testing.T) {
	good := sampleMsg().Encode()
	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[0] = 0
		if _, err := DecodeControlMsg(b); err == nil {
			t.Error("bad magic accepted")
		}
	})
	t.Run("truncations", func(t *testing.T) {
		for n := 0; n < len(good); n++ {
			if _, err := DecodeControlMsg(good[:n]); err == nil {
				t.Fatalf("truncation at %d accepted", n)
			}
		}
	})
	t.Run("bad type", func(t *testing.T) {
		m := sampleMsg()
		m.Type = MsgType(200)
		if _, err := DecodeControlMsg(m.Encode()); err == nil {
			t.Error("unknown type accepted")
		}
	})
	t.Run("reserved type", func(t *testing.T) {
		m := sampleMsg()
		m.Type = msgIDReserved
		if _, err := DecodeControlMsg(m.Encode()); !errors.Is(err, ErrBadControl) {
			t.Errorf("type 2 (the retired ID message): want ErrBadControl, got %v", err)
		}
	})
	t.Run("bad verdict", func(t *testing.T) {
		r := &ControlReply{Verdict: Verdict(200)}
		if _, err := DecodeControlReply(r.Encode()); err == nil {
			t.Error("unknown verdict accepted")
		}
	})
	t.Run("bad reject code", func(t *testing.T) {
		r := &ControlReply{Verdict: VerdictReject, Code: RejectResumeRace + 1}
		if _, err := DecodeControlReply(r.Encode()); err == nil {
			t.Error("unknown reject code accepted")
		}
		r = &ControlReply{Verdict: VerdictAck, Code: RejectRetry}
		if _, err := DecodeControlReply(r.Encode()); err == nil {
			t.Error("reject code accepted on an ACK")
		}
	})
}

func TestMsgTypeStrings(t *testing.T) {
	names := map[MsgType]string{
		MsgConnect: "CONNECT", MsgSuspend: "SUS",
		MsgSusRes: "SUS_RES", MsgResume: "RES", MsgClose: "CLS",
	}
	for typ, want := range names {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
	verdicts := map[Verdict]string{
		VerdictAck: "ACK", VerdictAckWait: "ACK_WAIT",
		VerdictResumeWait: "RESUME_WAIT", VerdictReject: "REJECT",
	}
	for v, want := range verdicts {
		if got := v.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", v, got, want)
		}
	}
}

// The message types are wire values: retiring the ID message (type 2) left
// every other number where it was.
func TestMsgTypeValues(t *testing.T) {
	want := map[MsgType]uint8{MsgConnect: 1, msgIDReserved: 2, MsgSuspend: 3, MsgSusRes: 4, MsgResume: 5, MsgClose: 6}
	for typ, v := range want {
		if uint8(typ) != v {
			t.Errorf("%s = %d, want %d", typ, uint8(typ), v)
		}
	}
}

// Encode sizes its buffer exactly: a control message is one allocation, not
// one and a regrow.
func TestControlEncodeSizesExactly(t *testing.T) {
	if b := sampleMsg().Encode(); cap(b) != len(b) {
		t.Errorf("ControlMsg.Encode: %d bytes in a buffer of %d", len(b), cap(b))
	}
	r := &ControlReply{Verdict: VerdictReject, Code: RejectRetry, Reason: "RES in state SUS_ACKED", LastSeq: 9, Payload: []byte{1, 2}}
	if b := r.Encode(); cap(b) != len(b) {
		t.Errorf("ControlReply.Encode: %d bytes in a buffer of %d", len(b), cap(b))
	}
}

// A message is encoded once and signed in place, and verified as received:
// both agree with signing and verifying the SigningBytes encoding.
func TestSignEncodedMatchesSigningBytes(t *testing.T) {
	m := sampleMsg()
	m.Tag = [TagSize]byte{}
	b := SignEncoded(m.Encode(), fuzzMAC{})
	got, err := DecodeControlMsg(b)
	if err != nil {
		t.Fatal(err)
	}
	if want := (fuzzMAC{}).Sign(m.SigningBytes()); got.Tag != want {
		t.Fatalf("tag signed in place %x, tag over SigningBytes %x", got.Tag, want)
	}
	if !VerifyEncoded(b, fuzzMAC{}) {
		t.Fatal("a message signed in place does not verify as received")
	}
	b[20] ^= 1
	if VerifyEncoded(b, fuzzMAC{}) {
		t.Fatal("a tampered message verifies")
	}
	if VerifyEncoded(b[:TagSize-1], fuzzMAC{}) {
		t.Fatal("a message shorter than a tag verifies")
	}
}
