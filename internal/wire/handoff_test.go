package wire

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

func sampleHandoff() *HandoffHeader {
	var id ConnID
	id[3] = 7
	h := &HandoffHeader{
		Purpose:     HandoffResume,
		ConnID:      id,
		TargetAgent: "agent-b",
		FromAgent:   "agent-a",
		Nonce:       99,
	}
	h.Token[0] = 0xde
	return h
}

func TestHandoffRoundTrip(t *testing.T) {
	for _, p := range []HandoffPurpose{HandoffConnect, HandoffResume, HandoffAgent} {
		want := sampleHandoff()
		want.Purpose = p
		if p == HandoffAgent {
			// An agent bundle's open names no connection and carries no token.
			want.ConnID, want.TargetAgent, want.FromAgent, want.Nonce, want.Token = ConnID{}, "", "", 0, [TagSize]byte{}
		}
		var buf bytes.Buffer
		if err := want.Write(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadHandoffHeader(&buf)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s round trip:\n got %+v\nwant %+v", p, got, want)
		}
	}
}

func TestHandoffSigningBytes(t *testing.T) {
	h := sampleHandoff()
	ref := h.SigningBytes()
	h2 := sampleHandoff()
	h2.Token = [TagSize]byte{}
	if !bytes.Equal(ref, h2.SigningBytes()) {
		t.Error("SigningBytes depends on token")
	}
	h3 := sampleHandoff()
	h3.Nonce++
	if bytes.Equal(ref, h3.SigningBytes()) {
		t.Error("nonce not covered by SigningBytes")
	}
	h4 := sampleHandoff()
	h4.Purpose = HandoffConnect
	if bytes.Equal(ref, h4.SigningBytes()) {
		t.Error("purpose not covered by SigningBytes")
	}
}

func TestHandoffErrors(t *testing.T) {
	t.Run("oversize", func(t *testing.T) {
		var buf bytes.Buffer
		buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
		if _, err := ReadHandoffHeader(&buf); err == nil {
			t.Error("oversize header accepted")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		var buf bytes.Buffer
		if err := sampleHandoff().Write(&buf); err != nil {
			t.Fatal(err)
		}
		b := buf.Bytes()[:buf.Len()-5]
		if _, err := ReadHandoffHeader(bytes.NewReader(b)); err != io.ErrUnexpectedEOF {
			t.Fatalf("err = %v, want unexpected EOF", err)
		}
	})
	t.Run("bad purpose", func(t *testing.T) {
		for _, p := range []HandoffPurpose{HandoffInvalid, HandoffAgent + 1, 9} {
			h := sampleHandoff()
			h.Purpose = p
			var buf bytes.Buffer
			if err := h.Write(&buf); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadHandoffHeader(&buf); err == nil {
				t.Errorf("purpose %d accepted", p)
			}
		}
	})
}
