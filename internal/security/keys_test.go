package security

import (
	"encoding/hex"
	"testing"
)

func TestKeyScheduleSeparation(t *testing.T) {
	secret := []byte("some dh shared secret bytes")
	connID := []byte("0123456789abcdef")
	ks := NewKeySchedule(secret, connID)
	th := TranscriptHash([]byte("hello a"), []byte("hello b"))
	dk, ak := ks.SealKeys(th)

	keys := map[string][]byte{
		"session":       ks.SessionKey(),
		"seal-dialer":   dk,
		"seal-acceptor": ak,
	}
	for name, k := range keys {
		if len(k) != KeySize {
			t.Fatalf("%s key is %d bytes", name, len(k))
		}
	}
	// Pairwise distinct: no label collision may ever alias two purposes.
	for a, ka := range keys {
		for b, kb := range keys {
			if a != b && hex.EncodeToString(ka) == hex.EncodeToString(kb) {
				t.Fatalf("keys %q and %q are identical", a, b)
			}
		}
	}
	// None may equal the raw secret material.
	for name, k := range keys {
		if hex.EncodeToString(k) == hex.EncodeToString(secret) {
			t.Fatalf("%s key equals raw secret", name)
		}
	}
}

func TestKeyScheduleStable(t *testing.T) {
	// Golden values pin the derivation: a refactor that silently changes
	// any label, salt, or hash order breaks mixed-build sessions, so it
	// must break this test first.
	secret := []byte("golden dh shared secret for key schedule stability")
	connID := []byte("0123456789abcdef")
	ks := NewKeySchedule(secret, connID)
	th := TranscriptHash([]byte("dialer hello"), []byte("acceptor hello"))
	dk, ak := ks.SealKeys(th)

	want := map[string]string{
		"session":    "f86ed23165e362b76790fcc493bd786dca27cb286c2ab5cba84ece5aad3236b8",
		"seal-dial":  "53bdab7e530b3daad95b27b6372eec72492807c992a15db14717c70f3eaf73cb",
		"seal-acc":   "38d9ed6553e11c7d1de6fed33cd85e3603d400876d7ccedf7c4fc94dc3b9e1df",
		"transcript": "36c6cfc6199173eb12b7a26d9c70e8c2a898f50b51f9a6aa6c5b2ae7c4c4b147",
	}
	got := map[string]string{
		"session":    hex.EncodeToString(ks.SessionKey()),
		"seal-dial":  hex.EncodeToString(dk),
		"seal-acc":   hex.EncodeToString(ak),
		"transcript": hex.EncodeToString(th),
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s key drifted:\n got %s\nwant %s", name, got[name], w)
		}
	}
}

func TestKeyScheduleBindings(t *testing.T) {
	secret := []byte("secret")
	ksA := NewKeySchedule(secret, []byte("conn-a"))
	ksB := NewKeySchedule(secret, []byte("conn-b"))
	if hex.EncodeToString(ksA.SessionKey()) == hex.EncodeToString(ksB.SessionKey()) {
		t.Fatal("session keys not bound to connection id")
	}
	// Seal keys must change with the handshake transcript.
	th1 := TranscriptHash([]byte("gen1 dial"), []byte("gen1 accept"))
	th2 := TranscriptHash([]byte("gen2 dial"), []byte("gen2 accept"))
	d1, a1 := ksA.SealKeys(th1)
	d2, a2 := ksA.SealKeys(th2)
	if hex.EncodeToString(d1) == hex.EncodeToString(d2) || hex.EncodeToString(a1) == hex.EncodeToString(a2) {
		t.Fatal("seal keys not bound to handshake transcript")
	}
	// Transcript hashing is length-prefixed: shifting bytes between the
	// two hellos must change the hash.
	if hex.EncodeToString(TranscriptHash([]byte("ab"), []byte("c"))) ==
		hex.EncodeToString(TranscriptHash([]byte("a"), []byte("bc"))) {
		t.Fatal("transcript hash not length-delimited")
	}
}
