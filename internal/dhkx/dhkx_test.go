package dhkx

import (
	"bytes"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestKeyExchangeAgreement(t *testing.T) {
	a, err := GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	sa, err := a.SharedSecret(b.PublicBytes())
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.SharedSecret(a.PublicBytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa, sb) {
		t.Fatal("shared secrets differ")
	}
	ka := DeriveSessionKey(sa, []byte("conn-1"))
	kb := DeriveSessionKey(sb, []byte("conn-1"))
	if !bytes.Equal(ka, kb) {
		t.Fatal("session keys differ")
	}
	if len(ka) != KeySize {
		t.Fatalf("key size %d, want %d", len(ka), KeySize)
	}
}

func TestSessionKeyBoundToConnID(t *testing.T) {
	secret := []byte("shared secret bytes")
	k1 := DeriveSessionKey(secret, []byte("conn-1"))
	k2 := DeriveSessionKey(secret, []byte("conn-2"))
	if bytes.Equal(k1, k2) {
		t.Fatal("different connections derived the same session key")
	}
}

func TestDistinctPairsDistinctKeys(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 8; i++ {
		kp, err := GenerateKeyPair()
		if err != nil {
			t.Fatal(err)
		}
		pub := string(kp.PublicBytes())
		if seen[pub] {
			t.Fatal("duplicate public key generated")
		}
		seen[pub] = true
	}
}

func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRFC7748KnownAnswer runs the Diffie-Hellman example of RFC 7748 §6.1
// through KeyPair: Alice's and Bob's private keys give the listed public
// keys and the listed shared secret.
func TestRFC7748KnownAnswer(t *testing.T) {
	pair := func(privHex string) *KeyPair {
		priv, err := ecdh.X25519().NewPrivateKey(unhex(t, privHex))
		if err != nil {
			t.Fatal(err)
		}
		return &KeyPair{priv: priv}
	}
	alice := pair("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a")
	bob := pair("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb")
	if got, want := alice.PublicBytes(), unhex(t, "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"); !bytes.Equal(got, want) {
		t.Fatalf("Alice's public key %x, want %x", got, want)
	}
	if got, want := bob.PublicBytes(), unhex(t, "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"); !bytes.Equal(got, want) {
		t.Fatalf("Bob's public key %x, want %x", got, want)
	}
	want := unhex(t, "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742")
	for name, kp := range map[string][2]*KeyPair{"Alice": {alice, bob}, "Bob": {bob, alice}} {
		got, err := kp[0].SharedSecret(kp[1].PublicBytes())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s's shared secret %x, want %x", name, got, want)
		}
	}
}

// degeneratePublicKeys are the peer values SharedSecret must refuse: the
// small-order u-coordinates RFC 7748 §7 warns of (0, 1, the two points of
// order 8, and p-1, p and p+1 for p = 2^255-19), little-endian as on the
// wire, and values of the wrong length.
var degeneratePublicKeys = []string{
	"0000000000000000000000000000000000000000000000000000000000000000", // 0
	"0100000000000000000000000000000000000000000000000000000000000000", // 1
	"e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800", // order 8
	"5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157", // order 8
	"ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f", // p-1
	"edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f", // p
	"eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f", // p+1
	"",
	"09",
	"090000000000000000000000000000000000000000000000000000000000000000", // 33 bytes
	"09000000000000000000000000000000000000000000000000000000000000",     // 31 bytes
}

func TestRejectDegeneratePublicKeys(t *testing.T) {
	kp, err := GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range degeneratePublicKeys {
		if _, err := kp.SharedSecret(unhex(t, h)); !errors.Is(err, ErrInvalidPublicKey) {
			t.Errorf("degenerate key %q accepted (err=%v)", h, err)
		}
	}
	// The nil slice is refused as well as the empty one.
	if _, err := kp.SharedSecret(nil); !errors.Is(err, ErrInvalidPublicKey) {
		t.Errorf("nil key accepted (err=%v)", err)
	}
}

// FuzzSharedSecret: whatever the peer sends, SharedSecret does not panic and
// returns either ErrInvalidPublicKey or a 32-byte secret that is not all
// zeros.
func FuzzSharedSecret(f *testing.F) {
	for _, h := range degeneratePublicKeys {
		f.Add(unhex(f, h))
	}
	peer, err := GenerateKeyPair()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(peer.PublicBytes())
	kp, err := GenerateKeyPair()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, pub []byte) {
		secret, err := kp.SharedSecret(pub)
		if err != nil {
			if !errors.Is(err, ErrInvalidPublicKey) {
				t.Fatalf("error %v, want ErrInvalidPublicKey", err)
			}
			return
		}
		if len(secret) != 32 {
			t.Fatalf("secret of %d bytes", len(secret))
		}
		if bytes.Equal(secret, make([]byte, 32)) {
			t.Fatal("all-zero secret accepted")
		}
	})
}

func TestAuthenticatorSignVerify(t *testing.T) {
	key := DeriveSessionKey([]byte("secret"), []byte("conn"))
	auth, err := NewAuthenticator(key)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("SUSPEND conn-1 nonce=5")
	tag := auth.Sign(msg)
	if !auth.Verify(msg, tag) {
		t.Fatal("valid tag rejected")
	}
	// Tampered message.
	if auth.Verify([]byte("SUSPEND conn-1 nonce=6"), tag) {
		t.Fatal("tampered message accepted")
	}
	// Tampered tag.
	tag[0] ^= 1
	if auth.Verify(msg, tag) {
		t.Fatal("tampered tag accepted")
	}
}

// TestAuthenticatorConcurrentSign: the keyed hashes an Authenticator reuses
// never leak state from one message into another, whichever goroutine signs —
// every tag equals that of an HMAC built fresh for the message.
func TestAuthenticatorConcurrentSign(t *testing.T) {
	key := DeriveSessionKey([]byte("secret"), []byte("conn"))
	auth, err := NewAuthenticator(key)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				msg := []byte(fmt.Sprintf("RESUME conn-%d nonce=%d", g, i))
				fresh := hmac.New(sha256.New, key)
				fresh.Write(msg)
				tag := auth.Sign(msg)
				if !bytes.Equal(tag[:], fresh.Sum(nil)) {
					t.Errorf("goroutine %d message %d: tag differs from a fresh HMAC", g, i)
					return
				}
				if !auth.Verify(msg, tag) {
					t.Errorf("goroutine %d message %d: own tag rejected", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestAuthenticatorKeyIsolation(t *testing.T) {
	k1 := DeriveSessionKey([]byte("secret-1"), []byte("conn"))
	k2 := DeriveSessionKey([]byte("secret-2"), []byte("conn"))
	a1, _ := NewAuthenticator(k1)
	a2, _ := NewAuthenticator(k2)
	msg := []byte("RESUME")
	if a2.Verify(msg, a1.Sign(msg)) {
		t.Fatal("tag under key 1 verified under key 2")
	}
}

func TestAuthenticatorRejectsBadKeySize(t *testing.T) {
	if _, err := NewAuthenticator([]byte("short")); err == nil {
		t.Fatal("short key accepted")
	}
}

func TestAuthenticatorDefensiveKeyCopy(t *testing.T) {
	key := DeriveSessionKey([]byte("secret"), []byte("conn"))
	auth, _ := NewAuthenticator(key)
	msg := []byte("m")
	tag := auth.Sign(msg)
	key[0] ^= 0xff // caller mutates its copy
	if !auth.Verify(msg, tag) {
		t.Fatal("authenticator shared the caller's key slice")
	}
}

func TestSignVerifyProperty(t *testing.T) {
	key := DeriveSessionKey([]byte("prop"), []byte("conn"))
	auth, _ := NewAuthenticator(key)
	f := func(msg []byte) bool {
		return auth.Verify(msg, auth.Sign(msg))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(msg []byte, flip uint8) bool {
		if len(msg) == 0 {
			return true
		}
		tag := auth.Sign(msg)
		mutated := append([]byte(nil), msg...)
		mutated[int(flip)%len(mutated)] ^= 1 + flip%255
		if bytes.Equal(mutated, msg) {
			return true
		}
		return !auth.Verify(mutated, tag)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestExchangeHelper(t *testing.T) {
	ck, sk, err := Exchange([]byte("conn-xyz"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ck, sk) {
		t.Fatal("exchange produced mismatched keys")
	}
}

func BenchmarkKeyExchange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := Exchange([]byte("bench")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSign(b *testing.B) {
	key := DeriveSessionKey([]byte("s"), []byte("c"))
	auth, _ := NewAuthenticator(key)
	msg := bytes.Repeat([]byte("x"), 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		auth.Sign(msg)
	}
}
