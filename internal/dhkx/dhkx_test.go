package dhkx

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"
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

func TestRejectDegeneratePublicKeys(t *testing.T) {
	kp, err := GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	pMinus1 := new(big.Int).Sub(prime, big.NewInt(1))
	bad := [][]byte{
		nil,
		{},
		{0},
		{1},
		pMinus1.Bytes(),
		prime.Bytes(),
		new(big.Int).Add(prime, big.NewInt(5)).Bytes(),
	}
	for i, pub := range bad {
		if _, err := kp.SharedSecret(pub); !errors.Is(err, ErrInvalidPublicKey) {
			t.Errorf("degenerate key %d accepted (err=%v)", i, err)
		}
	}
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
