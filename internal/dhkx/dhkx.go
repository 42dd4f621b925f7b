// Package dhkx implements the Diffie-Hellman key exchange used by
// NapletSocket to establish a secret session key at connection setup
// (Section 3.3 of the paper), plus the HMAC-based authenticator derived from
// that key. Every subsequent suspend, resume, and close request on the
// connection must carry a tag under the session key; requests without a
// valid tag are denied, protecting connection migration from eavesdropping
// and hijacking.
//
// The group is the 2048-bit MODP group 14 of RFC 3526 with generator 2 —
// well beyond the paper's 2004-era parameters, using only the standard
// library (math/big, crypto/rand, crypto/hmac, crypto/sha256).
package dhkx

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"fmt"
	"hash"
	"math/big"
	"sync/atomic"
)

// modp2048Hex is the prime of RFC 3526 group 14.
const modp2048Hex = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1" +
	"29024E088A67CC74020BBEA63B139B22514A08798E3404DD" +
	"EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245" +
	"E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED" +
	"EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D" +
	"C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F" +
	"83655D23DCA3AD961C62F356208552BB9ED529077096966D" +
	"670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B" +
	"E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9" +
	"DE2BCBF6955817183995497CEA956AE515D2261898FA0510" +
	"15728E5A8AACAA68FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF"

var (
	prime     *big.Int
	generator = big.NewInt(2)
	// pMinus2 bounds valid public values: 2 <= pub <= p-2.
	pMinus2 *big.Int
)

func init() {
	var ok bool
	prime, ok = new(big.Int).SetString(modp2048Hex, 16)
	if !ok {
		panic("dhkx: bad MODP constant")
	}
	pMinus2 = new(big.Int).Sub(prime, big.NewInt(2))
}

// KeySize is the size in bytes of a derived session key.
const KeySize = 32

// privateBits is the size of the random exponent; 256 bits gives the full
// strength of the 2048-bit group per RFC 3526 guidance.
const privateBits = 256

// ErrInvalidPublicKey reports a peer public value outside (1, p-1), which
// would leak the shared secret (small-subgroup confinement).
var ErrInvalidPublicKey = errors.New("dhkx: invalid peer public key")

// KeyPair is one party's ephemeral DH key pair.
type KeyPair struct {
	priv *big.Int
	pub  *big.Int
}

// GenerateKeyPair draws a fresh ephemeral key pair from crypto/rand.
func GenerateKeyPair() (*KeyPair, error) {
	max := new(big.Int).Lsh(big.NewInt(1), privateBits)
	for {
		priv, err := rand.Int(rand.Reader, max)
		if err != nil {
			return nil, fmt.Errorf("dhkx: generating private key: %w", err)
		}
		if priv.Sign() <= 0 || priv.BitLen() < 2 {
			continue
		}
		pub := new(big.Int).Exp(generator, priv, prime)
		return &KeyPair{priv: priv, pub: pub}, nil
	}
}

// PublicBytes returns the party's public value for transmission.
func (kp *KeyPair) PublicBytes() []byte { return kp.pub.Bytes() }

// SharedSecret combines the private key with the peer's public value and
// returns the raw shared group element bytes. It rejects degenerate peer
// values (0, 1, p-1 and out-of-range) that would fix the secret.
func (kp *KeyPair) SharedSecret(peerPublic []byte) ([]byte, error) {
	pub := new(big.Int).SetBytes(peerPublic)
	if pub.Cmp(big.NewInt(2)) < 0 || pub.Cmp(pMinus2) > 0 {
		return nil, ErrInvalidPublicKey
	}
	secret := new(big.Int).Exp(pub, kp.priv, prime)
	return secret.Bytes(), nil
}

// DeriveSessionKey turns the raw DH secret into a fixed-size session key
// bound to a particular connection id, using an HKDF-style extract/expand
// with HMAC-SHA256.
func DeriveSessionKey(secret, connID []byte) []byte {
	// Extract with a fixed protocol salt.
	ext := hmac.New(sha256.New, []byte("napletsocket-v1 key extract"))
	ext.Write(secret)
	prk := ext.Sum(nil)
	// Expand bound to the connection id.
	exp := hmac.New(sha256.New, prk)
	exp.Write([]byte("napletsocket-v1 session key"))
	exp.Write(connID)
	exp.Write([]byte{1})
	return exp.Sum(nil)[:KeySize]
}

// Authenticator signs and verifies control messages under a session key.
// The zero value is unusable; construct with NewAuthenticator. It is safe for
// concurrent use and must not be copied.
type Authenticator struct {
	key []byte
	// warm holds a keyed, reset HMAC between calls. Keying one hashes two
	// blocks and allocates both digests: NewAuthenticator pays that, off any
	// operation's critical path, and a Sign that finds the slot taken (two
	// messages of one connection in flight at once) keys its own.
	warm atomic.Pointer[keyedMAC]
}

// keyedMAC is the hash, and room for its sum so that taking it does not
// allocate either.
type keyedMAC struct {
	h   hash.Hash
	sum [TagSize]byte
}

// NewAuthenticator wraps a derived session key.
func NewAuthenticator(sessionKey []byte) (*Authenticator, error) {
	if len(sessionKey) != KeySize {
		return nil, fmt.Errorf("dhkx: session key must be %d bytes, got %d", KeySize, len(sessionKey))
	}
	k := make([]byte, KeySize)
	copy(k, sessionKey)
	a := &Authenticator{key: k}
	a.Sign(nil) // keys the HMAC and saves the state later Signs restart from
	return a, nil
}

// TagSize is the length of a signature tag.
const TagSize = sha256.Size

// Sign returns the HMAC-SHA256 tag of msg under the session key.
func (a *Authenticator) Sign(msg []byte) [TagSize]byte {
	m := a.warm.Swap(nil)
	if m == nil {
		m = &keyedMAC{h: hmac.New(sha256.New, a.key)}
	}
	m.h.Write(msg)
	m.h.Sum(m.sum[:0])
	tag := m.sum
	m.h.Reset()
	a.warm.Store(m)
	return tag
}

// Verify reports whether tag is the valid signature of msg, in constant
// time.
func (a *Authenticator) Verify(msg []byte, tag [TagSize]byte) bool {
	want := a.Sign(msg)
	return subtle.ConstantTimeCompare(want[:], tag[:]) == 1
}

// Exchange is a convenience for tests and examples: it runs both halves of
// a key exchange locally and returns the two (identical) session keys.
func Exchange(connID []byte) (clientKey, serverKey []byte, err error) {
	a, err := GenerateKeyPair()
	if err != nil {
		return nil, nil, err
	}
	b, err := GenerateKeyPair()
	if err != nil {
		return nil, nil, err
	}
	sa, err := a.SharedSecret(b.PublicBytes())
	if err != nil {
		return nil, nil, err
	}
	sb, err := b.SharedSecret(a.PublicBytes())
	if err != nil {
		return nil, nil, err
	}
	return DeriveSessionKey(sa, connID), DeriveSessionKey(sb, connID), nil
}
