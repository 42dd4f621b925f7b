// Package dhkx implements the Diffie-Hellman key exchange used by
// NapletSocket to establish a secret session key at connection setup
// (Section 3.3 of the paper), plus the HMAC-based authenticator derived from
// that key. Every subsequent suspend, resume, and close request on the
// connection must carry a tag under the session key; requests without a
// valid tag are denied, protecting connection migration from eavesdropping
// and hijacking.
//
// The exchange is X25519 (RFC 7748) from the standard library's crypto/ecdh:
// the same ephemeral Diffie-Hellman protocol as the paper's, at about 128-bit
// security, with 32-byte public values and a tenth of the cost of a 2048-bit
// finite-field group.
package dhkx

import (
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"fmt"
	"hash"
	"sync/atomic"
)

// KeySize is the size in bytes of a derived session key.
const KeySize = 32

// ErrInvalidPublicKey reports a peer public value that is not 32 bytes or is
// a low-order point, which would fix the shared secret (small-subgroup
// confinement).
var ErrInvalidPublicKey = errors.New("dhkx: invalid peer public key")

// KeyPair is one party's ephemeral DH key pair.
type KeyPair struct {
	priv *ecdh.PrivateKey
}

// GenerateKeyPair draws a fresh ephemeral key pair from crypto/rand.
func GenerateKeyPair() (*KeyPair, error) {
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("dhkx: generating private key: %w", err)
	}
	return &KeyPair{priv: priv}, nil
}

// PublicBytes returns the party's public value for transmission.
func (kp *KeyPair) PublicBytes() []byte { return kp.priv.PublicKey().Bytes() }

// SharedSecret combines the private key with the peer's public value and
// returns the raw 32-byte shared secret. It rejects a value of the wrong
// length and a low-order point, whose all-zero result would fix the secret.
func (kp *KeyPair) SharedSecret(peerPublic []byte) ([]byte, error) {
	pub, err := ecdh.X25519().NewPublicKey(peerPublic)
	if err != nil {
		return nil, ErrInvalidPublicKey
	}
	secret, err := kp.priv.ECDH(pub)
	if err != nil {
		return nil, ErrInvalidPublicKey
	}
	return secret, nil
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
