package security

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
)

// This file is the transport key schedule for version-2 (negotiated)
// transport sessions. Version 1 fed the raw DH-derived session key into
// every consumer — the handshake authenticator and (had it encrypted) the
// cipher — which is exactly the key-reuse hygiene problem HKDF labels exist
// to prevent. Version 2 extracts one PRK from the DH shared secret and
// expands it under a distinct label per purpose:
//
//	session auth   → HMAC key for handshake transcript tags and control
//	                 message authentication
//	seal dialer    → AEAD key for records the transport dialer sends
//	seal acceptor  → AEAD key for records the acceptor sends
//
// The seal keys additionally mix in the transcript hash of the handshake
// that installed the connection. A transport lives on one connection and
// one fresh DH exchange, so its AEAD nonce counters start at zero exactly
// once per key: a record from any other transport can never authenticate.

// KeySize is the size of every derived key.
const KeySize = 32

// HKDF labels; distinct per purpose, versioned with the protocol.
const (
	hkdfSalt          = "naplet-transport-v2 key extract"
	labelSession      = "naplet-transport-v2 session auth"
	labelSealDialer   = "naplet-transport-v2 seal dialer"
	labelSealAcceptor = "naplet-transport-v2 seal acceptor"
)

// KeySchedule derives every per-purpose transport key from one DH shared
// secret, bound to the transport's connection id.
type KeySchedule struct {
	prk    []byte
	connID []byte
}

// NewKeySchedule extracts the pseudorandom key from the raw DH shared
// secret under the fixed protocol salt (HKDF-Extract, RFC 5869 with
// HMAC-SHA256), bound to connID at expansion.
func NewKeySchedule(dhSecret, connID []byte) *KeySchedule {
	ext := hmac.New(sha256.New, []byte(hkdfSalt))
	ext.Write(dhSecret)
	return &KeySchedule{prk: ext.Sum(nil), connID: append([]byte(nil), connID...)}
}

// expand is HKDF-Expand for a single ≤32-byte block: info is the purpose
// label, the connection id, and any extra context.
func (ks *KeySchedule) expand(label string, context []byte) []byte {
	exp := hmac.New(sha256.New, ks.prk)
	exp.Write([]byte(label))
	exp.Write(ks.connID)
	exp.Write(context)
	exp.Write([]byte{1})
	return exp.Sum(nil)[:KeySize]
}

// SessionKey is the HMAC key authenticating the handshake transcript and
// control messages for this transport session.
func (ks *KeySchedule) SessionKey() []byte { return ks.expand(labelSession, nil) }

// SealKeys derives the per-direction AEAD keys of a transport, bound to
// the transcript hash of its handshake. The dialer seals under dialerKey
// and opens under acceptorKey; the acceptor does the reverse.
func (ks *KeySchedule) SealKeys(transcriptHash []byte) (dialerKey, acceptorKey []byte) {
	return ks.expand(labelSealDialer, transcriptHash), ks.expand(labelSealAcceptor, transcriptHash)
}

// TranscriptHash digests a handshake transcript — the raw hello bytes a
// side sent and received — into the context for SealKeys. Each side
// passes its own sent/received order, so the two ends hash different
// byte orders; Transcripts pins the order to the dialer's view to keep
// the derivation symmetric.
func TranscriptHash(dialerHello, acceptorHello []byte) []byte {
	h := sha256.New()
	var len4 [4]byte
	for _, part := range [][]byte{dialerHello, acceptorHello} {
		len4[0] = byte(len(part) >> 24)
		len4[1] = byte(len(part) >> 16)
		len4[2] = byte(len(part) >> 8)
		len4[3] = byte(len(part))
		h.Write(len4[:])
		h.Write(part)
	}
	return h.Sum(nil)
}

// CheckKeySize validates a derived key length before use.
func CheckKeySize(key []byte) error {
	if len(key) != KeySize {
		return fmt.Errorf("security: key must be %d bytes, got %d", KeySize, len(key))
	}
	return nil
}
