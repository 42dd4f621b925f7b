package security

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
)

// Sealed-record framing for the negotiated transport: when a version-2
// handshake agrees on a cipher suite, every mux frame payload on the wire
// is an AEAD-sealed record. The 13-byte mux header stays cleartext — the
// reader needs the type and length to frame the stream — but it is bound
// into the seal as associated data, so a tampered header fails
// authentication just like tampered ciphertext. The nonce is an implicit
// 64-bit counter per direction per transport: records are sealed and
// opened strictly in wire order on a TCP stream, both ends count, and
// nothing is transmitted. A transport never outlives its connection, and
// its successor runs a fresh DH exchange and fresh keys
// (KeySchedule.SealKeys), so a record captured from a dead connection can
// never be replayed into the next one.

// RecordOverhead is the bytes a sealed record adds to its plaintext (the
// AEAD tag). A transport negotiating MaxPayload must cap plaintext chunks
// at MaxPayload-RecordOverhead so sealed frames still honour the wire
// limit.
const RecordOverhead = 16

// nonceSize is the AES-GCM standard nonce length.
const nonceSize = 12

// ErrRecordAuth reports a record that failed AEAD authentication — a
// tampered, truncated, reordered, or replayed record. The transport must
// treat it as fatal for the connection.
var ErrRecordAuth = errors.New("security: record authentication failed")

// ErrNonceExhausted reports a direction that sealed 2^64-1 records; the
// connection must be rekeyed or closed rather than reuse a nonce.
var ErrNonceExhausted = errors.New("security: record nonce space exhausted")

func newAEAD(key []byte) (cipher.AEAD, error) {
	if err := CheckKeySize(key); err != nil {
		return nil, err
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("security: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("security: %w", err)
	}
	return aead, nil
}

// Sealer seals outbound records under one direction's AEAD key. Not safe
// for concurrent use: the caller must serialize Seal calls in wire order
// (the transport's one flusher goroutine seals in queue order, preserving
// the counter == wire-order invariant the implicit nonce depends on).
type Sealer struct {
	aead    cipher.AEAD
	counter uint64
	// nonce is the scratch the counter is encoded into: a local array
	// passed to the AEAD interface would escape, one allocation a record.
	nonce [nonceSize]byte
}

// NewSealer builds a sealer over a 32-byte AES-256-GCM key with its nonce
// counter at zero.
func NewSealer(key []byte) (*Sealer, error) {
	aead, err := newAEAD(key)
	if err != nil {
		return nil, err
	}
	return &Sealer{aead: aead}, nil
}

// Seal appends the sealed record for plaintext to dst and returns the
// extended slice. aad is authenticated but not encrypted (the mux frame
// header). The sealed length is len(plaintext)+RecordOverhead.
func (s *Sealer) Seal(dst, plaintext, aad []byte) ([]byte, error) {
	if s.counter == ^uint64(0) {
		return nil, ErrNonceExhausted
	}
	binary.BigEndian.PutUint64(s.nonce[4:], s.counter)
	s.counter++
	return s.aead.Seal(dst, s.nonce[:], plaintext, aad), nil
}

// Opener opens inbound records sealed by the peer's Sealer. Not safe for
// concurrent use: the transport's single read loop opens records in wire
// order.
type Opener struct {
	aead    cipher.AEAD
	counter uint64
	nonce   [nonceSize]byte // as Sealer.nonce
}

// NewOpener builds an opener over a 32-byte AES-256-GCM key with its
// nonce counter at zero.
func NewOpener(key []byte) (*Opener, error) {
	aead, err := newAEAD(key)
	if err != nil {
		return nil, err
	}
	return &Opener{aead: aead}, nil
}

// Open authenticates and decrypts one record, appending the plaintext to
// dst. Opening in place (dst = record[:0]) is permitted, letting the
// transport decrypt into the pooled buffer the ciphertext arrived in.
// Any failure is ErrRecordAuth; the counter advances only on success.
func (o *Opener) Open(dst, record, aad []byte) ([]byte, error) {
	if o.counter == ^uint64(0) {
		return nil, ErrNonceExhausted
	}
	binary.BigEndian.PutUint64(o.nonce[4:], o.counter)
	out, err := o.aead.Open(dst, o.nonce[:], record, aad)
	if err != nil {
		return nil, ErrRecordAuth
	}
	o.counter++
	return out, nil
}
