// Package wire defines the on-the-wire formats shared by every layer of the
// NapletSocket stack: the hello and mux frames of the shared per-host-pair
// transport, the sequence-numbered data frames carried on a transport
// stream (the data socket), and the control messages exchanged on the
// reliable-UDP control channel during connection setup, suspend, resume,
// and close.
//
// All encodings are deterministic (big-endian, length-prefixed) so that
// control messages can be authenticated with an HMAC computed over their
// canonical bytes.
package wire
