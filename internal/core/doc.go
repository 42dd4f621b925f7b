// Package core implements NapletSocket, the paper's primary contribution: a
// session-layer connection migration mechanism giving mobile agents a
// synchronous transient communication channel that survives migration of
// either — or both — endpoints, with exactly-once in-order delivery of all
// transmitted data and agent-oriented security.
//
// # Architecture (Section 2.1 of the paper)
//
// Each host runs one Controller, which owns the reliable-UDP control channel,
// the redirector (the data-plane TCP listener), and a transport.Manager
// maintaining one authenticated TCP connection per peer host. A Socket is one
// endpoint of a logical connection; its data socket is always a stream
// multiplexed onto the shared per-host-pair transport (there is no other
// data plane), torn down before each migration
// and re-established afterwards (a resume to an already-visited host rides
// the warm transport — no new kernel dial). A per-connection buffered input
// stream (the NapletInputStream of Section 3.1) catches data drained at
// suspend time; its contents migrate with the agent and are served before any
// bytes from the new data stream, which — combined with per-frame sequence
// numbers — yields exactly-once delivery.
//
// # Shared transport (internal/transport)
//
// All logical connections between two hosts share a single kernel TCP
// connection. Streams are framed with a 13-byte mux header and flow-controlled
// with per-stream credit windows (negotiated, 1 MiB each direction by
// default, replenished at the half-window mark), so a bulk stream cannot
// starve its siblings: the transport's read loop never blocks on any one
// stream, and a writer that exhausts its window parks without holding the
// shared write path. Stream open is the socket handoff of Section 3.4: the
// handoff header rides the MuxOpen frame and the opener writes behind it
// unanswered (the verdict is the ACK to its RES, or the reply to its ID);
// the receiving controller authorizes the header or resets the stream. A
// stream's CloseWrite maps to MuxFin, which carries the pre-suspend
// FLUSH-then-half-close drain. The
// redirector hands every accepted kernel connection to the transport
// manager; one that does not open with a version-2 transport hello is
// closed.
//
// The Diffie-Hellman exchange of Section 3.3 runs per transport, not per
// connection: the two hosts agree on a transport secret once (mutually
// authenticated by HMAC tags over the hello transcript), and each
// connection's session key is derived from that secret bound to the
// connection id. Key independence is preserved — compromising one
// connection's key reveals nothing about siblings — while the modular
// exponentiation cost is paid once per host pair instead of once per
// connection (the Table 1 amortisation).
//
// # Protocol
//
// Connection state follows the fourteen-state machine of internal/fsm.
// Suspend/resume/close are request/verdict exchanges on the control channel,
// authenticated by an HMAC under a Diffie-Hellman session key established at
// setup (Section 3.3). Concurrent migrations of both endpoints are
// serialized with the ACK_WAIT / SUS_RES / RESUME_WAIT protocol of Sections
// 3.1–3.2, with deadlock freedom from a fixed hash-based agent priority.
//
// Beyond the paper, the implementation recovers from resume messages racing
// an agent's next hop (the mover re-resolves the peer through the location
// service and retries) and from data-socket failures while established (the
// connection degrades to SUSPENDED and is re-resumed, with lost in-flight
// frames retransmitted from a bounded send log) — the fault-tolerance
// extension the paper lists as future work.
package core
