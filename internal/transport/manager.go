package transport

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"naplet/internal/dhkx"
	"naplet/internal/obs"
	"naplet/internal/relay"
	"naplet/internal/security"
	"naplet/internal/wire"
)

// Config parameterises a Manager.
type Config struct {
	// HostName is advertised in hellos for diagnostics.
	HostName string
	// AdvertiseAddr is this host's redirector address, advertised so the
	// accepting side can reuse an inbound transport for its own dials.
	AdvertiseAddr string
	// Insecure disables the DH exchange (the paper's "w/o security" mode).
	Insecure bool
	// DisableEncryption keeps a secure transport's frames cleartext: the
	// hello advertises no cipher suites, so negotiation settles
	// on cleartext framing while the DH exchange, transcript tags, and
	// resume tokens still run. Benchmarks use it to isolate the record
	// layer's cost; Insecure implies it.
	DisableEncryption bool
	// Limits overrides the advertised protocol limits field by field; zero
	// fields keep wire.DefaultLimits. A session's effective limits are the
	// field-wise minimum of both sides' advertisements (KeepaliveMs is
	// advertised from KeepaliveInterval, not from here). Invalid overrides
	// are logged and replaced with the defaults.
	Limits wire.Limits
	// Dial opens the underlying connection; nil means net.DialTimeout.
	// Tests count calls through this hook to prove transport sharing.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// WrapData wraps the shared connection after the handshake (network
	// emulation).
	WrapData func(net.Conn) net.Conn
	// HandshakeTimeout bounds the transport handshake.
	HandshakeTimeout time.Duration
	// Authorize vets an inbound stream-open; an error resets the stream.
	Authorize func(*wire.HandoffHeader) error
	// Deliver hands an authorized inbound stream to the layer above; a false
	// return means no endpoint claimed it and the stream is reset.
	Deliver func(*wire.HandoffHeader, *Stream) bool
	// Logf logs transport-level events; nil discards.
	Logf func(format string, args ...any)

	// KeepaliveInterval is how long a transport may sit without inbound
	// traffic before the side probes it with a mux ping; 0 means the 15s
	// default, negative disables keepalive probing entirely.
	KeepaliveInterval time.Duration
	// KeepaliveTimeout is the inbound-silence threshold past which the
	// connection is declared half-open and broken (feeding resumption);
	// 0 defaults to 3x the keepalive interval.
	KeepaliveTimeout time.Duration
	// ResumeWindow bounds how long a broken transport keeps its streams
	// stalled while trying to resume the session; past it every stream
	// fails with ErrTransportLost. 0 means the 30s default, negative
	// disables resumption (a broken connection fails streams immediately,
	// the pre-resumption behaviour).
	ResumeWindow time.Duration
	// RedialBackoffBase / RedialBackoffCap bound the jittered exponential
	// backoff between resume redial attempts; 0 means the 25ms / 2s
	// defaults. These are floors: on a path whose measured RTT exceeds
	// them, the backoff scales up from the RTT estimate (see rtt.go).
	RedialBackoffBase time.Duration
	RedialBackoffCap  time.Duration
	// RelayAddr is the address of a rendezvous relay (internal/relay) to
	// fall back to when a direct dial — fresh or resume redial — fails;
	// "" disables the fallback. The relay sees only the transport
	// handshake and (on encrypted sessions) AEAD ciphertext.
	RelayAddr string
	// Metrics receives the transport.reconnects / transport.resumed_streams
	// / transport.keepalive_timeouts counters; nil records nothing.
	Metrics *obs.Registry
	// Tracer records transport dial/accept spans; a fresh dial performed
	// with a trace context (TransportTraced) joins that trace and carries
	// it to the acceptor in the hello. Nil disables tracing.
	Tracer *obs.Tracer

	// advertised is the validated limits advertisement NewManager computed
	// from Limits and KeepaliveInterval; hellos carry it verbatim.
	advertised wire.Limits
}

// helloNegotiation fills the negotiation section of an outbound
// fresh-session hello: the supported versions, the cipher suites this
// side will encrypt under (none when encryption is off — negotiation then
// settles on cleartext), and the advertised limits.
func (cfg *Config) helloNegotiation(h *wire.TransportHello) {
	h.Versions = wire.SupportedVersions()
	if !cfg.Insecure && !cfg.DisableEncryption {
		h.Ciphers = []uint16{wire.CipherAES256GCM}
	}
	h.Limits = cfg.advertised
}

// Manager owns every shared transport of one host: at most one live
// transport per peer redirector address, with concurrent dials to the same
// peer collapsed onto a single kernel connection and handshake.
type Manager struct {
	cfg Config

	// done closes when the manager closes, releasing keepalive tickers,
	// reconnect backoff sleeps, and dials blocked in flight.
	done chan struct{}

	// Resumption metrics (nil-safe when cfg.Metrics is nil).
	reconnects        *obs.Counter
	resumedStreams    *obs.Counter
	keepaliveTimeouts *obs.Counter
	// Session-security metrics: how many transport sessions negotiated an
	// AEAD record layer versus settling on cleartext framing (insecure
	// mode, or encryption disabled on either side).
	encrypted *obs.Counter
	cleartext *obs.Counter
	// relayDials counts connections (fresh or resume redials) established
	// through the rendezvous relay after a direct dial failed.
	relayDials *obs.Counter

	mu     sync.Mutex
	byAddr map[string]*Transport
	all    map[*Transport]struct{}
	// lost is a small ring of recently failed transports, so the debug
	// surface can show the terminal "lost" state after removal.
	lost []Info
	// pending tracks connections whose handshake is in flight, so Close
	// can fail them promptly instead of waiting out the handshake timeout.
	pending map[net.Conn]struct{}
	closed  bool
	// registered is closed and replaced each time a transport joins all,
	// waking SecretByID callers waiting for an id to appear.
	registered chan struct{}

	// dialMu holds one mutex per address, serialising dials so that N
	// concurrent opens to a new peer produce exactly one connection. It is
	// never held while registering an accepted inbound transport, so a host
	// dialing itself (or two hosts dialing each other simultaneously)
	// cannot deadlock.
	dialMuMu sync.Mutex
	dialMu   map[string]*sync.Mutex
}

// maxLostInfos bounds the lost-transport ring kept for the debug surface.
const maxLostInfos = 8

// NewManager returns a Manager with cfg's zero values defaulted.
func NewManager(cfg Config) *Manager {
	if cfg.Dial == nil {
		cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 10 * time.Second
	}
	if cfg.KeepaliveInterval == 0 {
		cfg.KeepaliveInterval = 15 * time.Second
	}
	if cfg.KeepaliveTimeout <= 0 {
		cfg.KeepaliveTimeout = 3 * cfg.KeepaliveInterval
	}
	if cfg.ResumeWindow == 0 {
		cfg.ResumeWindow = 30 * time.Second
	}
	if cfg.RedialBackoffBase <= 0 {
		cfg.RedialBackoffBase = 25 * time.Millisecond
	}
	if cfg.RedialBackoffCap <= 0 {
		cfg.RedialBackoffCap = 2 * time.Second
	}
	if cfg.RedialBackoffCap < cfg.RedialBackoffBase {
		cfg.RedialBackoffCap = cfg.RedialBackoffBase
	}
	cfg.advertised = advertisedLimits(&cfg)
	m := &Manager{
		cfg:               cfg,
		done:              make(chan struct{}),
		reconnects:        cfg.Metrics.Counter("transport.reconnects"),
		resumedStreams:    cfg.Metrics.Counter("transport.resumed_streams"),
		keepaliveTimeouts: cfg.Metrics.Counter("transport.keepalive_timeouts"),
		encrypted:         cfg.Metrics.Counter("transport.encrypted"),
		cleartext:         cfg.Metrics.Counter("transport.cleartext"),
		relayDials:        cfg.Metrics.Counter("transport.relay_dials"),
		byAddr:            make(map[string]*Transport),
		all:               make(map[*Transport]struct{}),
		pending:           make(map[net.Conn]struct{}),
		registered:        make(chan struct{}),
		dialMu:            make(map[string]*sync.Mutex),
	}
	// The worst-path RTT gauge: evaluated at snapshot time, so dashboards
	// see the live estimate without the manager pushing samples anywhere.
	cfg.Metrics.Func("transport.rtt_ms", func() float64 {
		return float64(m.MaxRTT().Microseconds()) / 1000
	})
	return m
}

// maxAdvertiseKeepaliveMs clamps the keepalive advertisement to the
// protocol's 24h bound.
const maxAdvertiseKeepaliveMs = 24 * 60 * 60 * 1000

// advertisedLimits builds the limits a defaulted Config advertises in its
// hellos: wire defaults overlaid field-wise with non-zero Limits
// overrides, keepalive taken from KeepaliveInterval (0 = probing
// disabled locally). Invalid overrides are logged and dropped so a bad
// flag can never wedge the handshake.
func advertisedLimits(cfg *Config) wire.Limits {
	var kaMs uint32
	if cfg.KeepaliveInterval > 0 {
		ms := cfg.KeepaliveInterval.Milliseconds()
		if ms < 1 {
			ms = 1
		}
		if ms > maxAdvertiseKeepaliveMs {
			ms = maxAdvertiseKeepaliveMs
		}
		kaMs = uint32(ms)
	}
	adv := wire.DefaultLimits()
	if cfg.Limits.MaxPayload != 0 {
		adv.MaxPayload = cfg.Limits.MaxPayload
	}
	if cfg.Limits.InitialWindow != 0 {
		adv.InitialWindow = cfg.Limits.InitialWindow
	}
	if cfg.Limits.AckFrames != 0 {
		adv.AckFrames = cfg.Limits.AckFrames
	}
	if cfg.Limits.AckBytes != 0 {
		adv.AckBytes = cfg.Limits.AckBytes
	}
	adv.KeepaliveMs = kaMs
	if err := adv.Validate(); err != nil {
		if cfg.Logf != nil {
			cfg.Logf("transport: invalid limits override (%v); advertising defaults", err)
		}
		adv = wire.DefaultLimits()
		adv.KeepaliveMs = kaMs
	}
	return adv
}

func (m *Manager) addrLock(addr string) *sync.Mutex {
	m.dialMuMu.Lock()
	defer m.dialMuMu.Unlock()
	mu := m.dialMu[addr]
	if mu == nil {
		mu = &sync.Mutex{}
		m.dialMu[addr] = mu
	}
	return mu
}

func (m *Manager) lookup(addr string) (*Transport, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.byAddr[addr]
	return t, ok && !m.closed
}

func (m *Manager) isClosed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// trackPending registers an in-flight handshake connection so Close can
// fail it promptly; it reports false when the manager is already closed.
func (m *Manager) trackPending(conn net.Conn) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	m.pending[conn] = struct{}{}
	return true
}

func (m *Manager) untrackPending(conn net.Conn) {
	m.mu.Lock()
	delete(m.pending, conn)
	m.mu.Unlock()
}

// dial runs cfg.Dial without letting a slow connect outlive the manager:
// the caller gets ErrClosed as soon as the manager closes, and the dial
// goroutine closes the late connection when (bounded by the dial timeout)
// it finally returns.
func (m *Manager) dial(addr string, timeout time.Duration) (net.Conn, error) {
	type dialResult struct {
		conn net.Conn
		err  error
	}
	ch := make(chan dialResult)
	go func() {
		conn, err := m.cfg.Dial(addr, timeout)
		select {
		case ch <- dialResult{conn, err}:
		case <-m.done:
			if conn != nil {
				conn.Close()
			}
		}
	}()
	select {
	case r := <-ch:
		return r.conn, r.err
	case <-m.done:
		return nil, ErrClosed
	}
}

// dialTransport opens the underlying connection for a transport to addr:
// a direct dial first, then — when a relay is configured and addr is not
// the relay itself — a rendezvous through the relay. Both paths run
// through m.dial, so cfg.Dial hooks (fault injection, NAT models) and
// manager-close semantics apply to relay legs too. It reports whether the
// returned connection is relayed.
func (m *Manager) dialTransport(addr string, timeout time.Duration) (net.Conn, bool, error) {
	conn, err := m.dial(addr, timeout)
	if err == nil {
		return conn, false, nil
	}
	ra := m.cfg.RelayAddr
	if ra == "" || addr == ra {
		return nil, false, err
	}
	rconn, rerr := relay.DialVia(func(a string, t time.Duration) (net.Conn, error) {
		return m.dial(a, t)
	}, ra, addr, timeout)
	if rerr != nil {
		return nil, false, fmt.Errorf("transport: direct dial failed (%v); relay via %s failed: %w", err, ra, rerr)
	}
	m.relayDials.Inc()
	if m.cfg.Logf != nil {
		m.cfg.Logf("transport: direct dial to %s failed (%v); connected via relay %s", addr, err, ra)
	}
	return rconn, true, nil
}

// Transport returns the live shared transport to addr, dialing and
// handshaking one if none exists. Concurrent callers for the same address
// share a single dial. Closing the manager fails an in-flight dial or
// handshake promptly.
func (m *Manager) Transport(addr string, timeout time.Duration) (*Transport, error) {
	return m.TransportTraced(addr, timeout, obs.SpanContext{})
}

// TransportTraced is Transport with a tracing context: when the lookup
// misses and a fresh dial runs, the dial gets a span under tc and the
// hello carries the context to the acceptor, so cross-host operations see
// the transport establishment they paid for inside their own trace.
func (m *Manager) TransportTraced(addr string, timeout time.Duration, tc obs.SpanContext) (*Transport, error) {
	if t, ok := m.lookup(addr); ok {
		return t, nil
	}
	lock := m.addrLock(addr)
	lock.Lock()
	defer lock.Unlock()
	// Another caller may have finished the dial while we waited.
	if t, ok := m.lookup(addr); ok {
		return t, nil
	}
	if m.isClosed() {
		return nil, ErrClosed
	}
	if timeout <= 0 {
		timeout = m.cfg.HandshakeTimeout
	}
	sp := m.cfg.Tracer.StartSpan(tc, "transport.dial")
	sp.Annotate("addr=" + addr)
	defer sp.End()
	// Propagate the dial span when we have one, else the caller's context
	// untouched — a tracing acceptor can join either way.
	trace := sp.Context().Marshal()
	if trace == nil {
		trace = tc.Marshal()
	}
	dialStart := time.Now()
	conn, relayed, err := m.dialTransport(addr, timeout)
	if err != nil {
		return nil, err
	}
	if relayed {
		sp.Annotate("via=relay")
	}
	// Track the handshake so Manager.Close can cut it short by closing the
	// connection under it.
	if !m.trackPending(conn) {
		conn.Close()
		return nil, ErrClosed
	}
	conn.SetDeadline(time.Now().Add(m.cfg.HandshakeTimeout))
	hs, err := clientHandshake(conn, &m.cfg, trace)
	m.untrackPending(conn)
	if err != nil {
		conn.Close()
		if m.isClosed() {
			return nil, ErrClosed
		}
		return nil, err
	}
	conn.SetDeadline(time.Time{})
	t := m.register(conn, hs, true, addr, relayed)
	if t == nil {
		return nil, ErrClosed
	}
	t.dialAddr = addr
	// Seed the RTT estimate from what the dial + handshake cost: three
	// round trips (TCP connect, hello exchange, tag exchange), so a WAN
	// transport starts with WAN-scaled timeouts before its first pong.
	t.seedRTT(time.Since(dialStart) / 3)
	return t, nil
}

// HandleConn runs the accept side of the transport handshake on an inbound
// connection and registers the result; a connection that does not open
// with a valid hello is closed. A resume hello instead
// resurrects the prior session in place (see resume.go). It returns once
// the handshake finishes; the transport's read loop runs on its own
// goroutine.
func (m *Manager) HandleConn(conn net.Conn) error {
	return m.handleConn(conn, false)
}

// HandleRelayedConn is HandleConn for a connection that arrived through a
// rendezvous relay call-in (internal/relay.Client) instead of the local
// listener; the transport is marked relayed for the debug surface.
func (m *Manager) HandleRelayedConn(conn net.Conn) error {
	return m.handleConn(conn, true)
}

func (m *Manager) handleConn(conn net.Conn, relayed bool) error {
	if !m.trackPending(conn) {
		conn.Close()
		return ErrClosed
	}
	conn.SetDeadline(time.Now().Add(m.cfg.HandshakeTimeout))
	peer, recvd, err := wire.ReadTransportHello(conn)
	if err != nil {
		m.untrackPending(conn)
		conn.Close()
		return err
	}
	if peer.Resume {
		err := m.handleResume(conn, peer, recvd, relayed)
		m.untrackPending(conn)
		return err
	}
	started := time.Now()
	hs, err := serverHandshake(conn, &m.cfg, peer, recvd)
	m.untrackPending(conn)
	if err != nil {
		conn.Close()
		return err
	}
	if tc, ok := obs.UnmarshalSpanContext(peer.Trace); ok {
		sp := m.cfg.Tracer.StartSpanAt(tc, "transport.accept", started)
		sp.Annotate("peer=" + peer.Host)
		sp.End()
	}
	conn.SetDeadline(time.Time{})
	// Register under the peer's advertised redirector address so our own
	// later dials toward that host reuse this transport. Registration
	// deliberately skips the dial lock: the dialer side may be mid-
	// handshake holding it (loopback, or crossed simultaneous dials), and
	// blocking here would deadlock both.
	t := m.register(conn, hs, false, peer.Addr, relayed)
	if t == nil {
		return ErrClosed
	}
	// The acceptor's handshake spans one round trip (hello out, tag back).
	t.seedRTT(time.Since(started))
	return nil
}

// byID returns the live transport with the given id.
func (m *Manager) byID(id wire.ConnID) *Transport {
	m.mu.Lock()
	defer m.mu.Unlock()
	for t := range m.all {
		if t.id == id {
			return t
		}
	}
	return nil
}

// register wires up a handshaken transport and starts its read loop. The
// addrKey may be "" (peer without a redirector); an existing entry for the
// same address is left in place — both transports stay usable, the table
// just keeps steering new opens at the incumbent.
func (m *Manager) register(conn net.Conn, hs *handshakeResult, dialer bool, addrKey string, relayed bool) *Transport {
	if m.cfg.WrapData != nil {
		conn = m.cfg.WrapData(conn)
	}
	auth, err := newResumeAuth(hs.secret)
	if err != nil {
		conn.Close()
		return nil
	}
	// Secure sessions sign resume tokens under a dedicated HKDF-derived
	// key; insecure sessions have no key schedule and use the session key.
	resumeAuth := auth
	if hs.ks != nil {
		if resumeAuth, err = dhkx.NewAuthenticator(hs.ks.ResumeTagKey()); err != nil {
			conn.Close()
			return nil
		}
	}
	t := &Transport{
		mgr:        m,
		conn:       conn,
		id:         hs.id,
		secret:     hs.secret,
		auth:       auth,
		resumeAuth: resumeAuth,
		neg:        hs.neg,
		ks:         hs.ks,
		dialer:     dialer,
		peerHost:   hs.peer.Host,
		peerAddr:   hs.peer.Addr,
		gen:        1,
		readerDone: make(chan struct{}),
		streams:    make(map[uint64]*Stream),
		opened:     time.Now(),
		relayed:    relayed,
		rec:        newFlightRecorder(),
	}
	lim := hs.neg.Limits
	t.maxPlain = int(lim.MaxPayload)
	t.streamWindow = int(lim.InitialWindow)
	t.streamWindowAt = int(lim.InitialWindow / 2)
	t.ackFrames = int(lim.AckFrames)
	t.ackBytes = int(lim.AckBytes)
	// The negotiated probe interval is the min of both advertisements,
	// so probing never gets slower than the local config asked for; a
	// locally disabled keepalive stays disabled regardless of the peer.
	t.kaInterval = m.cfg.KeepaliveInterval
	if m.cfg.KeepaliveInterval > 0 && lim.KeepaliveMs > 0 {
		t.kaInterval = time.Duration(lim.KeepaliveMs) * time.Millisecond
	}
	var opener *security.Opener
	if hs.neg.Cipher == wire.CipherAES256GCM {
		// Sealed containers ride inside the negotiated frame limit: the
		// container plaintext cap shrinks by the AEAD tag so every sealed
		// container still fits a pooled buffer of the negotiated class, and
		// one frame's payload additionally leaves room for its inner header
		// so a full-size data frame always fits a container alone.
		t.containerPlain = t.maxPlain - security.RecordOverhead
		t.maxPlain = t.containerPlain - wire.MuxHeaderSize
		dialKey, acceptKey := hs.ks.SealKeys(hs.transcript)
		sealKey, openKey := dialKey, acceptKey
		if !dialer {
			sealKey, openKey = acceptKey, dialKey
		}
		sealer, serr := security.NewSealer(sealKey)
		op, oerr := security.NewOpener(openKey)
		if serr != nil || oerr != nil {
			conn.Close()
			return nil
		}
		t.sealer = sealer
		opener = op
		t.flusher = newRecordFlusher(t)
		m.encrypted.Inc()
	} else {
		m.cleartext.Inc()
	}
	t.lastRead.Store(time.Now().UnixNano())
	path := "direct"
	if relayed {
		path = "relay"
	}
	if dialer {
		t.rec.record("dial", "peer=%s remote=%s cipher=%s via=%s", hs.peer.Host, conn.RemoteAddr(), wire.CipherName(hs.neg.Cipher), path)
	} else {
		t.rec.record("accept", "peer=%s remote=%s cipher=%s via=%s", hs.peer.Host, conn.RemoteAddr(), wire.CipherName(hs.neg.Cipher), path)
	}
	if dialer {
		t.nextID = 1
	} else {
		t.nextID = 2
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		conn.Close()
		return nil
	}
	m.all[t] = struct{}{}
	close(m.registered)
	m.registered = make(chan struct{})
	if addrKey != "" {
		if _, taken := m.byAddr[addrKey]; !taken {
			m.byAddr[addrKey] = t
			t.addrKey = addrKey
		}
	}
	m.mu.Unlock()
	if t.flusher != nil {
		go t.flusher.run()
	}
	go t.readLoop(conn, t.readerDone, opener)
	go t.keepalive(conn)
	return t
}

// remove forgets a failed transport, keeping a tombstone for the debug
// surface's "lost" state.
func (m *Manager) remove(t *Transport, cause error) {
	info := t.info()
	info.State = fmt.Sprintf("lost (%v)", cause)
	m.mu.Lock()
	delete(m.all, t)
	if t.addrKey != "" && m.byAddr[t.addrKey] == t {
		delete(m.byAddr, t.addrKey)
	}
	m.lost = append(m.lost, info)
	if len(m.lost) > maxLostInfos {
		m.lost = m.lost[len(m.lost)-maxLostInfos:]
	}
	m.mu.Unlock()
}

// OpenStream opens a logical stream to the peer at addr, establishing the
// shared transport first if needed (timeout bounds that; the open itself
// waits for nothing). If a warm transport dies between lookup and open, the
// open is retried once on a fresh transport.
func (m *Manager) OpenStream(addr string, hdr *wire.HandoffHeader, timeout time.Duration) (*Stream, error) {
	return m.OpenStreamTraced(addr, hdr, timeout, obs.SpanContext{})
}

// OpenStreamTraced is OpenStream carrying a tracing context into any
// fresh transport dial the open triggers.
func (m *Manager) OpenStreamTraced(addr string, hdr *wire.HandoffHeader, timeout time.Duration, tc obs.SpanContext) (*Stream, error) {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		t, err := m.TransportTraced(addr, timeout, tc)
		if err != nil {
			return nil, err
		}
		s, err := t.OpenStream(hdr)
		if err == nil {
			return s, nil
		}
		lastErr = err
		if t.alive() {
			// The transport is fine; the header is what cannot be sent.
			return nil, err
		}
	}
	return nil, lastErr
}

// FailIfReconnecting fails the transport with the given id if and only if
// it is currently between connections trying to resume, returning whether
// it did. The core layer calls this when a peer's connection-level RES
// proves the peer's end of the session is gone for good (crash + restart
// re-handshakes the connection; it never resumes the old transport) —
// waiting out the resume window would only stall recovery.
func (m *Manager) FailIfReconnecting(id wire.ConnID, cause error) bool {
	t := m.byID(id)
	if t == nil {
		return false
	}
	t.mu.Lock()
	down := t.reconnecting && !t.closed
	t.mu.Unlock()
	if !down {
		return false
	}
	t.fail(fmt.Errorf("%w: peer abandoned session: %v", ErrTransportLost, cause))
	return true
}

// SecretByID returns the secret of the live transport with the given id,
// for deriving connection session keys on the accepting side of CONNECT.
// The dialer finishes its handshake before it sends CONNECT, but that UDP
// message can outrun the last handshake byte on the TCP path, so an id not
// registered yet is waited for — woken by register, not polled — for up to
// wait.
func (m *Manager) SecretByID(id wire.ConnID, wait time.Duration) ([]byte, bool) {
	var expired <-chan time.Time
	for {
		// Snapshot the signal before looking, so a registration that lands
		// after the look still wakes the wait below.
		m.mu.Lock()
		registered := m.registered
		m.mu.Unlock()
		if t := m.byID(id); t != nil {
			return t.secret, true
		}
		if wait <= 0 {
			return nil, false
		}
		if expired == nil {
			timer := time.NewTimer(wait)
			defer timer.Stop()
			expired = timer.C
		}
		select {
		case <-registered:
		case <-expired:
			return nil, false
		case <-m.done:
			return nil, false
		}
	}
}

// Counts returns the number of live transports and the total live streams
// across them, for the transport.active / transport.streams gauges.
func (m *Manager) Counts() (transports, streams int) {
	m.mu.Lock()
	all := make([]*Transport, 0, len(m.all))
	for t := range m.all {
		all = append(all, t)
	}
	m.mu.Unlock()
	for _, t := range all {
		streams += t.streamCount()
	}
	return len(all), streams
}

// Info describes one transport for the debug surface.
type Info struct {
	ID       wire.ConnID
	PeerHost string
	PeerAddr string
	Dialer   bool
	Streams  int
	Opened   time.Time
	// Cipher names the record-layer cipher the session negotiated
	// ("cleartext" for insecure mode or encryption disabled); Limits are
	// the effective negotiated limits.
	Cipher string
	Limits wire.Limits
	// State is "connected", "reconnecting(n)" with n the attempt count of
	// the current outage, or "lost (<cause>)" for a tombstone.
	State string
	// ResumeDeadline is when the current outage's resume window expires
	// (zero unless reconnecting): past it the transport fails with
	// ErrTransportLost.
	ResumeDeadline time.Time
	// LastKeepalive is when the transport last saw any inbound frame
	// (data or keepalive), feeding the half-open detector.
	LastKeepalive time.Time
	// RTT is the smoothed path round-trip estimate (zero before any
	// sample); Relayed reports whether the current connection runs through
	// a rendezvous relay instead of a direct dial.
	RTT     time.Duration
	Relayed bool
	// Events is the transport's flight-recorder ring, oldest first;
	// EventCounts are cumulative per-kind totals that survive ring
	// eviction.
	Events      []RecorderEvent
	EventCounts map[string]uint64
}

// info snapshots one transport's debug state.
func (t *Transport) info() Info {
	t.mu.Lock()
	state := "connected"
	if t.reconnecting {
		state = fmt.Sprintf("reconnecting(%d)", t.attempts)
	}
	if t.closed {
		state = "lost"
	}
	info := Info{
		ID:             t.id,
		PeerHost:       t.peerHost,
		PeerAddr:       t.peerAddr,
		Dialer:         t.dialer,
		Streams:        len(t.streams),
		Opened:         t.opened,
		Cipher:         wire.CipherName(t.neg.Cipher),
		Limits:         t.neg.Limits,
		State:          state,
		ResumeDeadline: t.resumeDeadline,
		Relayed:        t.relayed,
	}
	t.mu.Unlock()
	info.RTT = t.SRTT()
	if nanos := t.lastRead.Load(); nanos != 0 {
		info.LastKeepalive = time.Unix(0, nanos)
	}
	info.Events, info.EventCounts = t.rec.snapshot()
	return info
}

// Infos returns a stable-ordered snapshot of the live transports followed
// by the recently lost ones.
func (m *Manager) Infos() []Info {
	m.mu.Lock()
	all := make([]*Transport, 0, len(m.all))
	for t := range m.all {
		all = append(all, t)
	}
	lost := append([]Info(nil), m.lost...)
	m.mu.Unlock()
	infos := make([]Info, 0, len(all)+len(lost))
	for _, t := range all {
		infos = append(infos, t.info())
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Opened.Before(infos[j].Opened) })
	return append(infos, lost...)
}

// CloseTransports fails every live transport but leaves the manager usable;
// the next open pays the full dial + handshake again (tests use this to
// measure cold-path cost).
func (m *Manager) CloseTransports() {
	m.mu.Lock()
	all := make([]*Transport, 0, len(m.all))
	for t := range m.all {
		all = append(all, t)
	}
	m.mu.Unlock()
	for _, t := range all {
		t.fail(ErrClosed)
	}
}

// Close shuts the manager down: every transport fails, in-flight dials and
// handshakes abort promptly, and future opens return ErrClosed.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	all := make([]*Transport, 0, len(m.all))
	for t := range m.all {
		all = append(all, t)
	}
	pending := make([]net.Conn, 0, len(m.pending))
	for c := range m.pending {
		pending = append(pending, c)
	}
	m.mu.Unlock()
	close(m.done)
	for _, c := range pending {
		c.Close()
	}
	for _, t := range all {
		t.fail(ErrClosed)
	}
}
