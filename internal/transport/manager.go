package transport

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

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
	// on cleartext framing while the DH exchange and transcript tags still
	// run. Benchmarks use it to isolate the record
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
	// Logger receives transport-level events; a transport's lines carry
	// its id and peer host as fields. Nil discards.
	Logger *obs.Logger

	// KeepaliveInterval is how long a transport may sit without inbound
	// traffic before the side probes it with a mux ping; 0 means the 15s
	// default, negative disables keepalive probing entirely.
	KeepaliveInterval time.Duration
	// KeepaliveTimeout is the inbound-silence threshold past which the
	// connection is declared half-open and the transport fails; 0 defaults
	// to 3x the keepalive interval.
	KeepaliveTimeout time.Duration
	// RelayAddr is the address of a rendezvous relay (internal/relay) to
	// fall back to when a direct dial fails; "" disables the fallback. The
	// relay sees only the transport handshake and (on encrypted sessions)
	// AEAD ciphertext.
	RelayAddr string
	// Metrics receives the transport.keepalive_timeouts,
	// transport.encrypted / transport.cleartext and transport.relay_dials
	// counters; nil records nothing.
	Metrics *obs.Registry
	// Tracer records transport dial/accept spans; a fresh dial performed
	// with a trace context (TransportTraced) joins that trace and carries
	// it to the acceptor in the hello. Nil disables tracing.
	Tracer *obs.Tracer

	// advertised is the validated limits advertisement NewManager computed
	// from Limits and KeepaliveInterval; hellos carry it verbatim.
	advertised wire.Limits
}

// helloNegotiation fills the negotiation section of an outbound hello: the
// supported versions, the cipher suites this side will encrypt under (none
// when encryption is off — negotiation then settles on cleartext), and the
// advertised limits.
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

	// done closes when the manager closes, releasing dials blocked in
	// flight and TransportByID waiters.
	done chan struct{}

	// Metrics (nil-safe when cfg.Metrics is nil): half-open declarations.
	keepaliveTimeouts *obs.Counter
	// Session-security metrics: how many transport sessions negotiated an
	// AEAD record layer versus settling on cleartext framing (insecure
	// mode, or encryption disabled on either side).
	encrypted *obs.Counter
	cleartext *obs.Counter
	// relayDials counts connections established through the rendezvous
	// relay after a direct dial failed.
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
	// waking TransportByID callers waiting for an id to appear.
	registered chan struct{}
	// dialing holds an entry per address with a dial in flight, closed and
	// removed when that dial returns, so N concurrent opens to a new peer
	// produce exactly one connection. Registering an accepted inbound
	// transport never waits on it, so a host dialing itself (or two hosts
	// dialing each other simultaneously) cannot deadlock.
	dialing map[string]chan struct{}
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
	cfg.advertised = advertisedLimits(&cfg)
	m := &Manager{
		cfg:               cfg,
		done:              make(chan struct{}),
		keepaliveTimeouts: cfg.Metrics.Counter("transport.keepalive_timeouts"),
		encrypted:         cfg.Metrics.Counter("transport.encrypted"),
		cleartext:         cfg.Metrics.Counter("transport.cleartext"),
		relayDials:        cfg.Metrics.Counter("transport.relay_dials"),
		byAddr:            make(map[string]*Transport),
		all:               make(map[*Transport]struct{}),
		pending:           make(map[net.Conn]struct{}),
		registered:        make(chan struct{}),
		dialing:           make(map[string]chan struct{}),
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
	adv.KeepaliveMs = kaMs
	if err := adv.Validate(); err != nil {
		cfg.Logger.Warnf("transport: invalid limits override (%v); advertising defaults", err)
		adv = wire.DefaultLimits()
		adv.KeepaliveMs = kaMs
	}
	return adv
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
	m.cfg.Logger.Infof("transport: direct dial to %s failed (%v); connected via relay %s", addr, err, ra)
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
	for {
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return nil, ErrClosed
		}
		if t, ok := m.byAddr[addr]; ok && t.alive() {
			m.mu.Unlock()
			return t, nil
		}
		wait, busy := m.dialing[addr]
		if !busy {
			done := make(chan struct{})
			m.dialing[addr] = done
			m.mu.Unlock()
			t, err := m.dialNew(addr, timeout, tc)
			m.mu.Lock()
			delete(m.dialing, addr)
			m.mu.Unlock()
			close(done)
			return t, err
		}
		m.mu.Unlock()
		// Another caller's dial is in flight: take its transport, or dial
		// again if it failed.
		<-wait
	}
}

// dialNew dials and handshakes a fresh transport to addr; the caller holds
// addr's in-flight dial entry.
func (m *Manager) dialNew(addr string, timeout time.Duration, tc obs.SpanContext) (*Transport, error) {
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
	// Seed the RTT estimate from what the dial + handshake cost: three
	// round trips (TCP connect, hello exchange, tag exchange), so a WAN
	// transport starts with WAN-scaled timeouts before its first pong.
	t.seedRTT(time.Since(dialStart) / 3)
	return t, nil
}

// HandleConn runs the accept side of the transport handshake on an inbound
// connection and registers the result; a connection that does not open
// with a valid hello is closed. It returns once the handshake finishes;
// the transport's read loop runs on its own goroutine.
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
	t := &Transport{
		mgr:      m,
		conn:     conn,
		id:       hs.id,
		secret:   hs.secret,
		neg:      hs.neg,
		dialer:   dialer,
		peerHost: hs.peer.Host,
		peerAddr: hs.peer.Addr,
		streams:  make(map[uint64]*Stream),
		done:     make(chan struct{}),
		down:     make(chan struct{}),
		opened:   time.Now(),
		relayed:  relayed,
		rec:      newFlightRecorder(),
		log:      m.cfg.Logger.With("transport", hs.id).With("peer", hs.peer.Host),
	}
	lim := hs.neg.Limits
	// A frame's record — header, payload and, when sealed, the tag — fits
	// the negotiated MaxPayload, so a full-size frame's record exactly
	// fills a pooled buffer of the negotiated class.
	t.maxPlain = int(lim.MaxPayload) - wire.MuxHeaderSize
	t.streamWindow = int(lim.InitialWindow)
	t.streamWindowAt = int(lim.InitialWindow / 2)
	// The negotiated probe interval is the min of both advertisements,
	// so probing never gets slower than the local config asked for; a
	// locally disabled keepalive stays disabled regardless of the peer.
	t.kaInterval = m.cfg.KeepaliveInterval
	if m.cfg.KeepaliveInterval > 0 && lim.KeepaliveMs > 0 {
		t.kaInterval = time.Duration(lim.KeepaliveMs) * time.Millisecond
	}
	var opener *security.Opener
	var sealer *security.Sealer
	if hs.neg.Cipher == wire.CipherAES256GCM {
		t.maxPlain -= security.RecordOverhead
		dialKey, acceptKey := hs.ks.SealKeys(hs.transcript)
		sealKey, openKey := dialKey, acceptKey
		if !dialer {
			sealKey, openKey = acceptKey, dialKey
		}
		var serr, oerr error
		sealer, serr = security.NewSealer(sealKey)
		opener, oerr = security.NewOpener(openKey)
		if serr != nil || oerr != nil {
			conn.Close()
			return nil
		}
		m.encrypted.Inc()
	} else {
		m.cleartext.Inc()
	}
	t.flusher = newRecordFlusher(t, conn, sealer)
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
		if old, taken := m.byAddr[addrKey]; !taken || !old.alive() {
			m.byAddr[addrKey] = t
			t.addrKey = addrKey
		}
	}
	m.mu.Unlock()
	go t.flusher.run()
	go t.readLoop(opener)
	go t.keepalive()
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

// TransportByID returns the live transport with the given id, or nil: the
// transport a CONNECT names, whose secret keys the connection and on which
// the accepting side opens its data stream. The dialer finishes its
// handshake before it sends CONNECT, but that UDP message can outrun the
// last handshake byte on the TCP path, so an id not registered yet is waited
// for — woken by register, not polled — for up to wait.
func (m *Manager) TransportByID(id wire.ConnID, wait time.Duration) *Transport {
	var expired <-chan time.Time
	for {
		// Snapshot the signal before looking, so a registration that lands
		// after the look still wakes the wait below.
		m.mu.Lock()
		registered := m.registered
		m.mu.Unlock()
		if t := m.byID(id); t != nil {
			return t
		}
		if wait <= 0 {
			return nil
		}
		if expired == nil {
			timer := time.NewTimer(wait)
			defer timer.Stop()
			expired = timer.C
		}
		select {
		case <-registered:
		case <-expired:
			return nil
		case <-m.done:
			return nil
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
	// State is "connected", or "lost (<cause>)" for a tombstone.
	State string
	// LastKeepalive is when the transport last saw any inbound frame
	// (data or keepalive), feeding the half-open detector.
	LastKeepalive time.Time
	// RTT is the smoothed path round-trip estimate (zero before any
	// sample); Relayed reports whether the connection runs through a
	// rendezvous relay instead of a direct dial.
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
	if t.closed {
		state = "lost"
	}
	info := Info{
		ID:       t.id,
		PeerHost: t.peerHost,
		PeerAddr: t.peerAddr,
		Dialer:   t.dialer,
		Streams:  len(t.streams),
		Opened:   t.opened,
		Cipher:   wire.CipherName(t.neg.Cipher),
		Limits:   t.neg.Limits,
		State:    state,
		Relayed:  t.relayed,
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
	// A transport another goroutine is failing (its peer went away first)
	// may still be dumping its flight recorder into the log: none outlives
	// Close.
	for _, t := range all {
		<-t.down
	}
}
