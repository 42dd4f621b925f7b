package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"naplet/internal/agent"
	"naplet/internal/dhkx"
	"naplet/internal/fsm"
	"naplet/internal/journal"
	"naplet/internal/metrics"
	"naplet/internal/naming"
	"naplet/internal/obs"
	"naplet/internal/relay"
	"naplet/internal/rudp"
	"naplet/internal/security"
	"naplet/internal/transport"
	"naplet/internal/wire"
)

// Config configures a Controller.
type Config struct {
	// HostName names the host this controller serves.
	HostName string
	// ControlAddr is the UDP control-channel bind address ("" for an
	// ephemeral loopback port); DataAddr likewise for the redirector.
	ControlAddr string
	DataAddr    string
	// Guard enforces agent-oriented access control (required).
	Guard *security.Guard
	// Locator resolves agents at connection setup (required). Results are
	// held in the controller's migration-aware location cache: keyed by
	// agent id, guarded by Record.Epoch, and invalidated by the
	// SUS/SUS_RES/RES control messages rather than by TTL expiry.
	Locator naming.Resolver
	// Insecure disables the Diffie-Hellman key exchange and the
	// authentication/authorization checks at setup — the paper's
	// "NapletSocket w/o security" configuration. Control messages are
	// still tagged under a connection-id-derived key so the protocol shape
	// is unchanged. Both hosts of a connection must agree on this setting.
	Insecure bool
	// DisableFailureResume turns off the fault-tolerance extension
	// (automatic re-resume after a data socket failure).
	DisableFailureResume bool
	// Journal, when non-nil, receives connection-state checkpoints at each
	// lifecycle edge and feeds RecoverConns after a restart.
	Journal *journal.Journal
	// ControlDropFn, when non-nil, can drop outgoing control packets
	// (returns true to drop) — fault injection for partition tests,
	// forwarded to the reliable-UDP endpoint.
	ControlDropFn func([]byte) bool
	// OpTimeout bounds each control exchange; ParkTimeout bounds waits on
	// peer migrations (SUSPEND_WAIT / RESUME_WAIT / resume retries).
	// Defaults: 5s and 60s.
	OpTimeout   time.Duration
	ParkTimeout time.Duration
	// HandshakeTimeout bounds the per-host-pair transport handshake; zero
	// picks the transport default.
	HandshakeTimeout time.Duration
	// DialData, when non-nil, replaces net.DialTimeout for the shared
	// transport's kernel connection — tests count calls through it to prove
	// that logical connections share one transport per host pair.
	DialData func(addr string, timeout time.Duration) (net.Conn, error)
	// RelayVia, when non-empty, names a relay server (see internal/relay)
	// used two ways: the controller keeps a registration leg open so peers
	// that cannot dial this host's redirector directly can still reach it,
	// and the shared transport falls back to dialing peers through the
	// relay when the direct dial fails. The relay is untrusted — it sees
	// only transport hellos and AEAD ciphertext.
	RelayVia string
	// DrainTimeout bounds the pre-suspend drain. Default 5s.
	DrainTimeout time.Duration
	// TransportKeepaliveInterval / TransportKeepaliveTimeout tune the
	// shared transport's half-open detection — the one dead-peer detector
	// (mux ping after interval of inbound silence, declared dead after
	// timeout). Zero picks the transport defaults (15s / 3x interval); a
	// negative interval disables keepalive probing.
	TransportKeepaliveInterval time.Duration
	TransportKeepaliveTimeout  time.Duration
	// DisableTransportEncryption keeps the negotiated shared transport's
	// frames cleartext: the hello advertises no cipher suites,
	// while the DH exchange, transcript tags, and resume tokens still run
	// in secure mode. Benchmarks use it to isolate the AEAD record
	// layer's cost; Insecure implies it.
	DisableTransportEncryption bool
	// OpenBreakdown, when non-nil, accumulates the Figure 8 phase timings
	// of every Open issued through this controller.
	OpenBreakdown *metrics.Breakdown
	// SuspendBreakdown and ResumeBreakdown, when non-nil, accumulate the
	// per-phase timings of locally issued suspends and resumes, parallel to
	// the Figure 8 open breakdown. When Metrics is set and these are nil,
	// breakdowns are created internally so the phase gauges are always
	// populated.
	SuspendBreakdown *metrics.Breakdown
	ResumeBreakdown  *metrics.Breakdown
	// ControlSendDelay applies emulated one-way latency to outgoing control
	// packets (forwarded to the reliable-UDP endpoint).
	ControlSendDelay time.Duration
	// WrapData, when non-nil, wraps each shared transport's kernel
	// connection once its handshake is done — the hook for network
	// emulation (internal/netem). Data streams are multiplexed inside it.
	WrapData func(net.Conn) net.Conn
	// Logger, when non-nil, receives leveled diagnostics; nil logs through
	// the standard library logger at Info.
	Logger *obs.Logger
	// Metrics, when non-nil, receives the controller's lifecycle counters,
	// latency histograms, FSM transition counts, and load gauges
	// (including the control channel's RUDP stats).
	Metrics *obs.Registry
	// Tracer, when non-nil, records distributed spans for connection
	// opens and migrations; the trace context propagates over the wire so
	// one migration yields one trace across every host involved.
	Tracer *obs.Tracer
}

func (c Config) opTimeout() time.Duration {
	if c.OpTimeout > 0 {
		return c.OpTimeout
	}
	return 5 * time.Second
}

func (c Config) parkTimeout() time.Duration {
	if c.ParkTimeout > 0 {
		return c.ParkTimeout
	}
	return 60 * time.Second
}

func (c Config) drainTimeout() time.Duration {
	if c.DrainTimeout > 0 {
		return c.DrainTimeout
	}
	return 5 * time.Second
}

func failureResumeDelay(highPriority bool) time.Duration {
	if highPriority {
		return 50 * time.Millisecond
	}
	return time.Second
}

// Controller is the per-host NapletSocket manager of Section 2.1: it owns
// the control channel and redirector shared by all connections, performs
// the security-checked connection setup on behalf of agents (the proxy
// service of Section 3.3), executes the state machine for every resident
// connection, and acts as the migration hook that suspends and resumes an
// agent's connections around each hop.
type Controller struct {
	cfg Config
	obs *ctrlObs
	ep  *rudp.Endpoint
	red *redirector
	rv  *rendezvous
	// tm owns the shared per-host-pair transports every data stream rides.
	tm *transport.Manager
	// relayCli keeps this host registered with the RelayVia relay so
	// un-dialable peers can still call in; nil unless RelayVia is set.
	relayCli *relay.Client
	// loc caches Locator results keyed by agent id, guarded by epoch and
	// proactively invalidated off the control-message path.
	loc *naming.Cache

	// epochMu guards locEpochs: the directory epoch each resident agent's
	// location entry carries, reported by the agent host after every
	// register/update and stamped onto outgoing SUS_RES/RES messages.
	epochMu   sync.Mutex
	locEpochs map[string]uint64

	// tab is the sharded resident-connection table (conns, per-agent
	// index, migrating flags), striped by agent hash so the per-conn hot
	// path never funnels through one controller-wide lock.
	tab *connTable

	// dp is the shared data-plane worker pool: connections have no
	// pump/flush goroutines of their own, their streams' readable/writable
	// events are serviced here.
	dp *dpPool

	// mu guards the listener map and the closed flag — control-plane
	// state touched at listen/accept/shutdown rate, not per connection.
	mu        sync.Mutex
	listeners map[string]*ServerSocket
	closed    bool

	// closing silences diagnostics once Close begins (the logger may be a
	// testing.T that must not be used after the test ends).
	closing atomic.Bool

	done chan struct{}
}

// NewController starts a controller: the control endpoint and redirector
// are live when it returns.
func NewController(cfg Config) (*Controller, error) {
	if cfg.Guard == nil || cfg.Locator == nil {
		return nil, errors.New("napletsocket: Config requires Guard and Locator")
	}
	ctrl := &Controller{
		cfg:       cfg,
		obs:       newCtrlObs(cfg),
		rv:        newRendezvous(),
		tab:       newConnTable(),
		dp:        newDPPool(),
		loc:       naming.NewCache(cfg.Locator, naming.CacheConfig{Metrics: cfg.Metrics}),
		listeners: make(map[string]*ServerSocket),
		locEpochs: make(map[string]uint64),
		done:      make(chan struct{}),
	}
	ep, err := rudp.Listen(cfg.ControlAddr, ctrl.handleControl,
		rudp.Config{SendDelay: cfg.ControlSendDelay, DropFn: cfg.ControlDropFn})
	if err != nil {
		ctrl.dp.close()
		return nil, err
	}
	ctrl.ep = ep
	red, err := newRedirector(ctrl, cfg.DataAddr)
	if err != nil {
		ep.Close()
		ctrl.dp.close()
		return nil, err
	}
	ctrl.red = red
	ctrl.tm = transport.NewManager(transport.Config{
		HostName:          cfg.HostName,
		AdvertiseAddr:     red.addr(),
		Insecure:          cfg.Insecure,
		Dial:              cfg.DialData,
		RelayAddr:         cfg.RelayVia,
		WrapData:          cfg.WrapData,
		HandshakeTimeout:  cfg.HandshakeTimeout,
		Authorize:         ctrl.authorizeHandoff,
		Deliver:           ctrl.deliverStream,
		Logf:              ctrl.logf,
		KeepaliveInterval: cfg.TransportKeepaliveInterval,
		KeepaliveTimeout:  cfg.TransportKeepaliveTimeout,
		DisableEncryption: cfg.DisableTransportEncryption,
		Metrics:           cfg.Metrics,
		Tracer:            cfg.Tracer,
	})
	red.serve()
	if cfg.RelayVia != "" {
		// Call-in legs delivered by the relay carry the same bytes an
		// accepted redirector socket would, so they take the same path —
		// marked relayed so the transport records how the session reached us.
		ctrl.relayCli = relay.NewClient(relay.ClientConfig{
			RelayAddr: cfg.RelayVia,
			Advertise: red.addr(),
			Dial:      cfg.DialData,
			Handle:    func(conn net.Conn) { red.handle(conn, true) },
			Logf:      ctrl.logf,
		})
	}
	ctrl.registerGauges()
	return ctrl, nil
}

// ControlAddr returns the control channel's UDP address.
func (ctrl *Controller) ControlAddr() string { return ctrl.ep.Addr().String() }

// DataAddr returns the redirector's TCP address.
func (ctrl *Controller) DataAddr() string { return ctrl.red.addr() }

// ControlStats exposes the control channel's counters.
func (ctrl *Controller) ControlStats() rudp.Stats { return ctrl.ep.Stats() }

// Stats is a snapshot of the controller's load.
type Stats struct {
	// Connections is the number of resident connection endpoints.
	Connections int
	// ByState counts resident connections per protocol state name.
	ByState map[string]int
	// Listeners is the number of open server sockets.
	Listeners int
	// MigratingAgents counts agents currently in their suspend phase.
	MigratingAgents int
}

// Stats returns a snapshot of the controller's load, for monitoring and
// tests.
func (ctrl *Controller) Stats() Stats {
	conns := ctrl.tab.all()
	ctrl.mu.Lock()
	listeners := len(ctrl.listeners)
	ctrl.mu.Unlock()
	st := Stats{
		Connections:     len(conns),
		ByState:         make(map[string]int),
		Listeners:       listeners,
		MigratingAgents: ctrl.tab.migratingCount(),
	}
	for _, s := range conns {
		st.ByState[s.State().String()]++
	}
	return st
}

// ConnInfos snapshots every resident connection endpoint, sorted by
// connection id — the data source of the /connz debug view.
func (ctrl *Controller) ConnInfos() []Info {
	conns := ctrl.tab.all()
	infos := make([]Info, 0, len(conns))
	for _, s := range conns {
		infos = append(infos, s.Info())
	}
	sort.Slice(infos, func(i, j int) bool {
		return bytes.Compare(infos[i].ID[:], infos[j].ID[:]) < 0
	})
	return infos
}

// Tracer returns the controller's tracer (nil when not configured); the
// /tracez debug endpoint reads recent traces through it.
func (ctrl *Controller) Tracer() *obs.Tracer { return ctrl.obs.tr }

// Close shuts the controller down; open connections are torn down locally.
func (ctrl *Controller) Close() error {
	ctrl.mu.Lock()
	if ctrl.closed {
		ctrl.mu.Unlock()
		return nil
	}
	ctrl.closed = true
	ctrl.closing.Store(true)
	ctrl.mu.Unlock()
	conns := ctrl.tab.all()
	close(ctrl.done)
	if ctrl.relayCli != nil {
		ctrl.relayCli.Close()
	}
	ctrl.tm.Close()
	for _, s := range conns {
		s.mu.Lock()
		s.markClosedLocked(nil)
		s.mu.Unlock()
	}
	ctrl.dp.close()
	err := ctrl.red.close()
	if eerr := ctrl.ep.Close(); err == nil {
		err = eerr
	}
	return err
}

// pause sleeps d between two attempts of a retry loop. It returns false,
// at once, when the controller closes: the loop must give up with ErrClosed
// instead of sleeping out its backoff against a dead controller.
func (ctrl *Controller) pause(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctrl.done:
		return false
	}
}

// logf reports a degraded or failed operation: Warn on the leveled logger
// (which itself falls back to log.Printf).
func (ctrl *Controller) logf(format string, args ...any) {
	ctrl.olog(obs.LevelWarn, format, args...)
}

func (ctrl *Controller) isMigrating(agentID string) bool {
	return ctrl.tab.isMigrating(agentID)
}

// registerConn adds a socket to the controller's tables.
func (ctrl *Controller) registerConn(s *Socket) {
	ctrl.tab.register(s)
}

// dropConn removes a socket from the tables. This is also the point a
// connection leaves the journal: it is either closed for good or departing
// inside a migration bundle, and either way a restarted host must not
// resurrect it. (Controller.Close deliberately does not drop connections,
// so a graceful shutdown stays recoverable like a crash.)
func (ctrl *Controller) dropConn(s *Socket) {
	ctrl.tab.drop(s)
	ctrl.rv.disarm(connKey{id: s.id, agent: s.localAgent})
	ctrl.dropConnJournal(s)
}

// connByKey fetches a resident connection endpoint by id and local agent.
func (ctrl *Controller) connByKey(id wire.ConnID, localAgent string) (*Socket, bool) {
	return ctrl.tab.byKey(id, localAgent)
}

// AgentSocket re-attaches an agent to one of its connections by id — the
// post-migration handle, since live Socket values cannot travel inside a
// gob-encoded behaviour.
func (ctrl *Controller) AgentSocket(agentID string, id wire.ConnID) (*Socket, error) {
	s, ok := ctrl.tab.agentSocket(agentID, id)
	if !ok {
		return nil, fmt.Errorf("napletsocket: agent %s has no connection %s here", agentID, id)
	}
	return s, nil
}

// AgentSockets lists an agent's resident connections.
func (ctrl *Controller) AgentSockets(agentID string) []*Socket {
	return ctrl.tab.agentSockets(agentID)
}

// ---- migration-aware location cache ----

// lookupAgent resolves an agent's location through the cache.
func (ctrl *Controller) lookupAgent(ctx context.Context, agentID string) (naming.Record, error) {
	return ctrl.loc.Lookup(ctx, agentID)
}

// invalidateLocation drops the agent's cached location: called when a
// connect against the cached addresses failed, or when a SUS announces
// the agent is about to move and its current entry is living on borrowed
// time.
func (ctrl *Controller) invalidateLocation(agentID string) {
	ctrl.loc.Invalidate(agentID)
}

// advanceLocation moves the agent's cached location forward to the
// addresses a SUS_RES/RES announced, at the mover's stamped epoch — the
// piggyback path that keeps the cache fresh without re-consulting the
// registry. A zero epoch (the mover's host never learned its epoch)
// degrades to unconditional invalidation.
func (ctrl *Controller) advanceLocation(agentID string, loc naming.Location, epoch uint64) {
	ctrl.loc.Advance(agentID, loc, epoch)
}

// NoteLocationEpoch records the directory epoch this host's entry for a
// resident agent carries (reported by the agent host after each
// register/update; satisfied structurally as its optional hook
// extension). Outgoing SUS_RES/RES messages stamp it so peers can
// epoch-guard their caches. Epoch zero forgets the agent.
func (ctrl *Controller) NoteLocationEpoch(agentID string, epoch uint64) {
	ctrl.epochMu.Lock()
	defer ctrl.epochMu.Unlock()
	if epoch == 0 {
		delete(ctrl.locEpochs, agentID)
		return
	}
	if epoch > ctrl.locEpochs[agentID] {
		ctrl.locEpochs[agentID] = epoch
	}
}

// locationEpoch returns the last epoch noted for a resident agent (zero
// when unknown).
func (ctrl *Controller) locationEpoch(agentID string) uint64 {
	ctrl.epochMu.Lock()
	defer ctrl.epochMu.Unlock()
	return ctrl.locEpochs[agentID]
}

// LocationCacheStats reports the location cache's effectiveness. The
// second result is always true: the cache cannot be turned off.
func (ctrl *Controller) LocationCacheStats() (naming.CacheStats, bool) {
	return ctrl.loc.Stats(), true
}

// sessionKeyFor derives the connection's session key: from the DH shared
// secret normally, or from the connection id alone in insecure mode (keeps
// the tagging machinery uniform without the key exchange cost).
func (ctrl *Controller) sessionKeyFor(id wire.ConnID, secret []byte) []byte {
	if ctrl.cfg.Insecure {
		return dhkx.DeriveSessionKey(id[:], id[:])
	}
	return dhkx.DeriveSessionKey(secret, id[:])
}

// ---- control-channel dispatch ----

func (ctrl *Controller) handleControl(_ *net.UDPAddr, req []byte) []byte {
	m, err := wire.DecodeControlMsg(req)
	if err != nil {
		ctrl.logf("control %s: %v", ctrl.cfg.HostName, err)
		return rejectReply(wire.ZeroConnID, wire.RejectOther, "malformed control message")
	}
	if m.Type == wire.MsgConnect {
		return ctrl.handleConnect(m)
	}
	s, ok := ctrl.connByKey(m.ConnID, m.To)
	if !ok {
		return rejectReply(m.ConnID, wire.RejectUnknownConn, "unknown connection")
	}
	if err := s.checkAuth(m, req); err != nil {
		ctrl.logf("control %s: %v", ctrl.cfg.HostName, err)
		return rejectReply(m.ConnID, wire.RejectOther, "authentication failed")
	}
	// A message stamped with a trace context gets its handling recorded as
	// a span of the sender's trace — this is how the stationary peer's side
	// of a migration (suspend grant, resume grant, redirector update) lands
	// in the same trace as the mover's.
	rtc := obs.SpanContext{Trace: obs.TraceID(m.TraceID), Span: obs.SpanID(m.SpanID)}
	if rtc.Valid() {
		sp := ctrl.obs.tr.StartSpan(rtc, "handle."+m.Type.String())
		sp.Annotate("from=" + m.From)
		defer sp.End()
	}
	// Location-cache maintenance piggybacks on the (authenticated)
	// migration messages: a SUS means the sender's cached location is about
	// to go stale; a SUS_RES or RES carries the sender's new addresses and
	// post-migration epoch, so the cache moves forward without a registry
	// round trip.
	switch m.Type {
	case wire.MsgSuspend:
		ctrl.invalidateLocation(m.From)
	case wire.MsgSusRes, wire.MsgResume:
		ctrl.advanceLocation(m.From, naming.Location{
			ControlAddr: m.ControlAddr,
			DataAddr:    m.DataAddr,
		}, m.LocEpoch)
	}
	switch m.Type {
	case wire.MsgIDExchange:
		return s.handleIDExchange(m)
	case wire.MsgSuspend, wire.MsgSusRes, wire.MsgResume, wire.MsgClose:
		return s.serve(m)
	default:
		return rejectReply(m.ConnID, wire.RejectOther, fmt.Sprintf("unsupported message %s", m.Type))
	}
}

// rejectReply builds an unsigned rejection (no session context).
func rejectReply(id wire.ConnID, code wire.RejectCode, reason string) []byte {
	return (&wire.ControlReply{Verdict: wire.VerdictReject, Code: code, ConnID: id, Reason: reason}).Encode()
}

// authorizeHandoff validates an arriving data socket's handoff header
// against the connection it claims (Section 3.3: only the holders of the
// session key can attach a socket to a connection).
func (ctrl *Controller) authorizeHandoff(hdr *wire.HandoffHeader) error {
	s, ok := ctrl.connByKey(hdr.ConnID, hdr.TargetAgent)
	if !ok {
		return fmt.Errorf("unknown connection %s", hdr.ConnID)
	}
	if !s.auth.Verify(hdr.SigningBytes(), hdr.Token) {
		return errors.New("bad handoff token")
	}
	if hdr.FromAgent != s.remoteAgent {
		return errors.New("handoff agent mismatch")
	}
	return nil
}

// deliverStream hands an accepted transport stream to the endpoint waiting
// for it; a stream nothing waits for is refused.
func (ctrl *Controller) deliverStream(hdr *wire.HandoffHeader, st *transport.Stream) bool {
	return ctrl.rv.deliver(connKey{id: hdr.ConnID, agent: hdr.TargetAgent}, st)
}

// TransportInfos snapshots the live shared transports — the data source of
// the /connz transport section.
func (ctrl *Controller) TransportInfos() []transport.Info { return ctrl.tm.Infos() }

// CloseTransports tears down every warm shared transport without closing
// the controller; the next data-plane operation pays a cold dial and
// handshake again. Live streams on the transports fail. It exists for
// experiments and tests that need to measure or exercise the cold path.
func (ctrl *Controller) CloseTransports() { ctrl.tm.CloseTransports() }

// transportCounts feeds the transport.active / transport.streams gauges.
func (ctrl *Controller) transportCounts() (int, int) {
	if ctrl.tm == nil {
		return 0, 0
	}
	return ctrl.tm.Counts()
}

// ---- connection establishment (Sections 2.2 and 3.4) ----

// OpenAs establishes a NapletSocket connection from a resident agent to the
// named remote agent, through the controller's proxy service: the agent is
// authenticated and checked against policy, the target located, a session
// key agreed, and the data socket delivered by the target's redirector
// (socket handoff, saving the port-query round trip of Section 3.4). One
// attempt; Dial retries while the target is launching or migrating.
func (ctrl *Controller) OpenAs(agentID string, cred [security.CredentialSize]byte, target string) (*Socket, error) {
	start := time.Now()
	s, err := ctrl.openAs(agentID, cred, target)
	o := ctrl.obs
	if err != nil {
		o.openErrors.Inc()
		// Debug, not Warn: Dial retries failed opens routinely while the
		// target is launching or mid-migration.
		ctrl.olog(obs.LevelDebug, "open %s -> %s failed: %v", agentID, target, err)
		return nil, err
	}
	o.opens.Inc()
	o.openMs.ObserveDuration(time.Since(start))
	s.olog(obs.LevelInfo, "opened in %v", time.Since(start).Round(time.Microsecond))
	return s, nil
}

func (ctrl *Controller) openAs(agentID string, cred [security.CredentialSize]byte, target string) (*Socket, error) {
	bd := ctrl.obs.openBD
	ctx, cancel := context.WithTimeout(context.Background(), ctrl.cfg.opTimeout())
	defer cancel()

	// Each open is its own trace; the CONNECT stamp carries it to the
	// server so both halves of establishment share an id.
	sp := ctrl.obs.tr.StartTrace("connect " + agentID + "->" + target)
	defer sp.End()

	// Security check: authenticate the requesting agent and verify policy
	// (skipped in the paper's "w/o security" configuration).
	if !ctrl.cfg.Insecure {
		start := time.Now()
		err := ctrl.cfg.Guard.Check(agentID, cred, security.Permission{
			Action: security.ActionConnect, Resource: target,
		})
		bd.Add(metrics.PhaseSecurityCheck, time.Since(start))
		if err != nil {
			return nil, err
		}
	}

	// Management: allocate the connection id and locate the target agent.
	start := time.Now()
	id, err := wire.NewConnID()
	if err != nil {
		return nil, err
	}
	rec, err := ctrl.lookupAgent(ctx, target)
	bd.Add(metrics.PhaseManagement, time.Since(start))
	if err != nil {
		return nil, fmt.Errorf("napletsocket: locating agent %q: %w", target, err)
	}
	if rec.Loc.ControlAddr == "" || rec.Loc.DataAddr == "" {
		return nil, fmt.Errorf("napletsocket: agent %q's host has no NapletSocket service", target)
	}

	// Key exchange, client half: acquire the shared transport to the
	// target's host. A warm transport costs a map lookup; a cold one pays
	// the kernel dial and the DH handshake, once per host pair rather than
	// per connection (Table 1 amortisation). In the "w/o security"
	// configuration the transport handshake does no DH, so its cost is
	// socket establishment, not key exchange.
	start = time.Now()
	tr, err := ctrl.tm.TransportTraced(rec.Loc.DataAddr, ctrl.cfg.opTimeout(), sp.Context())
	if ctrl.cfg.Insecure {
		bd.Add(metrics.PhaseOpenSocket, time.Since(start))
	} else {
		bd.Add(metrics.PhaseKeyExchange, time.Since(start))
	}
	if err != nil {
		// The cached location may be the reason the host is unreachable;
		// drop it so the retry path re-resolves.
		ctrl.invalidateLocation(target)
		return nil, fmt.Errorf("napletsocket: transport to %q's host: %w", target, err)
	}

	// Handshake: CONNECT names the transport whose secret keys the
	// connection, so the server derives the same key without a public-value
	// round trip.
	m := &wire.ControlMsg{
		Type:        wire.MsgConnect,
		ConnID:      id,
		From:        agentID,
		To:          target,
		DataAddr:    ctrl.DataAddr(),
		ControlAddr: ctrl.ControlAddr(),
		TraceID:     sp.Context().Trace,
		SpanID:      sp.Context().Span,
	}
	if !ctrl.cfg.Insecure {
		m.TransportID = tr.ID()
	}
	start = time.Now()
	raw, err := ctrl.ep.Request(ctx, rec.Loc.ControlAddr, m.Encode())
	bd.Add(metrics.PhaseHandshaking, time.Since(start))
	if err != nil {
		ctrl.invalidateLocation(target)
		return nil, fmt.Errorf("napletsocket: CONNECT to %q: %w", target, err)
	}
	reply, err := wire.DecodeControlReply(raw)
	if err != nil {
		return nil, err
	}
	if reply.Verdict != wire.VerdictAck {
		// "Not listening here" usually means the target migrated (or has not
		// landed); either way the cached record must not pin the retry loop
		// to this host until the TTL saves it.
		ctrl.invalidateLocation(target)
		err := fmt.Errorf("napletsocket: connection to %q refused: %s", target, reply.Reason)
		if reply.Code == wire.RejectRetry {
			err = fmt.Errorf("%w (%w)", err, errTargetNotReady)
		}
		return nil, err
	}

	// Key exchange, client half: derive the session key from the transport
	// secret bound to the connection id — no per-connection modular
	// exponentiation, and compromise of one connection's key reveals
	// nothing about its siblings on the same transport.
	var key []byte
	if ctrl.cfg.Insecure {
		key = ctrl.sessionKeyFor(id, nil)
	} else {
		start = time.Now()
		key = ctrl.sessionKeyFor(id, tr.Secret())
		bd.Add(metrics.PhaseKeyExchange, time.Since(start))
	}

	s, err := newSocket(ctrl, id, agentID, target, key, fsm.Closed)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.step(fsm.AppOpen) // -> CONNECT_SENT
	s.setPeerAddrsLocked(rec.Loc.ControlAddr, rec.Loc.DataAddr)
	s.mu.Unlock()
	ctrl.registerConn(s)

	// Open socket: a stream on the shared transport, carrying the
	// authenticated handoff header as its open payload and handed off by the
	// target's controller. The open is not waited for.
	start = time.Now()
	err = s.dialAndInstall(wire.HandoffConnect, 0)
	bd.Add(metrics.PhaseOpenSocket, time.Since(start))
	if err != nil {
		return nil, s.abandon(err)
	}

	// Final handshake: report our socket id (the ID message of Fig 3). It
	// overlaps the handoff, and its reply is the handoff's verdict.
	start = time.Now()
	idReply, err := s.request(ctx, wire.MsgIDExchange, nil)
	bd.Add(metrics.PhaseHandshaking, time.Since(start))
	if err != nil {
		return nil, s.abandon(fmt.Errorf("napletsocket: ID exchange with %q: %w", target, err))
	}
	if idReply.Verdict != wire.VerdictAck {
		return nil, s.abandon(fmt.Errorf("napletsocket: ID exchange with %q refused: %s", target, idReply.Reason))
	}
	s.mu.Lock()
	s.establishLocked(fsm.ConnectSent, fsm.RecvConnectAck)
	s.mu.Unlock()
	ctrl.checkpointConn(s)
	return s, nil
}

// dialAndInstall opens a data stream to the peer's (possibly new) redirector
// over the shared transport — dialing and handshaking one only if no warm
// transport exists — for the authenticated connect or resume handoff purpose
// names, and installs it; what the peer is missing is retransmitted behind
// the stream's own open. Nothing waits for the peer: it armed its rendezvous
// for this connection before the ACK to our RES or CONNECT. Its controller
// still authorizes the header, and a refusal is a reset of the stream — a
// stream death, which readerExit and establishLocked handle.
func (s *Socket) dialAndInstall(purpose wire.HandoffPurpose, peerHasUpTo uint64) error {
	s.mu.Lock()
	addr := s.peerDataAddr
	s.sendNonce++
	hdr := &wire.HandoffHeader{
		Purpose:     purpose,
		ConnID:      s.id,
		TargetAgent: s.remoteAgent,
		FromAgent:   s.localAgent,
		Nonce:       s.sendNonce,
	}
	tc := s.traceSpan.Context()
	s.mu.Unlock()
	hdr.Token = s.auth.Sign(hdr.SigningBytes())
	stream, err := s.ctrl.tm.OpenStreamTraced(addr, hdr, s.ctrl.cfg.opTimeout(), tc)
	if err != nil {
		return err
	}
	return s.installSocket(stream, peerHasUpTo)
}

// handleConnect serves a CONNECT request on the server side: policy check,
// key agreement (derived from the shared transport's secret), connection
// creation, and redirector arming. Establishment completes when both the
// data stream (via the transport) and the client's ID message arrive.
func (ctrl *Controller) handleConnect(m *wire.ControlMsg) []byte {
	if rtc := (obs.SpanContext{Trace: obs.TraceID(m.TraceID), Span: obs.SpanID(m.SpanID)}); rtc.Valid() {
		sp := ctrl.obs.tr.StartSpan(rtc, "handle.CONNECT")
		sp.Annotate("from=" + m.From)
		defer sp.End()
	}
	target := m.To
	ctrl.mu.Lock()
	ss := ctrl.listeners[target]
	closed := ctrl.closed
	ctrl.mu.Unlock()
	if closed {
		return rejectReply(m.ConnID, wire.RejectOther, "host closing")
	}
	if ss == nil || ss.isClosed() {
		return rejectReply(m.ConnID, wire.RejectRetry, fmt.Sprintf("agent %q is not listening here", target))
	}
	if m.ConnID.IsZero() || m.From == "" {
		return rejectReply(m.ConnID, wire.RejectOther, "malformed CONNECT")
	}
	if _, dup := ctrl.connByKey(m.ConnID, target); dup {
		return rejectReply(m.ConnID, wire.RejectOther, "duplicate connection id")
	}

	// Server-side security check: the listening agent's policy must accept
	// connections (checked against the dialing agent as resource).
	bd := ctrl.obs.openBD
	if !ctrl.cfg.Insecure {
		start := time.Now()
		err := ctrl.cfg.Guard.Check(target, ss.cred, security.Permission{
			Action: security.ActionListen, Resource: m.From,
		})
		bd.Add(metrics.PhaseSecurityCheck, time.Since(start))
		if err != nil {
			return rejectReply(m.ConnID, wire.RejectOther, "refused by policy")
		}
	}

	// Key agreement, server half: look up the named transport's secret and
	// bind it to the connection id — the DH work already happened once at
	// transport setup. CONNECT can outrun the transport's registration
	// here; the lookup waits that out before the client is bounced into a
	// retry.
	var key []byte
	if ctrl.cfg.Insecure {
		key = ctrl.sessionKeyFor(m.ConnID, nil)
	} else {
		start := time.Now()
		secret, ok := ctrl.tm.SecretByID(m.TransportID, ctrl.cfg.opTimeout()/2)
		bd.Add(metrics.PhaseKeyExchange, time.Since(start))
		if !ok {
			return rejectReply(m.ConnID, wire.RejectRetry, "unknown transport")
		}
		key = ctrl.sessionKeyFor(m.ConnID, secret)
	}

	s, err := newSocket(ctrl, m.ConnID, target, m.From, key, fsm.Listen)
	if err != nil {
		return rejectReply(m.ConnID, wire.RejectOther, "internal error")
	}
	s.mu.Lock()
	s.step(fsm.RecvConnect) // -> CONNECT_ACKED
	s.setPeerAddrsLocked(m.ControlAddr, m.DataAddr)
	s.mu.Unlock()
	ctrl.registerConn(s)

	// Await the handoff socket; establishment completes in
	// completeEstablishment once the ID message has arrived too. The wait
	// is a rendezvous callback plus one timer-wheel entry, not a parked
	// goroutine: a connect storm of 10k concurrent opens adds nothing to
	// the goroutine count. Giving up closes the endpoint, which releases an
	// ID message waiting on it with a REJECT.
	ctrl.rv.armFunc(connKey{id: s.id, agent: s.localAgent}, ctrl.cfg.opTimeout(),
		func(sock *transport.Stream) {
			if ctrl.closing.Load() {
				sock.Close()
				return
			}
			if err := s.installSocket(sock, 0); err != nil {
				ctrl.logf("conn %s: installing accepted socket: %v", s.id, err)
				s.abandon(err)
				return
			}
			s.completeEstablishment(ss)
		},
		func() {
			if !ctrl.closing.Load() {
				s.abandon(errNoHandoff)
			}
		})

	return s.reply(wire.VerdictAck, nil)
}

var errNoHandoff = errors.New("napletsocket: connect handoff never arrived")

// abandon gives the endpoint up for good: out of the tables, the rendezvous
// and the journal, and closed with err, which it returns.
func (s *Socket) abandon(err error) error {
	s.ctrl.dropConn(s)
	s.mu.Lock()
	s.markClosedLocked(err)
	s.mu.Unlock()
	return err
}

// handleIDExchange completes establishment on the server side (the client's
// socket-id confirmation of Fig 3). The client sends the ID behind its
// unanswered stream open, so the reply is also the handoff's verdict: the ID
// waits out the stream's arrival and is acked only by an endpoint that got
// it; one that did not is abandoned, as the client's is on the REJECT.
func (s *Socket) handleIDExchange(_ *wire.ControlMsg) []byte {
	deadline := time.Now().Add(s.ctrl.cfg.opTimeout())
	s.mu.Lock()
	s.idReceived = true
	for !s.closed && s.sock == nil && s.m.State() == fsm.ConnectAcked && waitCond(s.cond, time.Until(deadline)) {
	}
	s.mu.Unlock()
	s.ctrl.mu.Lock()
	ss := s.ctrl.listeners[s.localAgent]
	s.ctrl.mu.Unlock()
	if ss == nil {
		return s.reject(wire.RejectUnknownConn, "listener closed")
	}
	s.completeEstablishment(ss)
	s.mu.Lock()
	refused := s.closed || s.m.State() == fsm.ConnectAcked
	s.mu.Unlock()
	if refused {
		s.abandon(errNoHandoff)
		return s.reject(wire.RejectOther, "no data socket")
	}
	return s.reply(wire.VerdictAck, nil)
}

// completeEstablishment fires when both the data socket and the ID message
// are in: the connection becomes ESTABLISHED and is queued for Accept.
func (s *Socket) completeEstablishment(ss *ServerSocket) {
	s.mu.Lock()
	ready := s.idReceived && s.sock != nil && s.m.State() == fsm.ConnectAcked
	if ready {
		s.establishLocked(fsm.ConnectAcked, fsm.RecvID)
	}
	s.mu.Unlock()
	if ready {
		s.ctrl.obs.accepts.Inc()
		s.olog(obs.LevelInfo, "accepted")
		s.ctrl.checkpointConn(s)
		ss.push(s)
	}
}

// ---- server sockets ----

// ServerSocket is the NapletServerSocket of the paper: the agent-oriented
// accept endpoint. An agent has at most one per host; connections arrive
// already established and security-checked.
type ServerSocket struct {
	ctrl    *Controller
	agentID string
	cred    [security.CredentialSize]byte

	mu      sync.Mutex
	queue   []*Socket
	arrival chan struct{}
	closed  bool
}

// Listen creates (or returns) the resident agent's server socket, after a
// security check through the proxy service.
func (ctrl *Controller) Listen(actx *agent.Context) (*ServerSocket, error) {
	return ctrl.ListenAs(actx.AgentID(), actx.Credential())
}

// ListenAs is Listen with explicit agent identity.
func (ctrl *Controller) ListenAs(agentID string, cred [security.CredentialSize]byte) (*ServerSocket, error) {
	if !ctrl.cfg.Insecure {
		if err := ctrl.cfg.Guard.Check(agentID, cred, security.Permission{
			Action: security.ActionListen, Resource: "*",
		}); err != nil {
			return nil, err
		}
	}
	ctrl.mu.Lock()
	if ss, ok := ctrl.listeners[agentID]; ok && !ss.isClosed() {
		ctrl.mu.Unlock()
		return ss, nil
	}
	ss := &ServerSocket{ctrl: ctrl, agentID: agentID, cred: cred, arrival: make(chan struct{})}
	ctrl.listeners[agentID] = ss
	ctrl.mu.Unlock()
	if j := ctrl.cfg.Journal; j != nil {
		// The credential is re-issued by the Guard at recovery, so the
		// record only marks that the agent was listening here.
		j.Put(journal.KindListener, agentID, nil)
	}
	return ss, nil
}

func (ss *ServerSocket) isClosed() bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.closed
}

func (ss *ServerSocket) push(s *Socket) {
	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		s.Close()
		return
	}
	ss.queue = append(ss.queue, s)
	close(ss.arrival)
	ss.arrival = make(chan struct{})
	ss.mu.Unlock()
}

// Accept returns the next established connection, blocking until one
// arrives or ctx is done.
func (ss *ServerSocket) Accept(ctx context.Context) (*Socket, error) {
	for {
		ss.mu.Lock()
		if len(ss.queue) > 0 {
			s := ss.queue[0]
			ss.queue = ss.queue[1:]
			ss.mu.Unlock()
			s.mu.Lock()
			s.accepted = true
			s.mu.Unlock()
			return s, nil
		}
		if ss.closed {
			ss.mu.Unlock()
			return nil, ErrClosed
		}
		arrival := ss.arrival
		ss.mu.Unlock()
		select {
		case <-arrival:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-ss.ctrl.done:
			return nil, ErrClosed
		}
	}
}

// Close stops accepting; queued, unaccepted connections are closed.
func (ss *ServerSocket) Close() error {
	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		return nil
	}
	ss.closed = true
	pending := ss.queue
	ss.queue = nil
	close(ss.arrival)
	ss.arrival = make(chan struct{})
	ss.mu.Unlock()

	ss.ctrl.mu.Lock()
	removed := false
	if ss.ctrl.listeners[ss.agentID] == ss {
		delete(ss.ctrl.listeners, ss.agentID)
		removed = true
	}
	ss.ctrl.mu.Unlock()
	if removed {
		if j := ss.ctrl.cfg.Journal; j != nil {
			j.Delete(journal.KindListener, ss.agentID)
		}
	}
	for _, s := range pending {
		s.Close()
	}
	return nil
}

// errTargetNotReady marks an open the target's host refused with
// wire.RejectRetry: the agent is not listening there yet (launching, or
// mid-migration), and openRetry tries again.
var errTargetNotReady = errors.New("target not ready")

// openRetry wraps OpenAs with retries for targets that are still launching
// or mid-migration.
func (ctrl *Controller) openRetry(agentID string, cred [security.CredentialSize]byte, target string, deadline time.Time) (*Socket, error) {
	backoff := 10 * time.Millisecond
	for {
		s, err := ctrl.OpenAs(agentID, cred, target)
		if err == nil {
			return s, nil
		}
		retriable := errors.Is(err, naming.ErrNotFound) ||
			errors.Is(err, errTargetNotReady) ||
			errors.Is(err, rudp.ErrTimeout)
		if !retriable || time.Now().After(deadline) {
			return nil, err
		}
		if !ctrl.pause(backoff) {
			return nil, ErrClosed
		}
		if backoff < 200*time.Millisecond {
			backoff *= 2
		}
	}
}

// Dial opens a connection to target, retrying while the target agent is
// launching or migrating, up to the park timeout.
func (ctrl *Controller) Dial(actx *agent.Context, target string) (*Socket, error) {
	return ctrl.openRetry(actx.AgentID(), actx.Credential(), target, time.Now().Add(ctrl.cfg.parkTimeout()))
}

// DialAs is Dial with explicit agent identity.
func (ctrl *Controller) DialAs(agentID string, cred [security.CredentialSize]byte, target string) (*Socket, error) {
	return ctrl.openRetry(agentID, cred, target, time.Now().Add(ctrl.cfg.parkTimeout()))
}
