package agent

import (
	"bytes"
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"naplet/internal/journal"
	"naplet/internal/naming"
	"naplet/internal/obs"
	"naplet/internal/security"
)

// Directory is the slice of the location service the agent runtime needs.
// Both naming.Local (in-process) and cluster.Client (over the network)
// satisfy it.
type Directory interface {
	Register(ctx context.Context, agentID string, loc naming.Location) error
	Update(ctx context.Context, agentID string, loc naming.Location, epoch uint64) error
	Deregister(ctx context.Context, agentID string) error
	Lookup(ctx context.Context, agentID string) (naming.Record, error)
}

// Hook lets middleware layers participate in agent migration. The
// NapletSocket controller is the canonical hook: PreDepart suspends the
// agent's connections and serializes them (including any buffered
// undelivered data); PostArrive reconstructs and resumes them on the
// destination host.
type Hook interface {
	// HookName keys the hook's blob inside the migration bundle; it must be
	// identical on every host.
	HookName() string
	// PreDepart runs on the origin host before the agent is shipped.
	PreDepart(agentID string) ([]byte, error)
	// PostArrive runs on the destination host after the bundle is decoded
	// and the location service updated, before Run is re-entered.
	PostArrive(agentID string, blob []byte) error
	// OnTerminate runs when the agent finishes (normally or with an error).
	OnTerminate(agentID string)
}

// Config configures a Host.
type Config struct {
	// Name is the host's human-readable name.
	Name string
	// DockAddr is the TCP address of the docking listener; empty means an
	// ephemeral loopback port.
	DockAddr string
	// ControlAddr and DataAddr advertise the co-located NapletSocket
	// controller's endpoints in the host's location record.
	ControlAddr string
	DataAddr    string
	// MailAddr advertises the co-located post office, when one runs.
	MailAddr string
	// Directory is the agent location service (required).
	Directory Directory
	// Registry holds the behaviour types this host can execute (required).
	Registry *Registry
	// Guard issues agent credentials and enforces policy (required).
	Guard *security.Guard
	// MigrationDelay, when positive, is slept during each outbound
	// migration to model the cost of shipping agent code and state over a
	// real network (the paper's T_a-migrate, 220ms on their testbed).
	MigrationDelay time.Duration
	// Journal, when non-nil, receives agent checkpoints (behaviour state
	// plus epoch, batched atomically with connection state from any
	// ConnCheckpointer hooks) and feeds Recover after a restart.
	Journal *journal.Journal
	// ClusterSecret, when non-empty, authenticates the docking channel:
	// every outbound bundle carries an HMAC-SHA256 tag under the secret and
	// inbound bundles without a valid tag are rejected. All hosts of a
	// deployment must share the secret.
	ClusterSecret []byte
	// Logf, when non-nil, receives host diagnostics. It also backs each
	// agent Context's Logf.
	Logf func(format string, args ...any)
	// Logger, when non-nil, receives leveled host diagnostics and takes
	// precedence over Logf for the runtime's own lines (Context.Logf keeps
	// using Logf so behaviour output stays unprefixed).
	Logger *obs.Logger
	// Metrics, when non-nil, receives the agent runtime's counters: agent
	// launches, terminations, dispatches, and migration latency.
	Metrics *obs.Registry
	// Tracer, when non-nil, records a span tree per outbound migration
	// (depart, transfer) and publishes the active migration trace under the
	// agent id so co-located hooks (the NapletSocket controller) join it.
	Tracer *obs.Tracer
}

const (
	// maxBundleSize bounds an inbound migration bundle.
	maxBundleSize = 64 << 20
	// dockDialTimeout bounds the TCP dial to a destination dock when
	// shipping an agent.
	dockDialTimeout = 10 * time.Second
	// bundleTimeout bounds the transfer of one migration bundle in either
	// direction (send and receive).
	bundleTimeout = 30 * time.Second
)

// bundle is what travels between docks.
type bundle struct {
	AgentID  string
	Epoch    uint64
	Behavior Behavior
	// Blobs carries each migration hook's serialized state, keyed by hook
	// name.
	Blobs map[string][]byte
}

// LocalExit describes why an agent left this host.
type LocalExit struct {
	Status Status
	// Dest is the docking address the agent migrated to (StatusMigrating).
	Dest string
	// Err is the failure cause (StatusFailed).
	Err error
}

type running struct {
	id     string
	status Status
	cancel context.CancelFunc
	// exited is closed when the agent leaves this host; exit holds why.
	exited chan struct{}
	exit   LocalExit
}

// Host is an agent server: it runs resident agents, accepts arriving agents
// on its dock, and ships departing agents to other docks.
type Host struct {
	cfg    Config
	log    *obs.Logger
	dockLn net.Listener

	// Runtime metrics; nil-safe, so call sites stay unconditional.
	launches, doneCount, failedCount       *obs.Counter
	migrations, migrationFailures, arrived *obs.Counter
	checkpoints, recoveries                *obs.Counter
	migrateMs                              *obs.Histogram

	mu     sync.Mutex
	agents map[string]*running
	hooks  []Hook
	ext    map[string]any
	closed bool

	rootCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// NewHost creates and starts a host: the dock listener is live when NewHost
// returns.
func NewHost(cfg Config) (*Host, error) {
	if cfg.Directory == nil || cfg.Registry == nil || cfg.Guard == nil {
		return nil, errors.New("agent: Config requires Directory, Registry, and Guard")
	}
	if cfg.Name == "" {
		return nil, errors.New("agent: Config requires a host name")
	}
	addr := cfg.DockAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("agent: dock listener: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	h := &Host{
		cfg:     cfg,
		log:     resolveLogger(cfg).With("host", cfg.Name),
		agents:  make(map[string]*running),
		ext:     make(map[string]any),
		rootCtx: ctx,
		cancel:  cancel,
	}
	h.dockLn = ln
	met := cfg.Metrics
	h.launches = met.Counter("agent.launches")
	h.doneCount = met.Counter("agent.done")
	h.failedCount = met.Counter("agent.failed")
	h.migrations = met.Counter("agent.migrations")
	h.migrationFailures = met.Counter("agent.migration_failures")
	h.arrived = met.Counter("agent.arrivals")
	h.checkpoints = met.Counter("agent.checkpoints")
	h.recoveries = met.Counter("agent.recoveries")
	h.migrateMs = met.Histogram("agent.migrate_ms")
	met.Func("agent.resident", func() float64 {
		h.mu.Lock()
		defer h.mu.Unlock()
		return float64(len(h.agents))
	})
	h.wg.Add(1)
	go h.acceptDocks()
	return h, nil
}

// resolveLogger builds the host's leveled logger: the configured Logger,
// else the Logf compatibility shim at Debug, else the standard library
// logger at Info.
func resolveLogger(cfg Config) *obs.Logger {
	if cfg.Logger != nil {
		return cfg.Logger
	}
	if cfg.Logf != nil {
		return obs.NewLogger(cfg.Logf, obs.LevelDebug)
	}
	return obs.NewLogger(log.Printf, obs.LevelInfo)
}

// Name returns the host's name.
func (h *Host) Name() string { return h.cfg.Name }

// DockAddr returns the docking listener's address.
func (h *Host) DockAddr() string { return h.dockLn.Addr().String() }

// Location returns the host's advertised location record.
func (h *Host) Location() naming.Location {
	return naming.Location{
		Host:        h.cfg.Name,
		ControlAddr: h.cfg.ControlAddr,
		DataAddr:    h.cfg.DataAddr,
		DockAddr:    h.DockAddr(),
		MailAddr:    h.cfg.MailAddr,
	}
}

// Guard returns the host's security guard.
func (h *Host) Guard() *security.Guard { return h.cfg.Guard }

// Directory returns the host's location service handle.
func (h *Host) Directory() Directory { return h.cfg.Directory }

// AddHook registers a migration hook. Hooks run in registration order on
// departure and arrival.
func (h *Host) AddHook(hook Hook) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.hooks = append(h.hooks, hook)
}

// noteLocationEpoch tells hooks that track directory epochs (the
// NapletSocket controller's migration-aware location caching, matched
// structurally) which epoch this host's directory entry for the agent now
// carries.
func (h *Host) noteLocationEpoch(agentID string, epoch uint64) {
	h.mu.Lock()
	hooks := append([]Hook(nil), h.hooks...)
	h.mu.Unlock()
	for _, hook := range hooks {
		if n, ok := hook.(interface{ NoteLocationEpoch(string, uint64) }); ok {
			n.NoteLocationEpoch(agentID, epoch)
		}
	}
}

// SetExtension publishes a host service to behaviours under name.
func (h *Host) SetExtension(name string, svc any) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ext[name] = svc
}

// Extension fetches a host service by name, or nil.
func (h *Host) Extension(name string) any {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ext[name]
}

// Close shuts the host down: the dock stops accepting, resident agents'
// contexts are cancelled, and Close blocks until agent goroutines return.
func (h *Host) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	h.mu.Unlock()
	h.cancel()
	err := h.dockLn.Close()
	h.wg.Wait()
	return err
}

// Launch starts a new agent with the given id and behaviour on this host.
func (h *Host) Launch(agentID string, b Behavior) error {
	if agentID == "" {
		return errors.New("agent: empty agent id")
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return errors.New("agent: host closed")
	}
	if _, ok := h.agents[agentID]; ok {
		h.mu.Unlock()
		return fmt.Errorf("agent: %q already resident on %s", agentID, h.cfg.Name)
	}
	h.mu.Unlock()

	if err := h.cfg.Directory.Register(h.rootCtx, agentID, h.Location()); err != nil {
		return fmt.Errorf("agent: registering %q: %w", agentID, err)
	}
	h.noteLocationEpoch(agentID, 1)
	h.launches.Inc()
	h.log.Infof("agent %s launched", agentID)
	if err := h.checkpointAgent(agentID, b, 1); err != nil {
		h.log.Warnf("%v", err)
	}
	h.startAgent(agentID, b, 1)
	return nil
}

// startAgent begins executing a behaviour at the given epoch. The agent
// must already be registered/updated in the directory.
func (h *Host) startAgent(agentID string, b Behavior, epoch uint64) {
	ctx, cancel := context.WithCancel(h.rootCtx)
	r := &running{id: agentID, status: StatusRunning, cancel: cancel, exited: make(chan struct{})}
	h.mu.Lock()
	h.agents[agentID] = r
	h.mu.Unlock()

	h.wg.Add(1)
	go h.runAgent(ctx, r, b, epoch)
}

func (h *Host) runAgent(ctx context.Context, r *running, b Behavior, epoch uint64) {
	defer h.wg.Done()
	actx := &Context{
		host:     h,
		agentID:  r.id,
		epoch:    epoch,
		cred:     h.cfg.Guard.IssueCredential(r.id),
		behavior: b,
		ctx:      ctx,
	}
	err := b.Run(actx)
	switch {
	case errors.Is(err, ErrMigrate):
		h.migrate(r, b, epoch, actx.migrateDest)
	case err == nil:
		h.doneCount.Inc()
		h.log.Infof("agent %s finished", r.id)
		h.finish(r, LocalExit{Status: StatusDone})
	default:
		h.failedCount.Inc()
		h.log.Errorf("agent %s failed: %v", r.id, err)
		h.finish(r, LocalExit{Status: StatusFailed, Err: err})
	}
}

// finish handles normal or failed termination.
func (h *Host) finish(r *running, exit LocalExit) {
	h.mu.Lock()
	hooks := append([]Hook(nil), h.hooks...)
	h.mu.Unlock()
	for _, hook := range hooks {
		hook.OnTerminate(r.id)
	}
	if err := h.cfg.Directory.Deregister(context.Background(), r.id); err != nil {
		h.log.Warnf("deregistering %s: %v", r.id, err)
	}
	h.dropAgentJournal(r.id)
	h.remove(r, exit)
}

func (h *Host) remove(r *running, exit LocalExit) {
	h.mu.Lock()
	r.status = exit.Status
	r.exit = exit
	delete(h.agents, r.id)
	h.mu.Unlock()
	close(r.exited)
}

// migrate ships the agent to destDock. On any failure the agent re-arrives
// locally (its connections are resumed in place) and keeps running.
func (h *Host) migrate(r *running, b Behavior, epoch uint64, destDock string) {
	start := time.Now()
	h.mu.Lock()
	r.status = StatusMigrating
	hooks := append([]Hook(nil), h.hooks...)
	h.mu.Unlock()

	// Root the migration trace and publish it under the agent id: hooks
	// (PreDepart suspends) start their spans as children of this root, and
	// the sealed trace context travels in the bundle so arrival work on the
	// destination joins the same trace.
	root := h.cfg.Tracer.StartTrace("migrate " + r.id)
	root.Annotate("dest=" + destDock)
	h.cfg.Tracer.SetActive(r.id, root.Context())
	defer func() {
		h.cfg.Tracer.ClearActive(r.id)
		root.End()
	}()

	blobs := make(map[string][]byte, len(hooks))
	departed := make([]Hook, 0, len(hooks))
	fail := func(err error) {
		root.Annotate("failed: " + err.Error())
		h.migrationFailures.Inc()
		h.log.Warnf("migration of %s to %s failed: %v; re-arriving locally", r.id, destDock, err)
		for _, hook := range departed {
			if aerr := hook.PostArrive(r.id, blobs[hook.HookName()]); aerr != nil {
				h.log.Warnf("local re-arrive hook %s for %s: %v", hook.HookName(), r.id, aerr)
			}
		}
		h.mu.Lock()
		r.status = StatusRunning
		h.mu.Unlock()
		h.wg.Add(1)
		go h.runAgent(h.rootCtx, r, b, epoch)
	}

	for _, hook := range hooks {
		blob, err := hook.PreDepart(r.id)
		if err != nil {
			fail(fmt.Errorf("hook %s PreDepart: %w", hook.HookName(), err))
			return
		}
		blobs[hook.HookName()] = blob
		departed = append(departed, hook)
	}

	if h.cfg.MigrationDelay > 0 {
		select {
		case <-time.After(h.cfg.MigrationDelay):
		case <-h.rootCtx.Done():
		}
	}

	// Vacate the residents table before shipping: once the destination has
	// the agent, it may hop straight back here, and that arrival must not
	// collide with our own stale entry.
	h.mu.Lock()
	delete(h.agents, r.id)
	h.mu.Unlock()

	bd := bundle{AgentID: r.id, Epoch: epoch + 1, Behavior: b, Blobs: blobs}
	xfer := root.Child("transfer")
	xfer.Annotate("dest=" + destDock)
	if err := sendBundle(destDock, &bd, h.cfg.ClusterSecret); err != nil {
		xfer.Annotate("failed: " + err.Error())
		xfer.End()
		h.mu.Lock()
		h.agents[r.id] = r
		h.mu.Unlock()
		fail(err)
		return
	}
	xfer.End()
	h.migrations.Inc()
	h.migrateMs.ObserveDuration(time.Since(start))
	h.log.Infof("agent %s migrated to %s in %v (epoch %d)",
		r.id, destDock, time.Since(start).Round(time.Microsecond), epoch+1)
	// The agent now lives at the destination; a restart here must not
	// resurrect it.
	h.dropAgentJournal(r.id)
	h.remove(r, LocalExit{Status: StatusMigrating, Dest: destDock})
}

// dockTag computes the docking-channel authentication tag of a bundle's
// bytes under the cluster secret.
func dockTag(secret, body []byte) [sha256.Size]byte {
	m := hmac.New(sha256.New, secret)
	m.Write([]byte("naplet dock bundle"))
	m.Write(body)
	var tag [sha256.Size]byte
	copy(tag[:], m.Sum(nil))
	return tag
}

// sendBundle dials a dock and delivers one agent bundle, appending the
// cluster authentication tag when a secret is configured.
func sendBundle(dockAddr string, bd *bundle, secret []byte) error {
	conn, err := net.DialTimeout("tcp", dockAddr, dockDialTimeout)
	if err != nil {
		return fmt.Errorf("agent: dialing dock %s: %w", dockAddr, err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(bundleTimeout))

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(bd); err != nil {
		return fmt.Errorf("agent: encoding bundle: %w", err)
	}
	body := buf.Bytes()
	if len(secret) > 0 {
		tag := dockTag(secret, body)
		body = append(body, tag[:]...)
	}
	var lenb [4]byte
	binary.BigEndian.PutUint32(lenb[:], uint32(len(body)))
	if _, err := conn.Write(lenb[:]); err != nil {
		return err
	}
	if _, err := conn.Write(body); err != nil {
		return err
	}
	// The dock replies with a length-prefixed status string; empty = OK.
	status, err := readLenPrefixed(conn, 1<<16)
	if err != nil {
		return fmt.Errorf("agent: reading dock reply: %w", err)
	}
	if len(status) != 0 {
		return fmt.Errorf("agent: dock %s rejected agent: %s", dockAddr, status)
	}
	return nil
}

func readLenPrefixed(r io.Reader, limit uint32) ([]byte, error) {
	var lenb [4]byte
	if _, err := io.ReadFull(r, lenb[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(lenb[:])
	if n > limit {
		return nil, fmt.Errorf("agent: message of %d bytes exceeds limit %d", n, limit)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// Accept-error backoff bounds for the dock listener, matching the
// redirector: transient errors (EMFILE, ECONNABORTED) back off
// exponentially instead of hot-looping.
const (
	dockBackoffMin = 5 * time.Millisecond
	dockBackoffMax = 1 * time.Second
)

func (h *Host) acceptDocks() {
	defer h.wg.Done()
	var backoff time.Duration
	for {
		conn, err := h.dockLn.Accept()
		if err != nil {
			select {
			case <-h.rootCtx.Done():
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			if backoff == 0 {
				backoff = dockBackoffMin
			} else if backoff *= 2; backoff > dockBackoffMax {
				backoff = dockBackoffMax
			}
			h.log.Warnf("dock accept error: %v; retrying in %v", err, backoff)
			timer := time.NewTimer(backoff)
			select {
			case <-timer.C:
			case <-h.rootCtx.Done():
				timer.Stop()
				return
			}
			continue
		}
		backoff = 0
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			h.handleDock(conn)
		}()
	}
}

// handleDock receives one arriving agent.
func (h *Host) handleDock(conn net.Conn) {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(bundleTimeout))
	reply := func(msg string) {
		var lenb [4]byte
		binary.BigEndian.PutUint32(lenb[:], uint32(len(msg)))
		conn.Write(lenb[:])
		io.WriteString(conn, msg)
	}

	raw, err := readLenPrefixed(conn, maxBundleSize)
	if err != nil {
		h.log.Warnf("dock read: %v", err)
		return
	}
	if len(h.cfg.ClusterSecret) > 0 {
		if len(raw) < sha256.Size {
			reply("bundle missing cluster tag")
			return
		}
		body, got := raw[:len(raw)-sha256.Size], raw[len(raw)-sha256.Size:]
		want := dockTag(h.cfg.ClusterSecret, body)
		if subtle.ConstantTimeCompare(want[:], got) != 1 {
			reply("cluster authentication failed")
			return
		}
		raw = body
	}
	var bd bundle
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&bd); err != nil {
		reply("decoding bundle: " + err.Error())
		return
	}
	if bd.AgentID == "" || bd.Behavior == nil {
		reply("bundle missing agent id or behaviour")
		return
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		reply("host closed")
		return
	}
	if _, ok := h.agents[bd.AgentID]; ok {
		h.mu.Unlock()
		reply(fmt.Sprintf("agent %q already resident", bd.AgentID))
		return
	}
	hooks := append([]Hook(nil), h.hooks...)
	h.mu.Unlock()

	// Update the location service first: once we are the agent's location,
	// resume traffic and new dials find us.
	if err := h.cfg.Directory.Update(h.rootCtx, bd.AgentID, h.Location(), bd.Epoch); err != nil {
		reply("location update: " + err.Error())
		return
	}
	// Hooks learn the epoch before PostArrive runs, so the SUS_RES/RES
	// messages sent while resuming the restored connections already carry
	// the post-migration epoch for their receivers' location caches.
	h.noteLocationEpoch(bd.AgentID, bd.Epoch)
	for _, hook := range hooks {
		if err := hook.PostArrive(bd.AgentID, bd.Blobs[hook.HookName()]); err != nil {
			reply(fmt.Sprintf("hook %s PostArrive: %v", hook.HookName(), err))
			return
		}
	}
	h.arrived.Inc()
	h.log.Infof("agent %s arrived (epoch %d, %d bundle bytes)", bd.AgentID, bd.Epoch, len(raw))
	if err := h.checkpointAgent(bd.AgentID, bd.Behavior, bd.Epoch); err != nil {
		h.log.Warnf("%v", err)
	}
	h.startAgent(bd.AgentID, bd.Behavior, bd.Epoch)
	reply("")
}

// AgentStatus reports the status of a resident agent.
func (h *Host) AgentStatus(agentID string) (Status, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	r, ok := h.agents[agentID]
	if !ok {
		return 0, false
	}
	return r.status, true
}

// Residents returns the ids of agents currently on this host.
func (h *Host) Residents() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.agents))
	for id := range h.agents {
		out = append(out, id)
	}
	return out
}

// WaitLocal blocks until the named agent leaves this host (migrates,
// finishes, or fails) and reports why. It errors immediately if the agent
// is not resident.
func (h *Host) WaitLocal(ctx context.Context, agentID string) (LocalExit, error) {
	h.mu.Lock()
	r, ok := h.agents[agentID]
	h.mu.Unlock()
	if !ok {
		return LocalExit{}, fmt.Errorf("agent: %q not resident on %s", agentID, h.cfg.Name)
	}
	select {
	case <-r.exited:
		return r.exit, nil
	case <-ctx.Done():
		return LocalExit{}, ctx.Err()
	}
}

// Kill cancels a resident agent's context. The behaviour is expected to
// notice Done() and return; Kill does not forcibly stop it.
func (h *Host) Kill(agentID string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	r, ok := h.agents[agentID]
	if !ok {
		return fmt.Errorf("agent: %q not resident", agentID)
	}
	r.cancel()
	return nil
}
