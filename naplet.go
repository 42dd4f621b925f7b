// Package naplet is the public facade of the NapletSocket reproduction: a
// mobile agent system (hosts, docking, location service, mailbox-based
// asynchronous messaging) with the paper's contribution on top — the
// NapletSocket connection migration mechanism for synchronous transient
// communication between mobile agents.
//
// A minimal deployment:
//
//	net, _ := naplet.NewNetwork()             // shared location service
//	h1, _ := net.AddHost("h1")                // agent servers
//	h2, _ := net.AddHost("h2")
//	net.Register("server", serverBehaviour)   // behaviours all hosts know
//	net.Register("client", clientBehaviour)
//	h1.Launch("bob", serverBehaviour)
//	h2.Launch("alice", clientBehaviour)
//
// Inside a behaviour's Run(ctx *naplet.Context):
//
//	ss, _ := naplet.Listen(ctx)               // NapletServerSocket
//	conn, _ := ss.Accept(ctx.StdContext())
//	conn, _ := naplet.Dial(ctx, "bob")        // NapletSocket
//	conn.Write(...); conn.Read(...)           // survives migration
//	return ctx.MigrateTo(otherDock)           // hop; conns migrate along
//	conn, _ = naplet.Attach(ctx, id)          // re-attach after landing
package naplet

import (
	"context"
	"errors"
	"sync"
	"time"

	"naplet/internal/agent"
	"naplet/internal/core"
	"naplet/internal/journal"
	"naplet/internal/naming"
	"naplet/internal/obs"
	"naplet/internal/postoffice"
	"naplet/internal/security"
	"naplet/internal/wire"
)

// Re-exported core types, so applications only import this package.
type (
	// Context is the per-hop execution environment of a behaviour.
	Context = agent.Context
	// Behavior is mobile code: Run is re-entered on every visited host.
	Behavior = agent.Behavior
	// Socket is a NapletSocket connection endpoint.
	Socket = core.Socket
	// ServerSocket is a NapletServerSocket accept endpoint.
	ServerSocket = core.ServerSocket
	// ConnID is the stable cross-migration connection handle.
	ConnID = wire.ConnID
	// Message is a PostOffice mailbox message.
	Message = postoffice.Message
	// Mailbox is an agent's PostOffice mailbox.
	Mailbox = postoffice.Box
)

// Re-exported sentinels.
var (
	// ErrMigrate must be propagated from Run to trigger a hop.
	ErrMigrate = agent.ErrMigrate
	// ErrMigrated reports use of a Socket handle whose agent moved on.
	ErrMigrated = core.ErrMigrated
	// ErrClosed reports use of a closed connection.
	ErrClosed = core.ErrClosed
)

// ParseConnID parses the hex form of a connection id.
func ParseConnID(s string) (ConnID, error) { return wire.ParseConnID(s) }

// Registry holds the behaviour types a deployment can run.
type Registry = agent.Registry

// NewRegistry returns an empty behaviour registry; share one across the
// nodes of a process, and register the same behaviours in every process.
func NewRegistry() *Registry { return agent.NewRegistry() }

// extension keys on the agent host.
const (
	extController = "napletsocket.controller"
	extOffice     = "napletsocket.postoffice"
)

// Config tunes a Node beyond the defaults. Values that concern the whole
// node — Insecure, Logger, Metrics, Tracer, the journal —
// are set here and nowhere else: NewNode writes them into every layer's
// config, the controller's included, so the same fields of Core are
// overwritten.
type Config struct {
	// Name is the host name (required).
	Name string
	// ControlAddr, DataAddr, MailAddr bind the three listeners; empty
	// values select ephemeral loopback ports. Agents migrate to DataAddr:
	// their bundles ride the shared transport like every other byte.
	ControlAddr, DataAddr, MailAddr string
	// Directory is the shared location service handle (required): a
	// naming.Local for in-process deployments or a *cluster.Client for a
	// location service reached over the network.
	Directory agent.Directory
	// Registry holds the behaviours this node can run (required; share one
	// registry across nodes of one process).
	Registry *agent.Registry
	// Policy overrides the default policy (agents may connect/listen/
	// migrate; raw sockets stay system-only).
	Policy *security.Store
	// Insecure selects the paper's "w/o security" configuration.
	Insecure bool
	// ClusterSecret authenticates migrating agents between the deployment's
	// hosts (see agent.Config.ClusterSecret).
	ClusterSecret []byte
	// WithPostOffice additionally runs the asynchronous mailbox service.
	WithPostOffice bool
	// JournalDir, when non-empty, enables crash recovery: agent and
	// connection state is checkpointed into a write-ahead journal under this
	// directory, and Node.Recover rebuilds both after a restart with the
	// same directory.
	JournalDir string
	// JournalSync selects the journal's fsync policy: "interval" (default),
	// "always", or "never". A crash of the napletd process alone loses
	// nothing under any policy (appends are atomic single writes); the
	// policy only matters for whole-machine failures.
	JournalSync string
	// Logger receives leveled diagnostics from every layer of the node, and
	// agents' Context.Logf output at Info; nil silences them all.
	Logger *obs.Logger
	// Metrics collects the node's runtime metrics: connection lifecycle
	// counters, FSM transitions, suspend/resume latency and phase
	// breakdowns, agent migrations, and control-channel RUDP stats. Nil
	// disables collection. Use one registry per node: gauge callbacks are
	// registered under fixed names and a shared registry would report only
	// the last node's values.
	Metrics *obs.Registry
	// Tracer records migration and connection traces (span trees with
	// cross-host context propagation) for the /tracez debug view. Nil
	// auto-creates one per node; tracing is cheap and always on.
	Tracer *obs.Tracer
	// Core carries controller-only tuning: operation timeouts, transport
	// encryption and keepalive, the relay (optional).
	Core core.Config
}

// Node is one fully wired agent server: agent host + NapletSocket
// controller (+ optional post office), sharing one location service with
// its peers.
type Node struct {
	host    *agent.Host
	ctrl    *core.Controller
	office  *postoffice.Office
	guard   *security.Guard
	journal *journal.Journal
}

// NewNode builds and starts a node.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Name == "" || cfg.Directory == nil || cfg.Registry == nil {
		return nil, errors.New("naplet: Config requires Name, Directory, and Registry")
	}
	policy := cfg.Policy
	if policy == nil {
		policy = security.NewStore(security.AllowAgentAll()...)
	}
	guard, err := security.NewGuard(policy)
	if err != nil {
		return nil, err
	}

	var jnl *journal.Journal
	if cfg.JournalDir != "" {
		sync, err := journal.ParseSyncPolicy(cfg.JournalSync)
		if err != nil {
			return nil, err
		}
		jnl, err = journal.Open(cfg.JournalDir, journal.Options{
			Sync:    sync,
			Metrics: cfg.Metrics,
			Logger:  cfg.Logger,
		})
		if err != nil {
			return nil, err
		}
	}

	tracer := cfg.Tracer
	if tracer == nil {
		tracer = obs.NewTracer(cfg.Name)
	}

	ccfg := cfg.Core
	ccfg.HostName = cfg.Name
	ccfg.ControlAddr = cfg.ControlAddr
	ccfg.DataAddr = cfg.DataAddr
	ccfg.Guard = guard
	ccfg.Locator = cfg.Directory
	ccfg.Insecure = cfg.Insecure
	ccfg.Journal = jnl
	ccfg.Logger = cfg.Logger
	ccfg.Metrics = cfg.Metrics
	ccfg.Tracer = tracer
	ctrl, err := core.NewController(ccfg)
	if err != nil {
		if jnl != nil {
			jnl.Close()
		}
		return nil, err
	}

	var office *postoffice.Office
	mailAddr := ""
	if cfg.WithPostOffice {
		office, err = postoffice.New(cfg.Name, cfg.Directory, cfg.MailAddr)
		if err != nil {
			ctrl.Close()
			if jnl != nil {
				jnl.Close()
			}
			return nil, err
		}
		mailAddr = office.Addr()
	}

	hcfg := agent.Config{
		Name:          cfg.Name,
		ControlAddr:   ctrl.ControlAddr(),
		DataAddr:      ctrl.DataAddr(),
		MailAddr:      mailAddr,
		Directory:     cfg.Directory,
		Registry:      cfg.Registry,
		Guard:         guard,
		ClusterSecret: cfg.ClusterSecret,
		Logger:        cfg.Logger,
		Metrics:       cfg.Metrics,
		Tracer:        tracer,
		Journal:       jnl,
	}
	host, err := agent.NewHost(hcfg)
	if err != nil {
		ctrl.Close()
		if office != nil {
			office.Close()
		}
		if jnl != nil {
			jnl.Close()
		}
		return nil, err
	}
	host.AddHook(ctrl)
	host.SetExtension(extController, ctrl)
	if office != nil {
		host.AddHook(office)
		host.SetExtension(extOffice, office)
	}
	return &Node{host: host, ctrl: ctrl, office: office, guard: guard, journal: jnl}, nil
}

// Name returns the node's host name.
func (n *Node) Name() string { return n.host.Name() }

// DockAddr returns the address agents migrate to: the node's data address,
// where every stream from another host arrives.
func (n *Node) DockAddr() string { return n.ctrl.DataAddr() }

// Controller exposes the underlying NapletSocket controller.
func (n *Node) Controller() *core.Controller { return n.ctrl }

// Tracer returns the node's migration/connection tracer.
func (n *Node) Tracer() *obs.Tracer { return n.ctrl.Tracer() }

// Launch starts an agent on this node.
func (n *Node) Launch(agentID string, b Behavior) error { return n.host.Launch(agentID, b) }

// Recover rebuilds the node's state from its journal after a restart with
// the same JournalDir: first the connection layer (stranded connections are
// restored in the SUSPENDED state and driven through resume), then the
// agent layer (journaled agents are re-registered with the location service
// and re-entered from their last checkpoint). It returns the number of
// agents recovered. Call it once, after NewNode and before Launch; without
// a journal it is a no-op.
func (n *Node) Recover() (int, error) {
	if _, err := n.ctrl.RecoverConns(); err != nil {
		return 0, err
	}
	return n.host.Recover()
}

// Close shuts the node down.
func (n *Node) Close() error {
	err := n.host.Close()
	if cerr := n.ctrl.Close(); err == nil {
		err = cerr
	}
	if n.office != nil {
		if oerr := n.office.Close(); err == nil {
			err = oerr
		}
	}
	if n.journal != nil {
		if jerr := n.journal.Close(); err == nil {
			err = jerr
		}
	}
	return err
}

// Network is a convenience for in-process deployments: one shared location
// service and behaviour registry, N nodes.
type Network struct {
	Service  *naming.Service
	Registry *agent.Registry

	mu    sync.Mutex
	nodes map[string]*Node
	// defaults applied to every AddHost.
	defaults Config
}

// NetworkOption tweaks every node of a Network.
type NetworkOption func(*Config)

// WithInsecure selects the paper's "w/o security" configuration.
func WithInsecure() NetworkOption { return func(c *Config) { c.Insecure = true } }

// WithPostOffices runs a post office on every node.
func WithPostOffices() NetworkOption { return func(c *Config) { c.WithPostOffice = true } }

// WithLogf routes every level of node diagnostics, and agents'
// Context.Logf output, to logf.
func WithLogf(logf func(string, ...any)) NetworkOption {
	return func(c *Config) { c.Logger = obs.NewLogger(logf, obs.LevelDebug) }
}

// WithCore tunes controller timeouts on every node.
func WithCore(cc core.Config) NetworkOption { return func(c *Config) { c.Core = cc } }

// NewNetwork creates an empty in-process network.
func NewNetwork(opts ...NetworkOption) *Network {
	n := &Network{
		Service:  naming.NewService(),
		Registry: agent.NewRegistry(),
		nodes:    make(map[string]*Node),
	}
	for _, o := range opts {
		o(&n.defaults)
	}
	return n
}

// Register records a behaviour prototype under a stable name on the shared
// registry (and with gob).
func (nw *Network) Register(name string, proto Behavior) { nw.Registry.Register(name, proto) }

// AddHost creates and starts a node named name. Names must be unique
// within the network.
func (nw *Network) AddHost(name string) (*Node, error) {
	nw.mu.Lock()
	if _, dup := nw.nodes[name]; dup {
		nw.mu.Unlock()
		return nil, errors.New("naplet: host " + name + " already exists")
	}
	// A nil entry reserves the name while NewNode runs unlocked, so a
	// concurrent AddHost of the same name is the duplicate, not a second
	// node that overwrites this one and leaves it unclosed.
	nw.nodes[name] = nil
	nw.mu.Unlock()
	cfg := nw.defaults
	cfg.Name = name
	cfg.Directory = naming.Local{Svc: nw.Service}
	cfg.Registry = nw.Registry
	node, err := NewNode(cfg)
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if err != nil {
		delete(nw.nodes, name)
		return nil, err
	}
	nw.nodes[name] = node
	return node, nil
}

// Node returns a node by name, or nil.
func (nw *Network) Node(name string) *Node {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.nodes[name]
}

// DockOf returns the address agents migrate to the named host by — what
// behaviours pass to Context.MigrateTo.
func (nw *Network) DockOf(name string) string {
	if n := nw.Node(name); n != nil {
		return n.DockAddr()
	}
	return ""
}

// Await blocks until the named agent terminates (is deregistered), polling
// the location service.
func (nw *Network) Await(ctx context.Context, agentID string) error {
	for {
		_, err := nw.Service.Lookup(ctx, agentID)
		if errors.Is(err, naming.ErrNotFound) {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(3 * time.Millisecond):
		}
	}
}

// Close shuts every node down.
func (nw *Network) Close() error {
	nw.mu.Lock()
	nodes := make([]*Node, 0, len(nw.nodes))
	for _, n := range nw.nodes {
		if n != nil { // nil: an AddHost still in NewNode
			nodes = append(nodes, n)
		}
	}
	nw.mu.Unlock()
	var first error
	for _, n := range nodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ---- behaviour-side API ----

// controllerOf fetches the NapletSocket controller from a behaviour
// context.
func controllerOf(ctx *Context) (*core.Controller, error) {
	ctrl, ok := ctx.Extension(extController).(*core.Controller)
	if !ok {
		return nil, errors.New("naplet: host runs no NapletSocket controller")
	}
	return ctrl, nil
}

// Dial opens a NapletSocket connection from the calling agent to the named
// target agent, through the controller's security-checked proxy service.
// It retries while the target is still launching or mid-migration.
func Dial(ctx *Context, target string) (*Socket, error) {
	ctrl, err := controllerOf(ctx)
	if err != nil {
		return nil, err
	}
	return ctrl.Dial(ctx, target)
}

// Listen creates (or returns) the calling agent's NapletServerSocket.
func Listen(ctx *Context) (*ServerSocket, error) {
	ctrl, err := controllerOf(ctx)
	if err != nil {
		return nil, err
	}
	return ctrl.Listen(ctx)
}

// Attach re-binds the calling agent to one of its connections by id — the
// post-migration handle (live Socket values cannot travel inside gob state;
// carry conn.ID() instead and Attach after landing).
func Attach(ctx *Context, id ConnID) (*Socket, error) {
	ctrl, err := controllerOf(ctx)
	if err != nil {
		return nil, err
	}
	return ctrl.AgentSocket(ctx.AgentID(), id)
}

// MailboxOf opens (or returns) the calling agent's PostOffice mailbox.
func MailboxOf(ctx *Context) (*Mailbox, error) {
	office, ok := ctx.Extension(extOffice).(*postoffice.Office)
	if !ok {
		return nil, errors.New("naplet: host runs no post office")
	}
	return office.Open(ctx.AgentID()), nil
}

// Send delivers an asynchronous persistent message from the calling agent
// to the named agent's mailbox, following it through migrations.
func Send(ctx *Context, to string, body []byte) error {
	office, ok := ctx.Extension(extOffice).(*postoffice.Office)
	if !ok {
		return errors.New("naplet: host runs no post office")
	}
	return office.Send(ctx.StdContext(), ctx.AgentID(), to, body)
}
