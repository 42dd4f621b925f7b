package agent

import (
	"context"

	"naplet/internal/security"
)

// Context is the execution environment a behaviour sees on one host. A
// fresh Context is built for every hop; values that must survive a hop
// belong in the behaviour's own (gob-encoded) state.
type Context struct {
	host    *Host
	agentID string
	epoch   uint64
	cred    [security.CredentialSize]byte
	// behavior is the running behaviour value, referenced so Checkpoint can
	// journal its current state.
	behavior Behavior

	// migrateDest holds the destination address after MigrateTo.
	migrateDest string

	// ctx is cancelled when the host shuts down or the agent is killed.
	ctx context.Context
}

// AgentID returns the agent's globally unique id.
func (c *Context) AgentID() string { return c.agentID }

// HostName returns the name of the host the agent currently resides on.
func (c *Context) HostName() string { return c.host.Name() }

// Epoch returns the agent's hop count: 1 on the launch host, incremented by
// each migration. It doubles as the location-service epoch.
func (c *Context) Epoch() uint64 { return c.epoch }

// Credential returns the security credential this host issued to the agent;
// it accompanies every proxy request to the NapletSocket controller.
func (c *Context) Credential() [security.CredentialSize]byte { return c.cred }

// Done returns a channel closed when the agent must stop (host shutdown or
// kill). Long-running behaviours should select on it.
func (c *Context) Done() <-chan struct{} { return c.ctx.Done() }

// StdContext returns the agent's lifetime as a context.Context, for passing
// to APIs that take one.
func (c *Context) StdContext() context.Context { return c.ctx }

// Logf logs a message tagged with the agent and host, at Info on the host's
// logger.
func (c *Context) Logf(format string, args ...any) {
	c.host.log.Infof("[%s@%s] "+format, append([]any{c.agentID, c.host.Name()}, args...)...)
}

// MigrateTo requests migration to the host whose agents arrive at dest —
// in a full node, the host's data address. It returns ErrMigrate, which Run
// must propagate:
//
//	return ctx.MigrateTo(next)
//
// The runtime then suspends the agent's connections, ships the behaviour,
// and re-enters Run on the destination.
func (c *Context) MigrateTo(dest string) error {
	c.migrateDest = dest
	return ErrMigrate
}

// Checkpoint journals the behaviour's current state atomically with the
// agent's connection state (one journal batch), when the host runs a
// journal; without one it is a no-op. A behaviour should call it after
// each unit of externally visible progress — e.g. once per message sent —
// so a crash-restarted run resumes from the last unit instead of
// repeating or skipping it.
func (c *Context) Checkpoint() error {
	return c.host.checkpointAgent(c.agentID, c.behavior, c.epoch)
}

// Extension returns the host service registered under name (for example
// the NapletSocket controller), or nil. Typed accessors live in the public
// naplet package.
func (c *Context) Extension(name string) any { return c.host.Extension(name) }

// Host returns the host the agent resides on. It is exposed for the
// middleware layers (controller proxy); behaviours should not need it.
func (c *Context) Host() *Host { return c.host }
