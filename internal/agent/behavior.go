// Package agent implements the Naplet-like mobile agent middleware that
// NapletSocket lives in: agent servers (hosts), agent lifecycle
// management, and the migration hooks that let the connection layer suspend
// and resume an agent's connections around each hop. The package opens no
// socket: agents move between hosts through a Carrier hook, which in a full
// node is the NapletSocket controller, so a bundle rides the same shared
// transport as every other byte between the two hosts.
//
// Mobility is weak mobility, as in Naplet and most Java mobile-agent
// systems: an agent is a registered behaviour type plus its serializable
// state. Migration checkpoints the behaviour value with encoding/gob, hands
// it to the carrier for the destination host, and re-enters Run there. Behaviours
// resume from explicit state they carry (a phase counter, remaining
// itinerary, etc.) rather than from a captured stack.
package agent

import (
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
)

// Behavior is the mobile code of an agent. Run is invoked once per visited
// host; it should return ErrMigrate (via Context.MigrateTo) to hop, nil to
// terminate the agent, or any other error to fail it.
//
// Concrete Behavior types must be registered with a Registry (which also
// registers them with gob) and must be gob-encodable: exported fields only
// carry state across hops.
type Behavior interface {
	Run(ctx *Context) error
}

// ErrMigrate is the sentinel returned by Context.MigrateTo; Run must
// propagate it so the runtime performs the hop.
var ErrMigrate = errors.New("agent: migration requested")

// Registry maps behaviour implementations so that hosts can decode arriving
// bundles. All hosts that exchange agents must register the same types.
type Registry struct {
	mu    sync.Mutex
	types map[string]bool
}

// NewRegistry returns an empty behaviour registry.
func NewRegistry() *Registry {
	return &Registry{types: make(map[string]bool)}
}

// Register records a behaviour prototype and registers its concrete type
// with gob. Registering the same name twice is a no-op; registering a type
// that gob already knows under another name keeps the first name (gob
// requires one stable name per concrete type) instead of panicking.
func (r *Registry) Register(name string, proto Behavior) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.types[name] {
		return
	}
	r.types[name] = true
	func() {
		defer func() {
			// gob.RegisterName panics on duplicate registrations of the
			// same concrete type; the type stays encodable under its first
			// name, so tolerate it.
			recover()
		}()
		gob.RegisterName(name, proto)
	}()
}

// Registered reports whether name has been registered.
func (r *Registry) Registered(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.types[name]
}

// Status is an agent's lifecycle state on a host.
type Status uint8

// Agent lifecycle states.
const (
	// StatusRunning means the behaviour goroutine is executing Run.
	StatusRunning Status = iota + 1
	// StatusMigrating means the agent is being transferred to another host.
	StatusMigrating
	// StatusDone means Run returned nil and the agent terminated normally.
	StatusDone
	// StatusFailed means Run returned a non-migration error.
	StatusFailed
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusRunning:
		return "running"
	case StatusMigrating:
		return "migrating"
	case StatusDone:
		return "done"
	case StatusFailed:
		return "failed"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}
