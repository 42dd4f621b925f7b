// Package naming implements the Naplet agent location service (Section 2.1
// of the paper): a registry mapping agent ids to their current physical
// location, ensuring location-transparent communication between agents. The
// service is consulted only at connection setup — once a NapletSocket
// connection is established, all traffic flows over the connection itself
// and no further lookups are needed.
//
// The registry also keeps per-agent movement traces (Section 3.4 mentions
// keeping records of agent traces), which double as a debugging aid and as
// the data source for migration-pattern statistics.
package naming

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"naplet/internal/obs"
)

// Location is the set of addresses at which an agent's current host can be
// reached.
type Location struct {
	// Host is the human-readable host (agent server) name.
	Host string
	// ControlAddr is the host's reliable-UDP control endpoint.
	ControlAddr string
	// DataAddr is the host's redirector TCP address (data-plane handoff);
	// agents migrate to it too.
	DataAddr string
	// MailAddr is the host's post office UDP address (asynchronous
	// persistent communication); empty when the host runs no post office.
	MailAddr string
}

// Record is a registry entry for one agent.
type Record struct {
	AgentID string
	Loc     Location
	// Epoch increases by one on every migration; stale updates (an old host
	// reporting after the agent already moved on) are rejected by epoch.
	Epoch     uint64
	UpdatedAt time.Time
}

// Move is one entry of an agent's movement trace.
type Move struct {
	When  time.Time
	Loc   Location
	Epoch uint64
}

// Errors returned by the service.
var (
	// ErrNotFound reports a lookup for an unregistered agent.
	ErrNotFound = errors.New("naming: agent not found")
	// ErrStale reports an update carrying an epoch not newer than the
	// registered one.
	ErrStale = errors.New("naming: stale location update")
	// ErrExists reports a duplicate registration.
	ErrExists = errors.New("naming: agent already registered")
)

// Resolver is the read side of the location service, all that connection
// setup needs.
type Resolver interface {
	Lookup(ctx context.Context, agentID string) (Record, error)
}

// maxTrace bounds each agent's retained movement history.
const maxTrace = 256

// Service is the in-memory location registry. It is safe for concurrent
// use and implements Resolver.
type Service struct {
	mu      sync.RWMutex
	records map[string]*Record
	traces  map[string][]Move
	// ttl, when positive, expires entries not refreshed within it: a
	// crashed host's stale location stops poisoning resume attempts.
	ttl time.Duration
	// now is a test seam.
	now func() time.Time

	// The naming.* counter family; nil (and therefore no-op) until
	// SetMetrics installs a registry.
	lookups, lookupMisses, registers, updates, deregisters *obs.Counter
}

// NewService returns an empty registry.
func NewService() *Service {
	return &Service{
		records: make(map[string]*Record),
		traces:  make(map[string][]Move),
		now:     time.Now,
	}
}

// SetMetrics wires the registry's operation counters (naming.lookups,
// naming.lookup_misses, naming.registers, naming.updates,
// naming.deregisters) into reg. Counters are shared by name, so several
// services (e.g. the shard replicas of a cluster node) feeding one
// registry accumulate into one family.
func (s *Service) SetMetrics(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lookups = reg.Counter("naming.lookups")
	s.lookupMisses = reg.Counter("naming.lookup_misses")
	s.registers = reg.Counter("naming.registers")
	s.updates = reg.Counter("naming.updates")
	s.deregisters = reg.Counter("naming.deregisters")
}

// SetTTL makes entries expire when not refreshed (by Register or Update)
// within d. Zero disables expiry, the default. Expired entries read as
// not found; a re-registration over one continues its epoch sequence, so
// stale-epoch updates from before the expiry stay rejected.
func (s *Service) SetTTL(d time.Duration) {
	s.mu.Lock()
	s.ttl = d
	s.mu.Unlock()
}

// expiredLocked reports whether rec has outlived the TTL.
func (s *Service) expiredLocked(rec *Record) bool {
	return s.ttl > 0 && s.now().Sub(rec.UpdatedAt) > s.ttl
}

// Register adds a new agent at loc with epoch 1. Registering over an
// expired entry succeeds, continuing the expired entry's epoch sequence.
func (s *Service) Register(agentID string, loc Location) error {
	if agentID == "" {
		return errors.New("naming: empty agent id")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.registers.Inc()
	epoch := uint64(1)
	if old, ok := s.records[agentID]; ok {
		if !s.expiredLocked(old) {
			return fmt.Errorf("%w: %q", ErrExists, agentID)
		}
		epoch = old.Epoch + 1
	}
	now := s.now()
	s.records[agentID] = &Record{AgentID: agentID, Loc: loc, Epoch: epoch, UpdatedAt: now}
	s.appendTraceLocked(agentID, Move{When: now, Loc: loc, Epoch: epoch})
	return nil
}

// Update records a migration: the agent now lives at loc with the given
// epoch, which must be exactly one greater than the registered epoch.
func (s *Service) Update(agentID string, loc Location, epoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.updates.Inc()
	rec, ok := s.records[agentID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, agentID)
	}
	if epoch <= rec.Epoch {
		return fmt.Errorf("%w: have epoch %d, update carries %d", ErrStale, rec.Epoch, epoch)
	}
	rec.Loc = loc
	rec.Epoch = epoch
	rec.UpdatedAt = s.now()
	s.appendTraceLocked(agentID, Move{When: rec.UpdatedAt, Loc: loc, Epoch: epoch})
	return nil
}

// Deregister removes an agent (terminated or lost). The trace is retained.
func (s *Service) Deregister(agentID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.deregisters.Inc()
	if _, ok := s.records[agentID]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, agentID)
	}
	delete(s.records, agentID)
	return nil
}

// Lookup implements Resolver. Expired entries read as not found.
func (s *Service) Lookup(_ context.Context, agentID string) (Record, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.lookups.Inc()
	rec, ok := s.records[agentID]
	if !ok || s.expiredLocked(rec) {
		s.lookupMisses.Inc()
		return Record{}, fmt.Errorf("%w: %q", ErrNotFound, agentID)
	}
	return *rec, nil
}

// Apply installs a replicated record verbatim, keeping whichever of the
// existing and incoming entries carries the higher epoch (latest-wins). It
// bypasses the Register/Update transition rules: replication ships
// already-validated state, so a replica only has to converge, not
// re-validate. It reports whether the record was installed.
func (s *Service) Apply(rec Record) bool {
	if rec.AgentID == "" {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.records[rec.AgentID]; ok && old.Epoch >= rec.Epoch && !s.expiredLocked(old) {
		return false
	}
	cp := rec
	s.records[rec.AgentID] = &cp
	s.appendTraceLocked(rec.AgentID, Move{When: rec.UpdatedAt, Loc: rec.Loc, Epoch: rec.Epoch})
	return true
}

// Remove deletes an agent without the not-found error of Deregister; the
// idempotent form replication needs.
func (s *Service) Remove(agentID string) {
	s.mu.Lock()
	delete(s.records, agentID)
	s.mu.Unlock()
}

// Dump returns a copy of every live record, the full-state transfer used
// to bring a lagging replica back in sync.
func (s *Service) Dump() []Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Record, 0, len(s.records))
	for _, rec := range s.records {
		if s.expiredLocked(rec) {
			continue
		}
		out = append(out, *rec)
	}
	return out
}

// Stats reports the live record count and the highest epoch held, for the
// /namez debug surface.
func (s *Service) Stats() (records int, maxEpoch uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, rec := range s.records {
		if s.expiredLocked(rec) {
			continue
		}
		records++
		if rec.Epoch > maxEpoch {
			maxEpoch = rec.Epoch
		}
	}
	return records, maxEpoch
}

// Trace returns a copy of the agent's movement history, oldest first.
func (s *Service) Trace(agentID string) []Move {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t := s.traces[agentID]
	out := make([]Move, len(t))
	copy(out, t)
	return out
}

// Agents returns the ids of all registered agents, sorted.
func (s *Service) Agents() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.records))
	for id := range s.records {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func (s *Service) appendTraceLocked(agentID string, m Move) {
	t := append(s.traces[agentID], m)
	if len(t) > maxTrace {
		t = t[len(t)-maxTrace:]
	}
	s.traces[agentID] = t
}
