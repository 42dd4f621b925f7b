package core

import (
	"sync"

	"naplet/internal/wire"
)

// connShards is the stripe count of the controller's connection table.
// Every hot-path operation — register, drop, lookup by key, the
// per-agent queries the migration hook makes, and the isMigrating check
// on the resume path — is keyed by agent id, so the table stripes on a
// hash of the agent: two agents on different shards never contend, and
// at 100k conns the old whole-table mutex (one lock for every
// registerConn/dropConn/connByKey in the process) becomes 64 locks each
// covering ~1.5k conns.
const connShards = 64

// connShard is one stripe: the maps mirror the old Controller fields,
// restricted to agents that hash here. migrating lives with the conns it
// gates so PreDepart's set-flag-and-collect is one lock acquisition.
type connShard struct {
	mu        sync.Mutex
	conns     map[connKey]*Socket
	byAgent   map[string]map[wire.ConnID]*Socket
	migrating map[string]bool
}

// connTable is the sharded resident-connection table.
type connTable struct {
	shards [connShards]connShard
}

func newConnTable() *connTable {
	t := &connTable{}
	for i := range t.shards {
		s := &t.shards[i]
		s.conns = make(map[connKey]*Socket)
		s.byAgent = make(map[string]map[wire.ConnID]*Socket)
		s.migrating = make(map[string]bool)
	}
	return t
}

// shard maps an agent id to its stripe (FNV-1a).
func (t *connTable) shard(agent string) *connShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(agent); i++ {
		h ^= uint64(agent[i])
		h *= prime64
	}
	return &t.shards[h%connShards]
}

// register adds a socket under its local agent.
func (t *connTable) register(s *Socket) {
	sh := t.shard(s.localAgent)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.conns[connKey{id: s.id, agent: s.localAgent}] = s
	agents := sh.byAgent[s.localAgent]
	if agents == nil {
		agents = make(map[wire.ConnID]*Socket)
		sh.byAgent[s.localAgent] = agents
	}
	agents[s.id] = s
}

// drop removes a socket; it is a no-op for sockets already dropped, and for
// a dead handle whose connection has since come back to this host under the
// same key.
func (t *connTable) drop(s *Socket) {
	sh := t.shard(s.localAgent)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.conns[connKey{id: s.id, agent: s.localAgent}] != s {
		return
	}
	delete(sh.conns, connKey{id: s.id, agent: s.localAgent})
	if agents := sh.byAgent[s.localAgent]; agents != nil {
		delete(agents, s.id)
		if len(agents) == 0 {
			delete(sh.byAgent, s.localAgent)
		}
	}
}

// byKey fetches a resident connection endpoint by id and local agent.
func (t *connTable) byKey(id wire.ConnID, agent string) (*Socket, bool) {
	sh := t.shard(agent)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s, ok := sh.conns[connKey{id: id, agent: agent}]
	return s, ok
}

// agentSocket fetches one of an agent's connections by id.
func (t *connTable) agentSocket(agent string, id wire.ConnID) (*Socket, bool) {
	sh := t.shard(agent)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s, ok := sh.byAgent[agent][id]
	return s, ok
}

// agentSockets lists an agent's resident connections.
func (t *connTable) agentSockets(agent string) []*Socket {
	sh := t.shard(agent)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make([]*Socket, 0, len(sh.byAgent[agent]))
	for _, s := range sh.byAgent[agent] {
		out = append(out, s)
	}
	return out
}

// setMigrating flips the agent's suspend-phase flag; when turning the
// flag on it also returns the agent's resident connections, so the
// migration hook's "mark and collect" is atomic within the shard.
func (t *connTable) setMigrating(agent string, v bool) []*Socket {
	sh := t.shard(agent)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !v {
		delete(sh.migrating, agent)
		return nil
	}
	sh.migrating[agent] = true
	out := make([]*Socket, 0, len(sh.byAgent[agent]))
	for _, s := range sh.byAgent[agent] {
		out = append(out, s)
	}
	return out
}

// isMigrating reports whether the agent is in its suspend phase.
func (t *connTable) isMigrating(agent string) bool {
	sh := t.shard(agent)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.migrating[agent]
}

// migratingCount counts agents currently in their suspend phase.
func (t *connTable) migratingCount() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n += len(sh.migrating)
		sh.mu.Unlock()
	}
	return n
}

// all snapshots every resident connection across the shards.
func (t *connTable) all() []*Socket {
	var out []*Socket
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, s := range sh.conns {
			out = append(out, s)
		}
		sh.mu.Unlock()
	}
	return out
}

// count returns the number of resident connection endpoints.
func (t *connTable) count() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n += len(sh.conns)
		sh.mu.Unlock()
	}
	return n
}
