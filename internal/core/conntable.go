package core

import (
	"sync"

	"naplet/internal/wire"
)

// connTable is the controller's resident-connection table: each endpoint
// filed once, under its local agent and connection id, plus the agents in
// their suspend phase. It is touched once per control message and never per
// data message, so one mutex covers it. migrating lives with the conns it
// gates so PreDepart's set-flag-and-collect is one lock acquisition.
type connTable struct {
	mu        sync.Mutex
	byAgent   map[string]map[wire.ConnID]*Socket
	migrating map[string]bool
}

func newConnTable() *connTable {
	return &connTable{
		byAgent:   make(map[string]map[wire.ConnID]*Socket),
		migrating: make(map[string]bool),
	}
}

// register adds a socket under its local agent.
func (t *connTable) register(s *Socket) {
	t.mu.Lock()
	defer t.mu.Unlock()
	agents := t.byAgent[s.localAgent]
	if agents == nil {
		agents = make(map[wire.ConnID]*Socket)
		t.byAgent[s.localAgent] = agents
	}
	agents[s.id] = s
}

// drop removes a socket; it is a no-op for sockets already dropped, and for
// a dead handle whose connection has since come back to this host under the
// same key.
func (t *connTable) drop(s *Socket) {
	t.mu.Lock()
	defer t.mu.Unlock()
	agents := t.byAgent[s.localAgent]
	if agents[s.id] != s {
		return
	}
	delete(agents, s.id)
	if len(agents) == 0 {
		delete(t.byAgent, s.localAgent)
	}
}

// byKey fetches a resident connection endpoint by id and local agent.
func (t *connTable) byKey(id wire.ConnID, agent string) (*Socket, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.byAgent[agent][id]
	return s, ok
}

// agentSockets lists an agent's resident connections.
func (t *connTable) agentSockets(agent string) []*Socket {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.agentSocketsLocked(agent)
}

func (t *connTable) agentSocketsLocked(agent string) []*Socket {
	out := make([]*Socket, 0, len(t.byAgent[agent]))
	for _, s := range t.byAgent[agent] {
		out = append(out, s)
	}
	return out
}

// setMigrating flips the agent's suspend-phase flag; when turning the
// flag on it also returns the agent's resident connections, so the
// migration hook's "mark and collect" is atomic.
func (t *connTable) setMigrating(agent string, v bool) []*Socket {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !v {
		delete(t.migrating, agent)
		return nil
	}
	t.migrating[agent] = true
	return t.agentSocketsLocked(agent)
}

// isMigrating reports whether the agent is in its suspend phase.
func (t *connTable) isMigrating(agent string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.migrating[agent]
}

// migratingCount counts agents currently in their suspend phase.
func (t *connTable) migratingCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.migrating)
}

// all snapshots every resident connection.
func (t *connTable) all() []*Socket {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*Socket
	for _, agents := range t.byAgent {
		for _, s := range agents {
			out = append(out, s)
		}
	}
	return out
}

// count returns the number of resident connection endpoints.
func (t *connTable) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, agents := range t.byAgent {
		n += len(agents)
	}
	return n
}
