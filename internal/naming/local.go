package naming

import "context"

// Local adapts an in-process Service to the context-taking directory
// interface used by the agent runtime, so a single-process deployment (all
// hosts in one binary, as in tests and simulations) and a multi-process
// deployment (hosts using cluster.Client against the naming nodes) are
// interchangeable.
type Local struct {
	Svc *Service
}

// Register registers an agent.
func (l Local) Register(_ context.Context, agentID string, loc Location) error {
	return l.Svc.Register(agentID, loc)
}

// Update records an agent migration.
func (l Local) Update(_ context.Context, agentID string, loc Location, epoch uint64) error {
	return l.Svc.Update(agentID, loc, epoch)
}

// Deregister removes an agent.
func (l Local) Deregister(_ context.Context, agentID string) error {
	return l.Svc.Deregister(agentID)
}

// Lookup resolves an agent's current location.
func (l Local) Lookup(ctx context.Context, agentID string) (Record, error) {
	return l.Svc.Lookup(ctx, agentID)
}
