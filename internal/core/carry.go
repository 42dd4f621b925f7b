package core

import (
	"fmt"
	"io"
	"time"

	"naplet/internal/transport"
	"naplet/internal/wire"
)

// This file makes the Controller the agent runtime's Carrier
// (agent.Carrier, satisfied structurally): a migrating agent's bundle is one
// stream on the shared per-host-pair transport, so a hop reuses a warm
// transport, falls back to the relay when the direct dial fails, and is
// sealed whenever the transport is.

const (
	// maxCarryBytes bounds one inbound agent bundle, counted while reading:
	// nothing is allocated from a length the sender claims.
	maxCarryBytes = 64 << 20
	// carryTimeout bounds the transfer of one bundle, on both ends.
	carryTimeout = 30 * time.Second
)

// Dock installs arrive as the receiver of inbound agent bundles. Until a
// receiver is docked, agent streams are refused at the handoff.
func (ctrl *Controller) Dock(arrive func(bundle []byte) error) { ctrl.arrive.Store(&arrive) }

// Carry writes one agent's bundle to the host whose redirector listens at
// dest, half-closes, and reads that host's verdict to EOF: nothing when it
// took the agent, else its refusal. A dial the hop pays for joins the
// migration trace published under the agent id. A delivered agent's
// location epoch is forgotten here — the one read as the carry started, so
// an agent that hops straight back keeps the newer epoch its arrival noted.
func (ctrl *Controller) Carry(agentID, dest string, bundle []byte) error {
	fail := func(err error) error { return fmt.Errorf("napletsocket: carrying %s to %s: %w", agentID, dest, err) }
	epoch := ctrl.locationEpoch(agentID)
	st, err := ctrl.tm.OpenStreamTraced(dest, &wire.HandoffHeader{Purpose: wire.HandoffAgent},
		ctrl.cfg.opTimeout(), ctrl.obs.tr.Active(agentID))
	if err != nil {
		return fail(err)
	}
	defer st.Close()
	st.SetDeadline(time.Now().Add(carryTimeout))
	if _, err := st.Write(bundle); err != nil {
		return fail(err)
	}
	st.CloseWrite() // a failure here is the read's to report
	verdict, err := io.ReadAll(io.LimitReader(st, 1<<16))
	if len(verdict) > 0 {
		return fmt.Errorf("napletsocket: %s refused agent %s: %s", dest, agentID, verdict)
	}
	if err != nil {
		return fail(err)
	}
	ctrl.epochMu.Lock()
	if ctrl.locEpochs[agentID] == epoch {
		delete(ctrl.locEpochs, agentID)
	}
	ctrl.epochMu.Unlock()
	return nil
}

// takeBundle serves one inbound agent stream on its transport's serveOpen
// goroutine: it reads the bundle, at most maxCarryBytes of it, hands it to
// the docked receiver, and writes the refusal, if any, before closing.
func (ctrl *Controller) takeBundle(st *transport.Stream) {
	defer st.Close()
	st.SetDeadline(time.Now().Add(carryTimeout))
	raw, err := io.ReadAll(io.LimitReader(st, maxCarryBytes+1))
	switch {
	case err != nil:
		ctrl.logf("agent bundle from a peer: %v", err)
		return
	case len(raw) > maxCarryBytes:
		err = fmt.Errorf("bundle exceeds %d bytes", maxCarryBytes)
	default:
		err = (*ctrl.arrive.Load())(raw)
	}
	// A verdict that cannot be written reaches the sender as a failed read.
	if err != nil {
		ctrl.logf("agent bundle refused: %v", err)
		io.WriteString(st, err.Error())
	}
	st.CloseWrite()
}
