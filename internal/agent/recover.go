package agent

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"time"

	"naplet/internal/journal"
	"naplet/internal/naming"
)

// This file is the agent runtime's half of crash recovery: resident
// agents are checkpointed into the write-ahead journal (behaviour state
// plus epoch), and Recover rebuilds them after a restart — re-registering
// each agent with the location service and re-entering its behaviour.

// ConnCheckpointer contributes connection-state records to an agent
// checkpoint batch. The NapletSocket controller implements it; hooks that
// do are discovered by type assertion. Batching the behaviour's progress
// and its connections' send cursors into one atomic journal append is
// what preserves exactly-once delivery across a crash: with separate
// writes, a crash between them either replays a sent message or skips an
// unsent one, whichever order is chosen. CheckpointRecords calls commit
// once with the agent's connection records and keeps them current — no
// other writer of those journal keys gets in between — until it returns.
type ConnCheckpointer interface {
	CheckpointRecords(agentID string, commit func(conns []journal.Record) error) error
}

// agentState is the journaled form of one resident agent.
type agentState struct {
	Epoch uint64
	// Behavior carries the gob-encoded behaviour value, exactly as a
	// migration bundle would ship it.
	Behavior Behavior
}

// checkpointAgent journals the agent's behaviour state atomically with
// its connections' states (one batch, one write).
func (h *Host) checkpointAgent(agentID string, b Behavior, epoch uint64) error {
	j := h.cfg.Journal
	if j == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&agentState{Epoch: epoch, Behavior: b}); err != nil {
		return fmt.Errorf("agent: encoding checkpoint of %q: %w", agentID, err)
	}
	h.mu.Lock()
	hooks := append([]Hook(nil), h.hooks...)
	h.mu.Unlock()
	// Each checkpointing hook wraps the append, so the one batch is written
	// while every hook holds its connections still.
	commit := func(recs []journal.Record) error { return j.Append(recs...) }
	for _, hook := range hooks {
		if cp, ok := hook.(ConnCheckpointer); ok {
			inner := commit
			commit = func(recs []journal.Record) error {
				return cp.CheckpointRecords(agentID, func(conns []journal.Record) error {
					return inner(append(recs, conns...))
				})
			}
		}
	}
	err := commit([]journal.Record{{Kind: journal.KindAgent, Key: agentID, Data: buf.Bytes()}})
	if err != nil && !errors.Is(err, journal.ErrClosed) {
		return fmt.Errorf("agent: journaling checkpoint of %q: %w", agentID, err)
	}
	h.checkpoints.Inc()
	return nil
}

// dropAgentJournal removes an agent's journal record — the agent has left
// this host for good (terminated, failed, or migrated away).
func (h *Host) dropAgentJournal(agentID string) {
	if j := h.cfg.Journal; j != nil {
		j.Delete(journal.KindAgent, agentID)
	}
}

// Recover restarts every journaled agent after a process restart. For
// each one it re-claims the agent's location service entry — advancing
// the epoch past the pre-crash registration, or re-registering when the
// entry already expired by TTL — re-checkpoints under the new epoch, and
// re-enters the behaviour from its last checkpoint. Call it after the
// connection layer has rebuilt its own state (Controller.RecoverConns),
// so resumes arriving from peers find their connections. It returns the
// number of agents recovered.
func (h *Host) Recover() (int, error) {
	j := h.cfg.Journal
	if j == nil {
		return 0, nil
	}
	recovered := 0
	for agentID, data := range j.Entries(journal.KindAgent) {
		var st agentState
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
			h.log.Warnf("recover: undecodable checkpoint of %q: %v", agentID, err)
			continue
		}
		h.mu.Lock()
		_, resident := h.agents[agentID]
		h.mu.Unlock()
		if resident || st.Behavior == nil {
			continue
		}

		epoch, err := h.reclaimLocation(agentID, st.Epoch)
		if err != nil {
			h.log.Warnf("recover: re-registering %q: %v", agentID, err)
			continue
		}
		h.noteLocationEpoch(agentID, epoch)
		if err := h.checkpointAgent(agentID, st.Behavior, epoch); err != nil {
			h.log.Warnf("recover: %v", err)
		}
		h.log.Infof("agent %s recovered from journal (epoch %d)", agentID, epoch)
		h.recoveries.Inc()
		recovered++
		h.startAgent(agentID, st.Behavior, epoch)
	}
	return recovered, nil
}

// reclaimLocation points the location service back at this host after a
// restart and returns the epoch the agent now runs under. A live entry
// (ours, pre-crash) is advanced by a normal epoch update; an entry the
// TTL already expired is re-registered, which continues its epoch
// sequence so pre-crash stragglers stay stale.
func (h *Host) reclaimLocation(agentID string, journaled uint64) (uint64, error) {
	ctx, cancel := context.WithTimeout(h.rootCtx, 10*time.Second)
	defer cancel()
	rec, err := h.cfg.Directory.Lookup(ctx, agentID)
	if err == nil {
		epoch := rec.Epoch + 1
		if uerr := h.cfg.Directory.Update(ctx, agentID, h.Location(), epoch); uerr != nil {
			return 0, uerr
		}
		return epoch, nil
	}
	if !errors.Is(err, naming.ErrNotFound) {
		return 0, err
	}
	if rerr := h.cfg.Directory.Register(ctx, agentID, h.Location()); rerr != nil {
		return 0, rerr
	}
	// Register picks the next epoch itself when it supersedes an expired
	// entry; read it back rather than guessing.
	if rec, lerr := h.cfg.Directory.Lookup(ctx, agentID); lerr == nil {
		return rec.Epoch, nil
	}
	return journaled, nil
}
