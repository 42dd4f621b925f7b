package cluster

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"time"

	"naplet/internal/naming"
	"naplet/internal/obs"
	"naplet/internal/rudp"
)

// ClientConfig configures a cluster client.
type ClientConfig struct {
	// Seeds are addresses of cluster nodes; any one reachable seed is
	// enough to fetch the layout.
	Seeds []string
	// Metrics, when non-nil, receives naming.client.* counters.
	Metrics *obs.Registry
	// DropFn injects control-channel faults (see rudp.Config.DropFn).
	DropFn func([]byte) bool
}

// Client routes namespace operations to the cluster. It implements both
// naming.Resolver and the agent runtime's Directory interface, and is the
// one way a host reaches a location service in another process.
type Client struct {
	ep     *rudp.Endpoint
	ring   *Ring
	layout Layout

	retries, redirects *obs.Counter

	mu sync.Mutex
	// leaders caches the last leader learned per shard, tried first.
	leaders map[int]string
}

// NewClient bootstraps a client from the seeds: the first reachable seed
// supplies the layout (every node carries it), and the ring is derived
// from the layout's shard count. The seeds are swept until one answers or
// ctx is done, so a host may start before the nodes it names.
func NewClient(ctx context.Context, cfg ClientConfig) (*Client, error) {
	if len(cfg.Seeds) == 0 {
		return nil, errors.New("cluster: no seeds")
	}
	ep, err := rudp.Listen("127.0.0.1:0", nil, rudp.Config{DropFn: cfg.DropFn})
	if err != nil {
		return nil, err
	}
	c := &Client{
		ep:        ep,
		retries:   cfg.Metrics.Counter("naming.client.retries"),
		redirects: cfg.Metrics.Counter("naming.client.redirects"),
		leaders:   make(map[int]string),
	}
	for {
		for _, seed := range cfg.Seeds {
			if err = c.bootstrap(ctx, seed); err == nil {
				return c, nil
			}
		}
		select {
		case <-ctx.Done():
			ep.Close()
			return nil, fmt.Errorf("cluster: bootstrap failed: %w", err)
		case <-time.After(sweepPause):
		}
	}
}

// bootstrap fetches the layout and the leadership hints from one seed.
func (c *Client) bootstrap(ctx context.Context, seed string) error {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	resp, err := c.call(ctx, seed, request{Kind: kindMap})
	if err != nil {
		return err
	}
	if resp.Layout == nil || resp.Layout.Validate() != nil {
		return fmt.Errorf("cluster: seed %s returned no usable layout", seed)
	}
	c.layout = *resp.Layout
	c.ring = NewRing(c.layout.Shards)
	for _, st := range resp.Vec {
		if st.Shard >= 0 && st.Shard < len(c.layout.Replicas) && st.Leader >= 0 && st.Leader < len(c.layout.Replicas[st.Shard]) {
			c.leaders[st.Shard] = c.layout.Replicas[st.Shard][st.Leader]
		}
	}
	return nil
}

// Close releases the client's socket.
func (c *Client) Close() error { return c.ep.Close() }

func (c *Client) call(ctx context.Context, addr string, req request) (response, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(req); err != nil {
		return response{}, err
	}
	respBytes, err := c.ep.Request(ctx, addr, buf.Bytes())
	if err != nil {
		return response{}, err
	}
	var resp response
	if err := gob.NewDecoder(bytes.NewReader(respBytes)).Decode(&resp); err != nil {
		return response{}, err
	}
	return resp, nil
}

// candidates returns the replica addresses for a shard in try-order: the
// last learned leader first, then the layout's rank order.
func (c *Client) candidates(shard int) []string {
	reps := c.layout.Replicas[shard]
	c.mu.Lock()
	learned := c.leaders[shard]
	c.mu.Unlock()
	out := make([]string, 0, len(reps)+1)
	if learned != "" {
		out = append(out, learned)
	}
	for _, a := range reps {
		if a != learned {
			out = append(out, a)
		}
	}
	return out
}

// noteLeader records leadership learned from a reply.
func (c *Client) noteLeader(shard int, resp response) {
	reps := c.layout.Replicas[shard]
	addr := resp.LeaderAddr
	if addr == "" && resp.Leader >= 0 && resp.Leader < len(reps) {
		addr = reps[resp.Leader]
	}
	if addr == "" {
		return
	}
	c.mu.Lock()
	c.leaders[shard] = addr
	c.mu.Unlock()
}

// sweepPause separates two passes over a replica set (or, at bootstrap,
// over the seeds) that both went unanswered.
const sweepPause = 50 * time.Millisecond

// do routes one operation: try candidates in order, follow NotLeader
// redirects, and sweep the replica set repeatedly (with a short pause)
// until ctx expires — failover windows heal in lease-duration time, so
// patience beats giving up.
func (c *Client) do(ctx context.Context, req request) (response, error) {
	// Callers without a deadline (the agent runtime passes its root
	// context) still deserve an answer in bounded time.
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, 15*time.Second)
		defer cancel()
	}
	shard := c.ring.ShardOf(req.AgentID)
	req.Kind = kindClient
	req.Shard = shard
	var lastErr error
	var retry *time.Timer
	for sweep := 0; ; sweep++ {
		for _, addr := range c.candidates(shard) {
			if ctx.Err() != nil {
				return response{}, c.exhausted(shard, lastErr, ctx)
			}
			callCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
			resp, err := c.call(callCtx, addr, req)
			cancel()
			if err != nil {
				lastErr = err
				c.retries.Inc()
				continue
			}
			c.noteLeader(shard, resp)
			if resp.NotLeader {
				lastErr = fmt.Errorf("%w: shard %d replica %s is not leader", ErrUnavailable, shard, addr)
				c.redirects.Inc()
				continue
			}
			if resp.Err != "" {
				return resp, remoteError(resp.Err)
			}
			return resp, nil
		}
		// Whole replica set swept without an answer; wait out a slice of
		// the failover window before sweeping again, on one reused timer
		// rather than a fresh time.After allocation per sweep.
		if retry == nil {
			retry = time.NewTimer(sweepPause)
			defer retry.Stop()
		} else {
			retry.Reset(sweepPause)
		}
		select {
		case <-ctx.Done():
			return response{}, c.exhausted(shard, lastErr, ctx)
		case <-retry.C:
		}
	}
}

func (c *Client) exhausted(shard int, lastErr error, ctx context.Context) error {
	if lastErr == nil {
		lastErr = ctx.Err()
	}
	return fmt.Errorf("%w: shard %d: %v", ErrUnavailable, shard, lastErr)
}

// remoteError maps a serialized error string back onto the naming
// package's sentinels so errors.Is keeps working across the wire.
func remoteError(msg string) error {
	switch {
	case contains(msg, naming.ErrNotFound):
		return fmt.Errorf("%w (remote: %s)", naming.ErrNotFound, msg)
	case contains(msg, naming.ErrStale):
		return fmt.Errorf("%w (remote: %s)", naming.ErrStale, msg)
	case contains(msg, naming.ErrExists):
		return fmt.Errorf("%w (remote: %s)", naming.ErrExists, msg)
	default:
		return fmt.Errorf("cluster: remote error: %s", msg)
	}
}

func contains(msg string, sentinel error) bool {
	return bytes.Contains([]byte(msg), []byte(sentinel.Error()))
}

// Register registers an agent with the owning shard.
func (c *Client) Register(ctx context.Context, agentID string, loc naming.Location) error {
	_, err := c.do(ctx, request{Op: opRegister, AgentID: agentID, Loc: loc})
	return err
}

// Update reports an agent migration to the owning shard.
func (c *Client) Update(ctx context.Context, agentID string, loc naming.Location, epoch uint64) error {
	_, err := c.do(ctx, request{Op: opUpdate, AgentID: agentID, Loc: loc, Epoch: epoch})
	return err
}

// Deregister removes an agent from the owning shard.
func (c *Client) Deregister(ctx context.Context, agentID string) error {
	_, err := c.do(ctx, request{Op: opDeregister, AgentID: agentID})
	return err
}

// Lookup implements naming.Resolver against the cluster.
func (c *Client) Lookup(ctx context.Context, agentID string) (naming.Record, error) {
	resp, err := c.do(ctx, request{Op: opLookup, AgentID: agentID})
	if err != nil {
		return naming.Record{}, err
	}
	return resp.Rec, nil
}
