// Package postoffice implements Naplet's mailbox-based asynchronous
// persistent communication mechanism — the PostOffice the paper's
// introduction describes as the pre-existing communication service that
// NapletSocket complements. Each resident agent has a mailbox at its host's
// post office; senders resolve the recipient through the location service
// and deliver to the recipient's current office, retrying around
// migrations. The mailbox contents migrate with the agent (the office is a
// migration hook), so messages are never dropped by a hop.
//
// In the paper's terms this is asynchronous *persistent* communication: a
// send succeeds whether or not the receiver is currently reachable, and the
// sender learns nothing about when (or whether) the receiver reads the
// message — exactly the weakness that motivates NapletSocket's synchronous
// transient channel.
package postoffice

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"naplet/internal/naming"
	"naplet/internal/rudp"
)

// Message is one mailbox message.
type Message struct {
	From, To string
	Body     []byte
	Sent     time.Time
}

// Errors returned by the office.
var (
	// ErrUndeliverable reports that delivery retries were exhausted.
	ErrUndeliverable = errors.New("postoffice: undeliverable")
)

// deliverStatus values in wire replies.
const (
	statusOK      = "ok"
	statusNotHere = "not-here" // agent not resident; sender should re-resolve
	statusRetry   = "retry"    // agent mid-migration; sender should retry here
)

type deliverRequest struct {
	Msg Message
}

type deliverReply struct {
	Status string
}

// Box is one agent's mailbox.
type Box struct {
	mu    sync.Mutex
	queue []Message
	// arrival is signalled (closed and replaced) whenever a message lands.
	arrival chan struct{}
}

func newBox() *Box {
	return &Box{arrival: make(chan struct{})}
}

func (b *Box) put(m Message) {
	b.mu.Lock()
	b.queue = append(b.queue, m)
	close(b.arrival)
	b.arrival = make(chan struct{})
	b.mu.Unlock()
}

// Len returns the number of queued messages.
func (b *Box) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.queue)
}

// Receive pops the oldest message, blocking until one arrives or ctx is
// done.
func (b *Box) Receive(ctx context.Context) (Message, error) {
	for {
		b.mu.Lock()
		if len(b.queue) > 0 {
			m := b.queue[0]
			b.queue = b.queue[1:]
			b.mu.Unlock()
			return m, nil
		}
		arrival := b.arrival
		b.mu.Unlock()
		select {
		case <-arrival:
		case <-ctx.Done():
			return Message{}, ctx.Err()
		}
	}
}

// TryReceive pops the oldest message without blocking; ok is false when the
// box is empty.
func (b *Box) TryReceive() (Message, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.queue) == 0 {
		return Message{}, false
	}
	m := b.queue[0]
	b.queue = b.queue[1:]
	return m, true
}

// Office is one host's post office.
type Office struct {
	hostName string
	resolver naming.Resolver
	ep       *rudp.Endpoint

	mu    sync.Mutex
	boxes map[string]*Box
	// migrating marks agents that departed from here, so deliveries get a
	// retry verdict while the location service still (briefly) points here.
	migrating map[string]bool
}

// New starts a post office for hostName, listening on addr ("" for an
// ephemeral loopback port). The resolver locates recipient agents.
func New(hostName string, resolver naming.Resolver, addr string) (*Office, error) {
	o := &Office{
		hostName:  hostName,
		resolver:  resolver,
		boxes:     make(map[string]*Box),
		migrating: make(map[string]bool),
	}
	ep, err := rudp.Listen(addr, o.handle, rudp.Config{})
	if err != nil {
		return nil, err
	}
	o.ep = ep
	return o, nil
}

// Addr returns the office's UDP address, advertised as MailAddr in the
// host's location record.
func (o *Office) Addr() string { return o.ep.Addr().String() }

// Close shuts the office down.
func (o *Office) Close() error { return o.ep.Close() }

// Open creates (or returns) the mailbox of a resident agent.
func (o *Office) Open(agentID string) *Box {
	o.mu.Lock()
	defer o.mu.Unlock()
	if b, ok := o.boxes[agentID]; ok {
		return b
	}
	b := newBox()
	o.boxes[agentID] = b
	delete(o.migrating, agentID)
	return b
}

// Lookup returns the mailbox of a resident agent, if any.
func (o *Office) Lookup(agentID string) (*Box, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	b, ok := o.boxes[agentID]
	return b, ok
}

// handle serves one inbound delivery.
func (o *Office) handle(_ *net.UDPAddr, reqBytes []byte) []byte {
	var req deliverRequest
	if err := gob.NewDecoder(bytes.NewReader(reqBytes)).Decode(&req); err != nil {
		return encodeReply(deliverReply{Status: "bad request: " + err.Error()})
	}
	o.mu.Lock()
	box, ok := o.boxes[req.Msg.To]
	migrating := o.migrating[req.Msg.To]
	o.mu.Unlock()
	if !ok {
		if migrating {
			return encodeReply(deliverReply{Status: statusRetry})
		}
		return encodeReply(deliverReply{Status: statusNotHere})
	}
	box.put(req.Msg)
	return encodeReply(deliverReply{Status: statusOK})
}

func encodeReply(r deliverReply) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(r); err != nil {
		panic("postoffice: encoding reply: " + err.Error())
	}
	return buf.Bytes()
}

// Send delivers body from one agent to another, following the recipient
// through migrations: resolve, deliver to the recipient's office, and on a
// miss re-resolve and retry with backoff until ctx expires or attempts run
// out.
func (o *Office) Send(ctx context.Context, from, to string, body []byte) error {
	msg := Message{From: from, To: to, Body: append([]byte(nil), body...), Sent: time.Now()}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(deliverRequest{Msg: msg}); err != nil {
		return fmt.Errorf("postoffice: encoding message: %w", err)
	}
	backoff := 5 * time.Millisecond
	const maxAttempts = 20
	for attempt := 0; attempt < maxAttempts; attempt++ {
		rec, err := o.resolver.Lookup(ctx, to)
		if err != nil {
			if errors.Is(err, naming.ErrNotFound) {
				// The agent may be registering or mid-migration; wait and
				// retry rather than failing an asynchronous send.
				if serr := sleepCtx(ctx, backoff); serr != nil {
					return serr
				}
				backoff = bump(backoff)
				continue
			}
			return err
		}
		if rec.Loc.MailAddr == "" {
			return fmt.Errorf("postoffice: host %s of agent %s has no post office", rec.Loc.Host, to)
		}
		respBytes, err := o.ep.Request(ctx, rec.Loc.MailAddr, buf.Bytes())
		if err != nil {
			return err
		}
		var resp deliverReply
		if err := gob.NewDecoder(bytes.NewReader(respBytes)).Decode(&resp); err != nil {
			return fmt.Errorf("postoffice: decoding reply: %w", err)
		}
		switch resp.Status {
		case statusOK:
			return nil
		case statusNotHere, statusRetry:
			if serr := sleepCtx(ctx, backoff); serr != nil {
				return serr
			}
			backoff = bump(backoff)
		default:
			return fmt.Errorf("postoffice: remote error: %s", resp.Status)
		}
	}
	return fmt.Errorf("%w: %s after %d attempts", ErrUndeliverable, to, maxAttempts)
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func bump(d time.Duration) time.Duration {
	if d >= 200*time.Millisecond {
		return d
	}
	return d * 2
}

// ---- migration hook (structurally implements agent.Hook) ----

// HookName keys the office's blob in migration bundles.
func (o *Office) HookName() string { return "postoffice" }

// PreDepart serializes and removes the departing agent's mailbox so queued
// messages travel with the agent.
func (o *Office) PreDepart(agentID string) ([]byte, error) {
	o.mu.Lock()
	box, ok := o.boxes[agentID]
	if ok {
		delete(o.boxes, agentID)
		o.migrating[agentID] = true
	}
	o.mu.Unlock()
	if !ok {
		return nil, nil // agent never opened a mailbox
	}
	box.mu.Lock()
	queue := box.queue
	box.queue = nil
	box.mu.Unlock()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(queue); err != nil {
		return nil, fmt.Errorf("postoffice: serializing mailbox of %s: %w", agentID, err)
	}
	return buf.Bytes(), nil
}

// PostArrive recreates the arriving agent's mailbox with its carried
// messages.
func (o *Office) PostArrive(agentID string, blob []byte) error {
	if blob == nil {
		return nil
	}
	var queue []Message
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&queue); err != nil {
		return fmt.Errorf("postoffice: restoring mailbox of %s: %w", agentID, err)
	}
	box := o.Open(agentID)
	box.mu.Lock()
	box.queue = append(queue, box.queue...)
	close(box.arrival)
	box.arrival = make(chan struct{})
	box.mu.Unlock()
	return nil
}

// OnTerminate discards the agent's mailbox.
func (o *Office) OnTerminate(agentID string) {
	o.mu.Lock()
	delete(o.boxes, agentID)
	delete(o.migrating, agentID)
	o.mu.Unlock()
}
