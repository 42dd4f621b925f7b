// Package rudp implements the reliable request/response control channel of
// NapletSocket (Section 3.5 of the paper): control messages travel over UDP
// for low latency, with retransmission timers, acknowledgements, and
// duplicate suppression layered on top to mask omission failures and
// reordering. Sequence (request) identifiers relate each reply to its
// request.
//
// The receiver invokes the registered handler exactly once per request id
// and caches the response, so a retransmitted request is answered from the
// cache rather than re-executed — giving exactly-once handler semantics with
// at-least-once delivery underneath.
package rudp

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
)

const (
	packetMagic   = 0x4e55 // "NU"
	packetVersion = 1

	kindRequest  = 1
	kindResponse = 2

	headerSize = 2 + 1 + 1 + 8

	// MaxPayload bounds a control payload to stay far below typical UDP MTU
	// trouble; loopback allows much more, but control messages are small.
	MaxPayload = 32 << 10
)

// Errors returned by the endpoint.
var (
	// ErrTimeout reports that a request exhausted its retransmissions
	// without receiving a response.
	ErrTimeout = errors.New("rudp: request timed out")
	// ErrClosed reports use of a closed endpoint.
	ErrClosed = errors.New("rudp: endpoint closed")
	// ErrPeerUnreachable reports that a request exhausted its retry budget
	// without any response from the peer — the typed signal the recovery
	// paths act on. Errors carrying it also match
	// ErrTimeout, so existing timeout handling keeps working.
	ErrPeerUnreachable = errors.New("rudp: peer unreachable")
)

// UnreachableError is the concrete error for an exhausted retry budget.
type UnreachableError struct {
	// Peer is the unresponsive remote address.
	Peer string
	// Retries is how many retransmissions were attempted.
	Retries int
	// Elapsed is how long the request tried overall.
	Elapsed time.Duration
}

// Error implements error.
func (e *UnreachableError) Error() string {
	return fmt.Sprintf("rudp: peer %s unreachable after %d retries over %v", e.Peer, e.Retries, e.Elapsed.Round(time.Millisecond))
}

// Is matches both ErrPeerUnreachable and ErrTimeout.
func (e *UnreachableError) Is(target error) bool {
	return target == ErrPeerUnreachable || target == ErrTimeout
}

// Handler processes one control request and returns the response payload.
// It is invoked at most once per request id even if the request is
// retransmitted. Handlers run on their own goroutines and must be safe for
// concurrent use.
type Handler func(from *net.UDPAddr, req []byte) (resp []byte)

// Config tunes an endpoint. The zero value selects the defaults.
type Config struct {
	// RetransmitInterval is the initial gap between retransmissions of an
	// unacknowledged request; it doubles after every retry, capped at
	// backoffCapFactor times itself. Default 20ms.
	RetransmitInterval time.Duration
	// Jitter is the fraction (0..1) by which each retransmission gap is
	// randomly perturbed, so retries from many connections decorrelate
	// instead of arriving in synchronized bursts. Default 0.1; negative
	// disables jitter.
	Jitter float64
	// MaxRetries is the retry budget: how many retransmissions are
	// attempted before the request fails with an UnreachableError
	// (matching ErrPeerUnreachable and ErrTimeout). Default 10.
	MaxRetries int
	// DropFn, when non-nil, is consulted for every outgoing packet; a true
	// return discards the packet instead of sending it. It exists for
	// fault-injection tests and is never set in production.
	DropFn func(payload []byte) bool
	// SendDelay, when positive, delays every outgoing packet — network
	// emulation for the latency experiments.
	SendDelay time.Duration

	// rng is a test seam for the jitter source; nil means math/rand.
	rng func() float64
}

const (
	// backoffCapFactor caps the doubling retransmission interval at this
	// multiple of RetransmitInterval.
	backoffCapFactor = 8
	// responseCacheMax bounds the response cache by count. A duplicate trails
	// its original by the retransmission schedule (a second or two at the
	// defaults), so at thousands of requests a second this still holds every
	// response a retransmission can ask for. A duplicate of an evicted
	// request runs the handler again, which handlers must tolerate anyway:
	// the cache does not survive a restart either.
	responseCacheMax = 1 << 14
)

func (c Config) withDefaults() Config {
	if c.RetransmitInterval <= 0 {
		c.RetransmitInterval = 20 * time.Millisecond
	}
	if c.Jitter == 0 {
		c.Jitter = 0.1
	}
	if c.Jitter < 0 {
		c.Jitter = 0
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 10
	}
	if c.rng == nil {
		c.rng = rand.Float64
	}
	return c
}

// Stats exposes endpoint counters, mainly for benchmarks and tests.
type Stats struct {
	RequestsSent      uint64
	Retransmits       uint64
	ResponsesServed   uint64
	DuplicateRequests uint64
	HandlerInvoked    uint64
	PacketsDropped    uint64
}

// Endpoint is one end of the control channel: it issues reliable requests
// to remote endpoints and serves requests arriving from them.
type Endpoint struct {
	conn    *net.UDPConn
	handler Handler
	cfg     Config
	clk     clock

	mu      sync.Mutex
	pending map[uint64]chan []byte
	// cacheOrder lists the cache's keys oldest first, for eviction at the bound.
	cache      map[cacheKey]*cacheEntry
	cacheOrder []cacheKey
	nextID     uint64
	closed     bool

	stats struct {
		requestsSent      atomic.Uint64
		retransmits       atomic.Uint64
		responsesServed   atomic.Uint64
		duplicateRequests atomic.Uint64
		handlerInvoked    atomic.Uint64
		packetsDropped    atomic.Uint64
	}

	done chan struct{}
	wg   sync.WaitGroup
}

type cacheKey struct {
	addr netip.AddrPort
	id   uint64
}

type cacheEntry struct {
	// done is closed once resp is valid.
	done chan struct{}
	resp []byte
}

// Listen opens an endpoint on the given UDP address ("" or ":0" for an
// ephemeral port) and starts serving. The handler may be nil for a
// client-only endpoint.
func Listen(addr string, h Handler, cfg Config) (*Endpoint, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	uaddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("rudp: resolving %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", uaddr)
	if err != nil {
		return nil, fmt.Errorf("rudp: listening on %q: %w", addr, err)
	}
	e := &Endpoint{
		conn:    conn,
		handler: h,
		cfg:     cfg.withDefaults(),
		clk:     realClock{},
		pending: make(map[uint64]chan []byte),
		cache:   make(map[cacheKey]*cacheEntry),
		nextID:  rand.Uint64() | 1,
		done:    make(chan struct{}),
	}
	e.wg.Add(1)
	go e.readLoop()
	return e, nil
}

// Addr returns the endpoint's bound UDP address.
func (e *Endpoint) Addr() *net.UDPAddr { return e.conn.LocalAddr().(*net.UDPAddr) }

// ResolveAddr parses a peer's address for RequestTo, so that a caller with
// many requests for one peer pays the parse once.
func ResolveAddr(raddr string) (netip.AddrPort, error) {
	ua, err := net.ResolveUDPAddr("udp", raddr)
	if err != nil {
		return netip.AddrPort{}, fmt.Errorf("rudp: resolving %q: %w", raddr, err)
	}
	ap := ua.AddrPort()
	// An IPv4 address in its 16-byte form would be refused by an IPv4 socket.
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()), nil
}

// Stats returns a snapshot of the endpoint counters.
func (e *Endpoint) Stats() Stats {
	return Stats{
		RequestsSent:      e.stats.requestsSent.Load(),
		Retransmits:       e.stats.retransmits.Load(),
		ResponsesServed:   e.stats.responsesServed.Load(),
		DuplicateRequests: e.stats.duplicateRequests.Load(),
		HandlerInvoked:    e.stats.handlerInvoked.Load(),
		PacketsDropped:    e.stats.packetsDropped.Load(),
	}
}

// Close shuts the endpoint down and releases the socket.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	close(e.done)
	e.mu.Unlock()
	err := e.conn.Close()
	e.wg.Wait()
	return err
}

// Request sends payload to raddr and waits for the peer's response,
// retransmitting as needed. It fails with ErrTimeout after the configured
// retries, or earlier if ctx is done.
func (e *Endpoint) Request(ctx context.Context, raddr string, payload []byte) ([]byte, error) {
	dst, err := ResolveAddr(raddr)
	if err != nil {
		return nil, err
	}
	return e.RequestTo(ctx, dst, payload)
}

// RequestTo is Request to an address already resolved (ResolveAddr).
func (e *Endpoint) RequestTo(ctx context.Context, dst netip.AddrPort, payload []byte) ([]byte, error) {
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("rudp: payload %d exceeds limit %d", len(payload), MaxPayload)
	}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	id := e.nextID
	e.nextID += 2
	ch := make(chan []byte, 1)
	e.pending[id] = ch
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.pending, id)
		e.mu.Unlock()
	}()

	pkt := encodePacket(kindRequest, id, payload)
	start := e.clk.Now()
	if err := e.send(dst, pkt); err != nil {
		return nil, err
	}
	e.stats.requestsSent.Add(1)

	interval := e.cfg.RetransmitInterval
	backoffCap := backoffCapFactor * interval
	timer := e.clk.NewTimer(e.jittered(interval))
	defer timer.Stop()
	for attempt := 0; ; {
		select {
		case resp := <-ch:
			return resp, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-e.done:
			return nil, ErrClosed
		case <-timer.C():
			attempt++
			if attempt > e.cfg.MaxRetries {
				return nil, &UnreachableError{Peer: dst.String(), Retries: e.cfg.MaxRetries, Elapsed: e.clk.Now().Sub(start)}
			}
			if err := e.send(dst, pkt); err != nil {
				return nil, err
			}
			e.stats.retransmits.Add(1)
			interval = min(2*interval, backoffCap)
			timer.Reset(e.jittered(interval))
		}
	}
}

// jittered perturbs d by ±Jitter/2 of itself.
func (e *Endpoint) jittered(d time.Duration) time.Duration {
	if e.cfg.Jitter <= 0 {
		return d
	}
	return time.Duration(float64(d) * (1 + e.cfg.Jitter*(e.cfg.rng()-0.5)))
}

func (e *Endpoint) send(dst netip.AddrPort, pkt []byte) error {
	if e.cfg.DropFn != nil && e.cfg.DropFn(pkt) {
		e.stats.packetsDropped.Add(1)
		return nil
	}
	if e.cfg.SendDelay > 0 {
		// Emulated one-way latency: deliver asynchronously after the delay.
		cp := make([]byte, len(pkt))
		copy(cp, pkt)
		time.AfterFunc(e.cfg.SendDelay, func() {
			e.conn.WriteToUDPAddrPort(cp, dst)
		})
		return nil
	}
	_, err := e.conn.WriteToUDPAddrPort(pkt, dst)
	if err != nil {
		e.mu.Lock()
		closed := e.closed
		e.mu.Unlock()
		if closed {
			return ErrClosed
		}
	}
	return err
}

func encodePacket(kind byte, id uint64, payload []byte) []byte {
	pkt := make([]byte, headerSize+len(payload))
	binary.BigEndian.PutUint16(pkt[0:2], packetMagic)
	pkt[2] = packetVersion
	pkt[3] = kind
	binary.BigEndian.PutUint64(pkt[4:12], id)
	copy(pkt[headerSize:], payload)
	return pkt
}

func (e *Endpoint) readLoop() {
	defer e.wg.Done()
	buf := make([]byte, MaxPayload+headerSize)
	for {
		n, from, err := e.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			select {
			case <-e.done:
				return
			default:
			}
			// Transient errors (e.g. ICMP port unreachable surfacing as a
			// read error on some platforms) must not kill the loop.
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				continue
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		if n < headerSize {
			continue
		}
		if binary.BigEndian.Uint16(buf[0:2]) != packetMagic || buf[2] != packetVersion {
			continue
		}
		kind := buf[3]
		id := binary.BigEndian.Uint64(buf[4:12])
		payload := make([]byte, n-headerSize)
		copy(payload, buf[headerSize:n])
		switch kind {
		case kindRequest:
			e.handleRequest(from, id, payload)
		case kindResponse:
			e.handleResponse(id, payload)
		}
	}
}

// handleRequest serves a request, invoking the handler exactly once per
// (peer, id) and replaying the cached response for duplicates.
func (e *Endpoint) handleRequest(from netip.AddrPort, id uint64, payload []byte) {
	key := cacheKey{addr: from, id: id}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	if ent, ok := e.cache[key]; ok {
		e.mu.Unlock()
		e.stats.duplicateRequests.Add(1)
		// Re-send the response once it is (or becomes) ready; don't block
		// the read loop waiting on a slow handler.
		go func() {
			select {
			case <-ent.done:
				e.send(from, encodePacket(kindResponse, id, ent.resp))
				e.stats.responsesServed.Add(1)
			case <-e.done:
			}
		}()
		return
	}
	ent := &cacheEntry{done: make(chan struct{})}
	if len(e.cache) >= responseCacheMax {
		e.evictLocked()
	}
	e.cache[key] = ent
	e.cacheOrder = append(e.cacheOrder, key)
	e.mu.Unlock()

	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		var resp []byte
		if e.handler != nil {
			e.stats.handlerInvoked.Add(1)
			resp = e.handler(net.UDPAddrFromAddrPort(from), payload)
		}
		ent.resp = resp
		close(ent.done)
		e.send(from, encodePacket(kindResponse, id, resp))
		e.stats.responsesServed.Add(1)
	}()
}

// evictLocked makes room in a full cache: the oldest eighth of the entries
// go (so that the order list is shifted once per two thousand requests),
// except any whose handler is still running: its duplicates wait on it.
// Caller holds mu.
func (e *Endpoint) evictLocked() {
	n := len(e.cacheOrder) / 8
	kept := e.cacheOrder[:0]
	for _, k := range e.cacheOrder[:n] {
		select {
		case <-e.cache[k].done:
			delete(e.cache, k)
		default:
			kept = append(kept, k)
		}
	}
	e.cacheOrder = append(kept, e.cacheOrder[n:]...)
}

func (e *Endpoint) handleResponse(id uint64, payload []byte) {
	e.mu.Lock()
	ch, ok := e.pending[id]
	if ok {
		delete(e.pending, id) // first response wins; duplicates ignored
	}
	e.mu.Unlock()
	if ok {
		ch <- payload
	}
}
