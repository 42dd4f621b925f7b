package netem

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Proxy is a TCP fault-injection proxy: it accepts connections on its own
// address and pipes each to a fixed target, with every byte crossing the
// shared Faults plan. Pointing a host's advertised data address at a Proxy
// puts the whole shared transport — including the fresh ones recovery
// dials — under the fault schedule, without the endpoints knowing.
type Proxy struct {
	f      *Faults
	ln     net.Listener
	target string
	resets atomic.Uint64

	mu     sync.Mutex
	flows  map[*flow]struct{}
	closed bool
	wg     sync.WaitGroup
}

// flow is one proxied connection pair.
type flow struct {
	client net.Conn
	server net.Conn
}

// abort kills both legs abruptly. SetLinger(0) makes the close a genuine
// TCP RST rather than an orderly FIN, which is the failure mode a crashed
// or NATed-out peer actually produces.
func (fl *flow) abort() {
	for _, c := range []net.Conn{fl.client, fl.server} {
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetLinger(0)
		}
		c.Close()
	}
}

// NewProxy returns a running proxy in front of target, injecting faults
// from plan f (which must not be nil).
func NewProxy(target string, f *Faults) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{f: f, ln: ln, target: target, flows: make(map[*flow]struct{})}
	p.wg.Add(1)
	go p.serve()
	return p, nil
}

// Addr returns the proxy's listening address; dial this instead of the
// target.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// FlowCount returns the number of live proxied connections.
func (p *Proxy) FlowCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.flows)
}

// Resets returns how many connections ResetAll has aborted in total.
func (p *Proxy) Resets() uint64 { return p.resets.Load() }

// ResetAll aborts every live proxied connection with a TCP RST, returning
// how many it killed. New connections are still accepted — exactly the
// blip-then-recover regime connection recovery must survive.
func (p *Proxy) ResetAll() int {
	p.mu.Lock()
	flows := make([]*flow, 0, len(p.flows))
	for fl := range p.flows {
		flows = append(flows, fl)
	}
	p.mu.Unlock()
	for _, fl := range flows {
		fl.abort()
	}
	p.resets.Add(uint64(len(flows)))
	return len(flows)
}

// Close stops accepting, aborts every flow, and waits for the pumps.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	err := p.ln.Close()
	p.ResetAll()
	p.wg.Wait()
	return err
}

func (p *Proxy) serve() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go p.handle(client)
	}
}

func (p *Proxy) handle(client net.Conn) {
	defer p.wg.Done()
	server, err := net.Dial("tcp", p.target)
	if err != nil {
		client.Close()
		return
	}
	fl := &flow{client: client, server: server}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		fl.abort()
		return
	}
	p.flows[fl] = struct{}{}
	p.mu.Unlock()

	// Each direction writes through its own ordered delay queue sampling
	// the plan's latency/jitter, so a WAN profile's propagation delay
	// applies mid-path without head-of-line blocking the reader. The raw
	// conns stay in the flow for abort's RST semantics.
	toServer := DelayFunc(server, func() time.Duration { return p.f.SampleDelay(Up) })
	toClient := DelayFunc(client, func() time.Duration { return p.f.SampleDelay(Down) })

	var pumps sync.WaitGroup
	pumps.Add(2)
	go p.pump(&pumps, fl, toServer, client, Up)
	go p.pump(&pumps, fl, toClient, server, Down)
	pumps.Wait()

	// Both pumps are done (flushed or aborted); closing the delay wrappers
	// drains their queues and stops their goroutines.
	toServer.Close()
	toClient.Close()

	p.mu.Lock()
	delete(p.flows, fl)
	p.mu.Unlock()
}

// pump copies one direction of a flow through the fault plan. A stalled
// direction holds bytes (delaying, never dropping); an error on either
// side aborts the whole flow, mirroring how a mid-path RST kills both
// directions at once.
func (p *Proxy) pump(wg *sync.WaitGroup, fl *flow, dst net.Conn, src net.Conn, dir Direction) {
	defer wg.Done()
	buf := make([]byte, 32<<10)
	for {
		n, rerr := src.Read(buf)
		if n > 0 {
			p.f.waitClear(dir)
			p.f.pace(dir, n)
			if _, werr := dst.Write(buf[:n]); werr != nil {
				fl.abort()
				return
			}
		}
		if rerr != nil {
			if rerr == io.EOF {
				// Propagate the half-close; the other pump keeps running.
				if cw, ok := dst.(closeWriter); ok {
					cw.CloseWrite()
					return
				}
			}
			fl.abort()
			return
		}
	}
}
