package core

import (
	"runtime"
	"sync"
)

// dpPool is the shared data-plane worker pool: a fixed set of goroutines
// that run the per-connection pump (decode inbound frames off the
// transport stream) and flush (push coalesced outbound frames) steps on
// demand. Connections have no goroutines of their own — a readable/writable
// event enqueues the socket here, so the process runs O(workers) data-plane
// goroutines, not O(connections). Work items must not block: the pump only decodes frames
// the stream has fully buffered, and the flush hands a credit-stalled
// batch off to a transient goroutine rather than waiting on the worker.
type dpPool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*Socket
	closed bool
	wg     sync.WaitGroup
}

// dpWorkers sizes the pool: enough to keep every core busy during a
// migration wave, capped so an over-provisioned GOMAXPROCS does not turn
// into idle goroutines.
func dpWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	if n < 2 {
		n = 2
	}
	return n
}

func newDPPool() *dpPool {
	p := &dpPool{}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < dpWorkers(); i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// enqueue queues the socket for one pump/flush pass. The dpQueued flag
// dedups: a socket already waiting in the queue absorbs new events into
// its pending pass. Safe to call from any goroutine, including the
// transport read loop and under a socket's mu.
func (p *dpPool) enqueue(s *Socket) {
	if !s.dpQueued.CompareAndSwap(false, true) {
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		s.dpQueued.Store(false)
		return
	}
	p.queue = append(p.queue, s)
	p.cond.Signal()
	p.mu.Unlock()
}

// close stops the workers after the queued backlog drains.
func (p *dpPool) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *dpPool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			p.mu.Unlock()
			return
		}
		s := p.queue[0]
		p.queue[0] = nil
		p.queue = p.queue[1:]
		p.mu.Unlock()

		// Clear dpQueued BEFORE consuming the request flags: an event
		// arriving after a flag is consumed re-enqueues the socket, so no
		// wakeup is ever lost; an event arriving before just rides along.
		s.dpQueued.Store(false)
		if s.pumpReq.Swap(false) {
			s.pumpEvent()
		}
		if s.flushReq.Swap(false) {
			s.flushEvent()
		}
	}
}
