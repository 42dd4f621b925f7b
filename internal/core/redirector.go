package core

import (
	"errors"
	"net"
	"sync"
	"time"

	"naplet/internal/transport"
	"naplet/internal/wire"
)

// connKey identifies a connection endpoint on a host: both endpoints of a
// connection can live on the same host, so the connection id alone is not
// unique.
type connKey struct {
	id    wire.ConnID
	agent string
}

// rvWaiter is an endpoint armed for its socket: the claim callback plus
// the timer that expires the wait.
type rvWaiter struct {
	onSock func(*transport.Stream)
	timer  *time.Timer
}

// rendezvous pairs arriving data streams with the NapletSocket endpoints
// waiting for them. An endpoint arms a callback before it sends the ACK
// that licenses the peer to open the stream, so a stream always finds its
// waiter unless the arm has expired or was disarmed — and then it is
// refused. A waiting endpoint costs one map entry and one runtime timer —
// not a parked goroutine — so 10k in-flight opens or resumes add no
// goroutines.
type rendezvous struct {
	mu      sync.Mutex
	waiters map[connKey]*rvWaiter
}

func newRendezvous() *rendezvous {
	return &rendezvous{waiters: make(map[connKey]*rvWaiter)}
}

// armFunc registers onSock to receive id's data socket. If no deliver
// lands within timeout, onTimeout runs instead and the arm is forgotten. A
// later disarm cancels a still-pending arm without either callback.
func (r *rendezvous) armFunc(id connKey, timeout time.Duration, onSock func(*transport.Stream), onTimeout func()) {
	r.mu.Lock()
	w := &rvWaiter{onSock: onSock}
	w.timer = time.AfterFunc(timeout, func() {
		r.mu.Lock()
		if r.waiters[id] != w {
			r.mu.Unlock()
			return
		}
		delete(r.waiters, id)
		r.mu.Unlock()
		if onTimeout != nil {
			onTimeout()
		}
	})
	r.waiters[id] = w
	r.mu.Unlock()
}

// deliver hands a socket to the endpoint armed for id and reports whether
// one was. The claim callback runs on this goroutine — the deliverer
// (transport serveOpen) is a per-stream goroutine that may block.
func (r *rendezvous) deliver(id connKey, sock *transport.Stream) bool {
	r.mu.Lock()
	w, ok := r.waiters[id]
	delete(r.waiters, id)
	r.mu.Unlock()
	if !ok {
		return false
	}
	w.timer.Stop()
	w.onSock(sock)
	return true
}

// disarm cancels a pending arm for id (endpoint no longer waiting).
func (r *rendezvous) disarm(id connKey) {
	r.mu.Lock()
	w, ok := r.waiters[id]
	delete(r.waiters, id)
	r.mu.Unlock()
	if ok {
		w.timer.Stop()
	}
}

// redirector is the host's one listener (Section 3.4 of the paper): every
// kernel connection arriving here opens a shared transport, and every
// stream from another host — a data socket for a new connection or a
// resume, or a migrating agent's bundle — rides one, its open carrying a
// handoff header that says where it goes. One redirector is shared by all
// connections of the host.
type redirector struct {
	ctrl *Controller
	ln   net.Listener
	wg   sync.WaitGroup
	done chan struct{}
	// handshakes holds a token per accepted connection in its handshake.
	handshakes chan struct{}
}

// maxHandshakes caps the accepted connections in their transport handshake
// at once: each holds a goroutine and a socket for up to HandshakeTimeout.
const maxHandshakes = 128

func newRedirector(ctrl *Controller, addr string) (*redirector, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &redirector{ctrl: ctrl, ln: ln, done: make(chan struct{}), handshakes: make(chan struct{}, maxHandshakes)}, nil
}

// serve starts accepting. It is separate from newRedirector because the
// transport manager every accepted connection is handed to is built from
// the bound address.
func (r *redirector) serve() {
	r.wg.Add(1)
	go r.acceptLoop()
}

func (r *redirector) addr() string { return r.ln.Addr().String() }

func (r *redirector) close() error {
	close(r.done)
	err := r.ln.Close()
	r.wg.Wait()
	return err
}

// Accept-error backoff bounds, net/http-Server style: transient errors
// (EMFILE, ECONNABORTED) back off exponentially instead of hot-looping,
// and any successful accept resets the delay.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = 1 * time.Second
)

func (r *redirector) acceptLoop() {
	defer r.wg.Done()
	var backoff time.Duration
	for {
		sock, err := r.ln.Accept()
		if err != nil {
			select {
			case <-r.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			if backoff == 0 {
				backoff = acceptBackoffMin
			} else if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			r.ctrl.logf("redirector %s: accept error: %v; retrying in %v",
				r.ctrl.cfg.HostName, err, backoff)
			timer := time.NewTimer(backoff)
			select {
			case <-timer.C:
			case <-r.done:
				timer.Stop()
				return
			}
			continue
		}
		backoff = 0
		select {
		case r.handshakes <- struct{}{}:
		default:
			r.ctrl.cfg.Metrics.Counter("transport.handshakes_refused").Inc()
			sock.Close()
			continue
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.handle(sock, false)
			<-r.handshakes
		}()
	}
}

// handle passes one arriving kernel connection (accepted here, or a call-in
// leg matched by the relay, which carries exactly the same bytes) to the
// transport manager, which validates the hello — magic first, so anything
// else is closed on its first bytes — and owns the connection from then on.
func (r *redirector) handle(sock net.Conn, relayed bool) {
	var err error
	if relayed {
		err = r.ctrl.tm.HandleRelayedConn(sock)
	} else {
		err = r.ctrl.tm.HandleConn(sock)
	}
	if err != nil {
		r.ctrl.logf("redirector %s: transport handshake: %v", r.ctrl.cfg.HostName, err)
	}
}
