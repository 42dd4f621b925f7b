package core

import (
	"errors"
	"net"
	"sync"
	"time"

	"naplet/internal/fsm"
	"naplet/internal/obs"
	"naplet/internal/transport"
	"naplet/internal/wire"
)

// handoffWait is an endpoint's wait for its data stream, set when it sends
// a CONNECT (whose answer comes with the stream beside it) or grants a RES
// (whose ACK licenses the peer to open the stream), and ended when it
// reaches ESTABLISHED, a later grant replaces it, a RES meeting RES_ACKED
// stands it down, the endpoint closes, or OpTimeout passes. It costs one
// runtime timer, not a parked goroutine.
type handoffWait struct {
	// state is the state the wait is set in, CONNECT_SENT or RES_ACKED.
	// Only a handoff signed above nonce, the granted request's (0 for a
	// CONNECT), is taken: an older one is a replay or a late stream of an
	// earlier grant.
	state   fsm.State
	nonce   uint64
	lastSeq uint64    // how far the peer's buffer had got (RES)
	span    *obs.Span // the redirect span (RES)
	timer   *time.Timer
	taken   bool // one stream per wait
}

var errNoHandoff = errors.New("napletsocket: handoff not completed within the operation timeout")

// awaitHandoffLocked makes w the endpoint's wait, replacing any earlier one.
// Caller holds mu.
func (s *Socket) awaitHandoffLocked(w *handoffWait) {
	s.endHandoffLocked("replaced")
	w.timer = time.AfterFunc(s.ctrl.cfg.opTimeout(), func() { s.giveUpHandoff(w, errNoHandoff) })
	s.handoff = w
}

// endHandoffLocked ends the endpoint's wait, if any, noting why on its span.
// Caller holds mu.
func (s *Socket) endHandoffLocked(why string) {
	if w := s.handoff; w != nil {
		s.handoff = nil
		w.timer.Stop()
		if why != "" {
			w.span.Annotate(why)
		}
		w.span.End()
	}
}

// giveUpHandoff ends w unmet, if it is still the endpoint's wait, and the
// local table says what its expiry does to the endpoint.
func (s *Socket) giveUpHandoff(w *handoffWait, cause error) {
	s.mu.Lock()
	if s.handoff != w {
		s.mu.Unlock()
		return
	}
	s.endHandoffLocked(cause.Error())
	s.local(handoffExpired, cause)
}

// takeHandoff gives st to the endpoint if it awaits the handoff hdr
// announces — in the granted state, for the matching purpose, at a later
// nonce, and no stream taken yet — and reports whether it did; the local
// table says what the installed stream does. The caller is the transport's
// per-stream goroutine, which may block.
func (s *Socket) takeHandoff(hdr *wire.HandoffHeader, st *transport.Stream) bool {
	s.mu.Lock()
	w := s.handoff
	purpose := wire.HandoffConnect
	if w != nil && w.state == fsm.ResAcked {
		purpose = wire.HandoffResume
	}
	ok := w != nil && !w.taken && s.m.State() == w.state && hdr.Purpose == purpose && hdr.Nonce > w.nonce
	if ok {
		w.taken = true
	}
	s.mu.Unlock()
	if !ok {
		return false
	}
	if err := s.installSocket(st, w.lastSeq); err != nil {
		s.olog(obs.LevelWarn, "installing handed-off stream: %v", err)
		s.giveUpHandoff(w, err)
		return true
	}
	s.mu.Lock()
	ev := handoffLanded
	if s.handoff != w {
		ev = handoffLate
	}
	s.local(ev, nil)
	return true
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
			r.ctrl.olog(obs.LevelWarn, "redirector: accept error: %v; retrying in %v", err, backoff)
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
		r.ctrl.olog(obs.LevelWarn, "redirector: transport handshake: %v", err)
	}
}
