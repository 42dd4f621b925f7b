// Package relay implements a TURN-like rendezvous relay for transport
// connections between hosts that cannot dial each other directly (both
// behind address-restricted NATs, or a firewalled path). Both sides make
// *outbound* connections to the relay; the relay matches the two legs and
// then blindly pipes bytes between them.
//
// Trust model: the relay is untrusted infrastructure. It sees only what a
// NAT'd router would see — the transport handshake hellos and, on
// encrypted sessions, AEAD ciphertext records. It cannot read stream
// plaintext, forge frames (the transcript tags and record MACs are keyed
// by the end-to-end DH exchange it is not part of), or splice a
// connection to the wrong peer without the handshake failing on both
// ends. A malicious relay can only do what any middlebox can: drop or
// delay bytes, which the resume machinery already survives.
//
// Wire protocol (one ASCII line per leg before the blind pipe starts):
//
//	callee  → relay:  "NR REG <advertised-addr>\n"   (persistent leg)
//	relay   → callee: "OK\n", then "DIAL <token>\n" per inbound caller
//	callee  → relay:  "NR ACPT <token>\n"            (fresh leg per call)
//	caller  → relay:  "NR CONN <advertised-addr>\n"  (fresh leg per call)
//	relay   → both:   "OK\n" (or "ERR <reason>\n"), then raw bytes
package relay

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"naplet/internal/obs"
)

// DialFn is the dial shape shared with transport.Config.Dial, so a relay
// leg can reuse whatever dialer (and fault injection) the transport uses.
type DialFn func(addr string, timeout time.Duration) (net.Conn, error)

// maxLine bounds one control line; addresses and tokens are short.
const maxLine = 256

// ErrRelayRefused reports the relay's ERR answer to a CONN or ACPT.
var ErrRelayRefused = errors.New("relay: refused")

// readLine reads one \n-terminated control line directly from conn, one
// byte at a time — deliberately unbuffered, so not a single byte beyond
// the line is consumed and the blind pipe that follows starts exactly at
// the first payload byte.
func readLine(conn net.Conn) (string, error) {
	var b [1]byte
	line := make([]byte, 0, 64)
	for len(line) < maxLine {
		if _, err := io.ReadFull(conn, b[:]); err != nil {
			return "", err
		}
		if b[0] == '\n' {
			return string(line), nil
		}
		line = append(line, b[0])
	}
	return "", fmt.Errorf("relay: control line exceeds %d bytes", maxLine)
}

func writeLine(conn net.Conn, line string) error {
	_, err := io.WriteString(conn, line+"\n")
	return err
}

// newToken mints an unguessable rendezvous token.
func newToken() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}

// Server is a running relay listener.
type Server struct {
	ln  net.Listener
	log *obs.Logger
	// matchTimeout bounds how long a CONN leg waits for the callee's ACPT.
	matchTimeout time.Duration
	// done unblocks in-flight rendezvous waits when the server closes.
	done chan struct{}

	mu sync.Mutex
	// regs maps an advertised address to its callee's registration leg.
	regs map[string]net.Conn
	// pending maps a rendezvous token to the channel the waiting CONN leg
	// receives its matched ACPT leg on.
	pending map[string]chan net.Conn
	// active holds every accepted leg — registration, rendezvous, and
	// spliced alike — so Close can sever them all.
	active map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup
}

// trackedConn removes itself from the server's active set when closed, so
// the set only holds live legs.
type trackedConn struct {
	net.Conn
	s *Server
}

func (c *trackedConn) Close() error {
	c.s.mu.Lock()
	delete(c.s.active, c)
	c.s.mu.Unlock()
	return c.Conn.Close()
}

func (c *trackedConn) CloseWrite() error {
	if cw, ok := c.Conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return errors.New("relay: conn does not support CloseWrite")
}

// track wraps an accepted leg into the active set (or closes it outright
// when the server is already shutting down).
func (s *Server) track(conn net.Conn) net.Conn {
	tc := &trackedConn{Conn: conn, s: s}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return nil
	}
	s.active[tc] = struct{}{}
	s.mu.Unlock()
	return tc
}

// New starts a relay server listening on addr ("host:0" picks a port),
// logging registrations and splices to log (nil discards).
func New(addr string, log *obs.Logger) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		ln:           ln,
		log:          log,
		matchTimeout: 10 * time.Second,
		done:         make(chan struct{}),
		regs:         make(map[string]net.Conn),
		pending:      make(map[string]chan net.Conn),
		active:       make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.serve()
	return s, nil
}

// Addr returns the relay's listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Registrations returns how many callees currently hold a registration
// leg (debug surface).
func (s *Server) Registrations() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.regs)
}

// Close stops the relay. Spliced connections in flight are severed.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	legs := make([]net.Conn, 0, len(s.active))
	for c := range s.active {
		legs = append(legs, c)
	}
	s.mu.Unlock()
	close(s.done)
	err := s.ln.Close()
	for _, c := range legs {
		c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) serve() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		if conn = s.track(conn); conn == nil {
			return
		}
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// handle classifies one inbound leg by its first control line.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	conn.SetReadDeadline(time.Now().Add(s.matchTimeout))
	line, err := readLine(conn)
	if err != nil {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	if !strings.HasPrefix(line, "NR ") {
		writeLine(conn, "ERR bad-hello")
		conn.Close()
		return
	}
	verb, arg, _ := strings.Cut(strings.TrimPrefix(line, "NR "), " ")
	switch verb {
	case "REG":
		s.handleReg(conn, arg)
	case "ACPT":
		s.handleAcpt(conn, arg)
	case "CONN":
		s.handleConn(conn, arg)
	default:
		writeLine(conn, "ERR bad-verb")
		conn.Close()
	}
}

// handleReg installs a callee's persistent registration leg. A
// re-registration for the same address replaces the old leg (the callee
// redialed after a blip).
func (s *Server) handleReg(conn net.Conn, addr string) {
	if addr == "" {
		writeLine(conn, "ERR bad-addr")
		conn.Close()
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	old := s.regs[addr]
	s.regs[addr] = conn
	s.mu.Unlock()
	if old != nil {
		old.Close()
	}
	if writeLine(conn, "OK") != nil {
		s.dropReg(addr, conn)
		return
	}
	s.log.Infof("relay: %s registered by %s", addr, conn.RemoteAddr())
	// Block reading the leg: the callee never writes again, so the read
	// returning means the leg died and the registration is gone.
	var buf [64]byte
	for {
		if _, err := conn.Read(buf[:]); err != nil {
			s.dropReg(addr, conn)
			return
		}
	}
}

func (s *Server) dropReg(addr string, conn net.Conn) {
	s.mu.Lock()
	if s.regs[addr] == conn {
		delete(s.regs, addr)
	}
	s.mu.Unlock()
	conn.Close()
}

// handleAcpt matches a callee's fresh leg to the CONN leg waiting on its
// token.
func (s *Server) handleAcpt(conn net.Conn, token string) {
	s.mu.Lock()
	ch := s.pending[token]
	delete(s.pending, token)
	s.mu.Unlock()
	if ch == nil {
		writeLine(conn, "ERR unknown-token")
		conn.Close()
		return
	}
	ch <- conn
}

// handleConn serves a caller: ask the callee (via its registration leg)
// to call in, wait for the matched ACPT leg, then splice.
func (s *Server) handleConn(conn net.Conn, target string) {
	s.mu.Lock()
	reg := s.regs[target]
	s.mu.Unlock()
	if reg == nil {
		writeLine(conn, "ERR no-registration")
		conn.Close()
		return
	}
	token, err := newToken()
	if err != nil {
		writeLine(conn, "ERR internal")
		conn.Close()
		return
	}
	ch := make(chan net.Conn, 1)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.pending[token] = ch
	s.mu.Unlock()
	abort := func(reason string) {
		s.mu.Lock()
		delete(s.pending, token)
		s.mu.Unlock()
		// A racing ACPT may already be in the channel; sever it.
		select {
		case c := <-ch:
			c.Close()
		default:
		}
		writeLine(conn, "ERR "+reason)
		conn.Close()
	}
	if err := writeLine(reg, "DIAL "+token); err != nil {
		abort("callee-gone")
		return
	}
	timer := time.NewTimer(s.matchTimeout)
	defer timer.Stop()
	select {
	case acpt := <-ch:
		if writeLine(acpt, "OK") != nil || writeLine(conn, "OK") != nil {
			acpt.Close()
			conn.Close()
			return
		}
		s.log.Infof("relay: spliced %s -> %s", conn.RemoteAddr(), target)
		s.splice(conn, acpt)
	case <-timer.C:
		abort("match-timeout")
	case <-s.done:
		abort("relay-closed")
	}
}

// splice blindly pipes bytes between the two matched legs until either
// side ends; EOF propagates as a half-close so orderly shutdown survives
// the relay hop.
func (s *Server) splice(a, b net.Conn) {
	var wg sync.WaitGroup
	wg.Add(2)
	pipe := func(dst, src net.Conn) {
		defer wg.Done()
		_, err := io.Copy(dst, src)
		if err == nil {
			if cw, ok := dst.(interface{ CloseWrite() error }); ok {
				cw.CloseWrite()
				return
			}
		}
		a.Close()
		b.Close()
	}
	go pipe(a, b)
	pipe(b, a)
	wg.Wait()
	a.Close()
	b.Close()
}

// Connect runs the caller's half of the rendezvous on an already-dialed
// relay leg: request target, wait for the relay's OK. On success the
// returned error is nil and conn is ready to carry the transport
// handshake; on failure conn is closed.
func Connect(conn net.Conn, target string, timeout time.Duration) error {
	conn.SetDeadline(time.Now().Add(timeout))
	if err := writeLine(conn, "NR CONN "+target); err != nil {
		conn.Close()
		return err
	}
	line, err := readLine(conn)
	if err != nil {
		conn.Close()
		return err
	}
	if line != "OK" {
		conn.Close()
		return fmt.Errorf("%w: %s", ErrRelayRefused, strings.TrimPrefix(line, "ERR "))
	}
	conn.SetDeadline(time.Time{})
	return nil
}

// DialVia dials the relay with dial and rendezvouses with target — the
// one-call form of the caller's side.
func DialVia(dial DialFn, relayAddr, target string, timeout time.Duration) (net.Conn, error) {
	conn, err := dial(relayAddr, timeout)
	if err != nil {
		return nil, err
	}
	if err := Connect(conn, target, timeout); err != nil {
		return nil, err
	}
	return conn, nil
}
