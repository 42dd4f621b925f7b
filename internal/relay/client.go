package relay

import (
	"net"
	"strings"
	"sync"
	"time"
)

// Client maintains a callee's registration with a relay: a persistent
// outbound leg the relay uses to request call-ins. Each DIAL request is
// answered with a fresh outbound leg that, once matched, is handed to the
// Handle callback exactly like an inbound connection from a listener —
// the transport layer cannot tell the difference, which is the point.
type Client struct {
	cfg ClientConfig

	done chan struct{}
	wg   sync.WaitGroup

	mu         sync.Mutex
	registered bool
}

// ClientConfig parameterises a Client.
type ClientConfig struct {
	// RelayAddr is the relay server to register with.
	RelayAddr string
	// Advertise is the address peers name when asking the relay for this
	// host — the same advertised redirector address transport hellos carry.
	Advertise string
	// Dial opens relay legs; nil means net.DialTimeout.
	Dial DialFn
	// Handle receives each matched call-in leg; it must not block forever
	// (the transport handshake it runs is deadline-bounded). Required.
	Handle func(net.Conn)
	// Logf logs relay-client events; nil discards.
	Logf func(format string, args ...any)
	// RedialBase is the first re-registration backoff after the
	// registration leg dies; it doubles up to redialCap. 0 means 250ms.
	RedialBase time.Duration
}

const (
	// legTimeout bounds each leg's dial + rendezvous.
	legTimeout = 10 * time.Second
	// redialCap caps the re-registration backoff.
	redialCap = 5 * time.Second
)

// NewClient starts a client that keeps (re-)registering with the relay
// until Close.
func NewClient(cfg ClientConfig) *Client {
	if cfg.Dial == nil {
		cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.RedialBase <= 0 {
		cfg.RedialBase = 250 * time.Millisecond
	}
	c := &Client{cfg: cfg, done: make(chan struct{})}
	c.wg.Add(1)
	go c.run()
	return c
}

// Registered reports whether the registration leg is currently live.
func (c *Client) Registered() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.registered
}

// Close stops the client and severs its registration leg.
func (c *Client) Close() {
	c.mu.Lock()
	select {
	case <-c.done:
		c.mu.Unlock()
		return
	default:
	}
	close(c.done)
	c.mu.Unlock()
	c.wg.Wait()
}

// run keeps one registration leg alive, with capped backoff between
// attempts.
func (c *Client) run() {
	defer c.wg.Done()
	backoff := c.cfg.RedialBase
	for {
		select {
		case <-c.done:
			return
		default:
		}
		if err := c.register(); err != nil {
			c.cfg.Logf("relay client: registration with %s failed: %v", c.cfg.RelayAddr, err)
		} else {
			// The leg was live; start the backoff over.
			backoff = c.cfg.RedialBase
		}
		timer := time.NewTimer(backoff)
		select {
		case <-timer.C:
		case <-c.done:
			timer.Stop()
			return
		}
		if backoff *= 2; backoff > redialCap {
			backoff = redialCap
		}
	}
}

// register dials the relay, registers, and serves DIAL requests until the
// leg dies or the client closes. A nil error means the leg was accepted
// and served for a while; an error means the attempt failed outright.
func (c *Client) register() error {
	conn, err := c.cfg.Dial(c.cfg.RelayAddr, legTimeout)
	if err != nil {
		return err
	}
	// Sever the leg when the client closes, so the blocking readLine ends.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-c.done:
			conn.Close()
		case <-stop:
		}
	}()
	conn.SetDeadline(time.Now().Add(legTimeout))
	if err := writeLine(conn, "NR REG "+c.cfg.Advertise); err != nil {
		conn.Close()
		return err
	}
	line, err := readLine(conn)
	if err != nil || line != "OK" {
		conn.Close()
		if err == nil {
			err = ErrRelayRefused
		}
		return err
	}
	conn.SetDeadline(time.Time{})
	c.setRegistered(true)
	defer c.setRegistered(false)
	c.cfg.Logf("relay client: %s registered with %s", c.cfg.Advertise, c.cfg.RelayAddr)
	for {
		line, err := readLine(conn)
		if err != nil {
			conn.Close()
			return nil
		}
		if token, ok := strings.CutPrefix(line, "DIAL "); ok {
			c.wg.Add(1)
			go c.callIn(token)
		}
	}
}

func (c *Client) setRegistered(v bool) {
	c.mu.Lock()
	c.registered = v
	c.mu.Unlock()
}

// callIn answers one DIAL request: a fresh leg, the ACPT rendezvous, and
// the matched connection handed over as if it had been accepted locally.
func (c *Client) callIn(token string) {
	defer c.wg.Done()
	conn, err := c.cfg.Dial(c.cfg.RelayAddr, legTimeout)
	if err != nil {
		c.cfg.Logf("relay client: call-in dial failed: %v", err)
		return
	}
	conn.SetDeadline(time.Now().Add(legTimeout))
	if err := writeLine(conn, "NR ACPT "+token); err != nil {
		conn.Close()
		return
	}
	line, err := readLine(conn)
	if err != nil || line != "OK" {
		c.cfg.Logf("relay client: call-in rendezvous failed: %v (%q)", err, line)
		conn.Close()
		return
	}
	conn.SetDeadline(time.Time{})
	c.cfg.Handle(conn)
}
