package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"naplet/internal/core"
	"naplet/internal/metrics"
	"naplet/internal/naming"
	"naplet/internal/obs"
	"naplet/internal/security"
	"naplet/internal/wire"
)

// The deployment every workload runs on: four controllers over loopback
// sharing one location service, the stationary agent "anchor" listening on
// h2, and the agent "mover" on h1 holding the workload's connections to it.
// The mover later rotates over h1, h3 and h4. This is the arrangement
// internal/experiments builds for the paper's tables, rebuilt here from the
// public constructors because that package keeps it unexported.
const (
	anchorAgent = "anchor"
	moverAgent  = "mover"
	anchorHost  = "h2"
)

var (
	hostNames  = []string{"h1", "h2", "h3", "h4"}
	moverHosts = []string{"h1", "h3", "h4"}
)

type host struct {
	name  string
	ctrl  *core.Controller
	guard *security.Guard
}

func (h *host) cred(agentID string) [security.CredentialSize]byte {
	return h.guard.IssueCredential(agentID)
}

func (h *host) loc() naming.Location {
	return naming.Location{Host: h.name, ControlAddr: h.ctrl.ControlAddr(), DataAddr: h.ctrl.DataAddr()}
}

// link is one established connection between mover and anchor with its
// flows and the reassembly state of each receiving end. The stream and echo
// slices use up and down, at the workload's message size. The control cycle
// uses burst and ack, whose messages are capped at maxCycleMsg; slices run
// one after another and each ends on a message boundary, so the sizes never
// mix on the wire.
type link struct {
	id       wire.ConnID
	m, a     *core.Socket // mover's end, anchor's end
	up, down *flow        // mover→anchor, anchor→mover
	atA, atM *receiver    // anchor receives up, mover receives down

	burst, ack   *flow     // anchor→mover left in flight, mover→anchor after landing
	burstM, ackA *receiver // mover receives burst, anchor receives ack
}

// maxCycleMsg caps the messages a control cycle leaves in flight across a
// migration. At the seed commit a burst of 64 KiB messages on an otherwise
// silent connection is, about once in a thousand cycles, never delivered
// after the move: the reader blocks for ever with every goroutine of the
// program idle and nothing logged (README.md, "What the benchmark found").
// A benchmark needs workloads on which no op fails, so until that is fixed
// the bulk workload migrates with 1 KiB messages in flight like the others.
const maxCycleMsg = 1 << 10

// probes are the instruments only the traced run installs into the
// deployment: a metrics registry shared by the four controllers (so counters
// sum over hosts), the phase breakdowns, and the counting data conn.
type probes struct {
	reg                   *obs.Registry
	frames, flushes       *obs.Counter // core's data.frames and data.flushes
	open, suspend, resume *metrics.Breakdown
	net                   *netCounters
}

func newProbes() *probes {
	reg := obs.NewRegistry()
	return &probes{
		reg:     reg,
		frames:  reg.Counter("data.frames"),
		flushes: reg.Counter("data.flushes"),
		open:    metrics.NewBreakdown(),
		suspend: metrics.NewBreakdown(),
		resume:  metrics.NewBreakdown(),
		net:     &netCounters{},
	}
}

// warnings keeps the last warnings and errors the controllers logged, to
// print beside a failed op.
type warnings struct {
	mu    sync.Mutex
	lines []string
}

func (w *warnings) logf(format string, args ...any) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.lines) == 64 {
		w.lines = w.lines[1:]
	}
	w.lines = append(w.lines, time.Now().Format("15:04:05.000 ")+fmt.Sprintf(format, args...))
}

func (w *warnings) dump(out io.Writer) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, ln := range w.lines {
		fmt.Fprintf(out, "  log: %s\n", ln)
	}
}

type deployment struct {
	w       workload
	warn    warnings
	svc     *naming.Service
	hosts   map[string]*host
	links   []*link
	moverAt string
	epoch   uint64

	// third carries the round trip of the connection each control cycle
	// opens and closes; the anchor's end is served by acceptLoop.
	thirdUp, thirdDown *flow
	atThird            *receiver
	served             chan error
	stopAccept         context.CancelFunc
	acceptDone         chan struct{}
}

// setUp builds the deployment: controllers up, naming populated, the
// workload's connections established (which dials the h1-h2 transport and
// runs its DH exchange). Everything in it counts towards setup_s.
func setUp(w workload, rng *rand.Rand, p *probes) (*deployment, error) {
	d := &deployment{
		w:       w,
		svc:     naming.NewService(),
		hosts:   make(map[string]*host),
		moverAt: "h1",
		epoch:   1,
		served:  make(chan error, 1),
	}
	for _, name := range hostNames {
		guard, err := security.NewGuard(security.NewStore(security.AllowAgentAll()...))
		if err != nil {
			d.close()
			return nil, err
		}
		cfg := core.Config{
			HostName:                   name,
			Guard:                      guard,
			Locator:                    d.svc,
			DisableTransportEncryption: w.cleartext,
			OpTimeout:                  5 * time.Second,
			ParkTimeout:                30 * time.Second,
			DrainTimeout:               5 * time.Second,
			Logger:                     obs.NewLogger(d.warn.logf, obs.LevelWarn),
		}
		if p != nil {
			cfg.Metrics = p.reg
			cfg.OpenBreakdown = p.open
			cfg.SuspendBreakdown = p.suspend
			cfg.ResumeBreakdown = p.resume
			cfg.WrapData = func(c net.Conn) net.Conn { return &countingConn{Conn: c, n: p.net} }
		}
		ctrl, err := core.NewController(cfg)
		if err != nil {
			d.close()
			return nil, err
		}
		d.hosts[name] = &host{name: name, ctrl: ctrl, guard: guard}
	}
	if err := d.connect(rng); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *deployment) connect(rng *rand.Rand) error {
	hm, ha := d.hosts[d.moverAt], d.hosts[anchorHost]
	if err := d.svc.Register(moverAgent, hm.loc()); err != nil {
		return err
	}
	if err := d.svc.Register(anchorAgent, ha.loc()); err != nil {
		return err
	}
	ss, err := ha.ctrl.ListenAs(anchorAgent, ha.cred(anchorAgent))
	if err != nil {
		return err
	}
	for i := 0; i < d.w.conns; i++ {
		m, err := hm.ctrl.OpenAs(moverAgent, hm.cred(moverAgent), anchorAgent)
		if err != nil {
			return fmt.Errorf("opening connection %d: %w", i, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		a, err := ss.Accept(ctx)
		cancel()
		if err != nil {
			return fmt.Errorf("accepting connection %d: %w", i, err)
		}
		l := &link{id: m.ID(), m: m, a: a, up: newFlow(rng, d.w.size), down: newFlow(rng, d.w.size)}
		l.atA, l.atM = newReceiver(l.up), newReceiver(l.down)
		cycleSize := min(d.w.size, maxCycleMsg)
		l.burst, l.ack = newFlow(rng, cycleSize), newFlow(rng, cycleSize)
		l.burstM, l.ackA = newReceiver(l.burst), newReceiver(l.ack)
		d.links = append(d.links, l)
	}
	d.thirdUp, d.thirdDown = newFlow(rng, d.w.size), newFlow(rng, d.w.size)
	d.atThird = newReceiver(d.thirdDown)
	ctx, cancel := context.WithCancel(context.Background())
	d.stopAccept = cancel
	d.acceptDone = make(chan struct{})
	go d.acceptLoop(ctx, ss)
	return nil
}

// acceptLoop is the anchor's side of the connection each control cycle
// opens: accept, read one request, reply, and close once the mover has.
// It reports each served connection on d.served so the cycle stays serial.
func (d *deployment) acceptLoop(ctx context.Context, ss *core.ServerSocket) {
	defer close(d.acceptDone)
	atA := newReceiver(d.thirdUp)
	for {
		s, err := ss.Accept(ctx)
		if err != nil {
			return
		}
		_, _, err = atA.recv(s.Read, 1)
		if err == nil {
			_, err = s.Write(d.thirdDown.next(0))
		}
		if err == nil {
			// The mover closes first; its CLS ends this read.
			var one [1]byte
			if n, _ := s.Read(one[:]); n != 0 {
				err = fmt.Errorf("unexpected data after the reply")
			}
		}
		s.Close()
		select {
		case d.served <- err:
		case <-ctx.Done():
			return
		}
	}
}

// close tears the deployment down. Closing the controllers first fails any
// read the accept loop is blocked in, so the wait for it cannot hang.
func (d *deployment) close() {
	if d.stopAccept != nil {
		d.stopAccept()
	}
	for _, h := range d.hosts {
		h.ctrl.Close()
	}
	if d.acceptDone != nil {
		<-d.acceptDone
	}
}

// nextHost picks the mover's destination: one of the two hosts it is not on.
func (d *deployment) nextHost(rng *rand.Rand) string {
	var others []string
	for _, h := range moverHosts {
		if h != d.moverAt {
			others = append(others, h)
		}
	}
	return others[rng.Intn(len(others))]
}
