package experiments

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"naplet/internal/core"
)

// The Figure 10 experiments measure *effective throughput*: total traffic
// delivered over the whole period of communication and migration. The
// paper's testbed used service times of seconds and an agent migration
// cost of ~hundreds of milliseconds; this reproduction scales both down
// (milliseconds) so a full sweep runs in seconds — the ratios, and
// therefore the curve shapes, are preserved.

// mobileAgent tracks a migrating agent's current host so the traffic
// goroutines can re-attach to its connection after each hop.
type mobileAgent struct {
	d      *deployment
	id     string
	connID [16]byte

	mu    sync.Mutex
	host  string
	epoch uint64
}

func newMobileAgent(d *deployment, id, host string, connID [16]byte) *mobileAgent {
	return &mobileAgent{d: d, id: id, connID: connID, host: host, epoch: 1}
}

func (m *mobileAgent) currentHost() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.host
}

// hop migrates the agent to the next host of the ring.
func (m *mobileAgent) hop(ring []string) error {
	m.mu.Lock()
	from := m.host
	idx := 0
	for i, h := range ring {
		if h == from {
			idx = i
			break
		}
	}
	to := ring[(idx+1)%len(ring)]
	m.epoch++
	epoch := m.epoch
	m.mu.Unlock()
	if err := m.d.migrate(m.id, from, to, epoch); err != nil {
		return err
	}
	m.mu.Lock()
	m.host = to
	m.mu.Unlock()
	return nil
}

// attach binds to the agent's connection endpoint at its current host.
func (m *mobileAgent) attach(timeout time.Duration) (*core.Socket, error) {
	deadline := time.Now().Add(timeout)
	for {
		s, err := m.d.hosts[m.currentHost()].ctrl.AgentSocket(m.id, m.connID)
		if err == nil {
			return s, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(time.Millisecond)
	}
}

// offeredRateMbps paces the Figure 10 sender. The paper's testbed was
// capped by Fast Ethernet (~92 Mb/s measured); pacing the loopback sender
// to a comparable rate makes migration pauses — not scheduler noise — the
// thing the measurement sees, preserving the published curve shapes.
const offeredRateMbps = 100.0

// pump writes msgSize messages through the agent's connection at the paced
// offered rate until stopped, re-attaching across migrations. Delivered
// bytes are counted at the receiver.
func (m *mobileAgent) pump(msgSize int, stop <-chan struct{}) {
	payload := make([]byte, msgSize)
	sock, err := m.attach(5 * time.Second)
	if err != nil {
		return
	}
	// Batch a few messages per wakeup so the pace holds at millisecond
	// timer granularity. The schedule is deadline-based rather than
	// ticker-based: a constant-rate source sends on schedule even when a
	// loaded scheduler wakes it late, so up to maxCatchup intervals of
	// deficit are sent immediately on wakeup. Longer gaps — a write
	// blocked behind a migrating peer — are NOT backfilled: that offered
	// load is gone, which is exactly the loss effective throughput
	// measures.
	const (
		batch      = 8
		maxCatchup = 4
	)
	interval := time.Duration(float64(msgSize*8*batch) / (offeredRateMbps * 1e6) * float64(time.Second))
	next := time.Now()
	// One reused pacing timer for the whole run; time.After would allocate
	// a timer per wakeup at millisecond rates.
	pace := time.NewTimer(time.Hour)
	pace.Stop()
	defer pace.Stop()
	for {
		if d := time.Until(next); d > 0 {
			pace.Reset(d)
			select {
			case <-stop:
				return
			case <-pace.C:
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		behind := 1 + int(time.Since(next)/interval)
		if behind > maxCatchup {
			behind = maxCatchup
			next = time.Now().Add(-time.Duration(maxCatchup-1) * interval)
		}
		for i := 0; i < behind*batch; i++ {
			if err := sock.WriteMsg(payload); err != nil {
				if errors.Is(err, core.ErrMigrated) {
					if sock, err = m.attach(5 * time.Second); err != nil {
						return
					}
					i--
					continue
				}
				return
			}
		}
		next = next.Add(time.Duration(behind) * interval)
		// A long blocking write (a migration pause) leaves next far in the
		// past; restart the schedule from now instead of bursting.
		if time.Since(next) > maxCatchup*interval {
			next = time.Now().Add(interval)
		}
	}
}

// drain counts received bytes on a (possibly migrating) endpoint.
func drain(attach func() (*core.Socket, error), counter *atomic.Int64) {
	sock, err := attach()
	if err != nil {
		return
	}
	for {
		msg, err := sock.ReadMsg()
		if err != nil {
			if errors.Is(err, core.ErrMigrated) {
				if sock, err = attach(); err != nil {
					return
				}
				continue
			}
			return
		}
		counter.Add(int64(len(msg)))
	}
}

// runEffective measures effective throughput (Mb/s at the receiver) for
// one migration pattern: the sender agent performs `hops` migrations with
// the given per-host service time; when concurrent is set, the receiver
// agent migrates simultaneously along its own ring.
func runEffective(hops int, service, migDelay time.Duration, msgSize int, concurrent bool) (float64, error) {
	d, err := newDeployment([]string{"h1", "h2", "h3", "h4", "h5", "h6"}, nil)
	if err != nil {
		return 0, err
	}
	defer d.close()
	d.migrationDelay = migDelay

	sender, _, err := d.pair("tx", "h2", "rx", "h1")
	if err != nil {
		return 0, err
	}
	tx := newMobileAgent(d, "tx", "h2", sender.ID())
	rx := newMobileAgent(d, "rx", "h1", sender.ID())

	var received atomic.Int64
	stop := make(chan struct{})
	go drain(func() (*core.Socket, error) { return rx.attach(5 * time.Second) }, &received)
	go tx.pump(msgSize, stop)

	txRing := []string{"h2", "h3", "h4"}
	rxRing := []string{"h1", "h5", "h6"}
	start := time.Now()
	for i := 0; i < hops; i++ {
		time.Sleep(service)
		if concurrent {
			var wg sync.WaitGroup
			var txErr, rxErr error
			wg.Add(2)
			go func() { defer wg.Done(); txErr = tx.hop(txRing) }()
			go func() { defer wg.Done(); rxErr = rx.hop(rxRing) }()
			wg.Wait()
			if txErr != nil {
				return 0, txErr
			}
			if rxErr != nil {
				return 0, rxErr
			}
		} else if err := tx.hop(txRing); err != nil {
			return 0, err
		}
	}
	time.Sleep(service)
	elapsed := time.Since(start)
	bytes := received.Load()
	close(stop)
	if elapsed <= 0 {
		return 0, errors.New("fig10: zero elapsed time")
	}
	return float64(bytes) * 8 / 1e6 / elapsed.Seconds(), nil
}

// Fig10aPoint is one service-time setting's effective throughput.
type Fig10aPoint struct {
	Service time.Duration
	Mbps    float64
}

// Fig10aResult reproduces Figure 10(a): effective throughput versus agent
// service time under the single-migration pattern, against the
// no-migration ceiling.
type Fig10aResult struct {
	Points       []Fig10aPoint
	BaselineMbps float64
	MsgSize      int
	Hops         int
	MigDelay     time.Duration
}

// Table renders the Figure 10(a) series.
func (r *Fig10aResult) Table() string {
	rows := make([][]string, 0, len(r.Points)+1)
	for _, p := range r.Points {
		share := 0.0
		if r.BaselineMbps > 0 {
			share = 100 * p.Mbps / r.BaselineMbps
		}
		rows = append(rows, []string{
			fmt.Sprintf("%v", p.Service), f1(p.Mbps), f1(share) + "%",
		})
	}
	rows = append(rows, []string{"no migration", f1(r.BaselineMbps), "100%"})
	return table([]string{"service time", "effective Mb/s", "of ceiling"}, rows)
}

// DefaultFig10aServices is the scaled-down sweep corresponding to the
// paper's 0.05–30 s axis.
func DefaultFig10aServices() []time.Duration {
	return []time.Duration{
		10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
		100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
		time.Second,
	}
}

// RunFig10a sweeps the service time under the single-migration pattern.
func RunFig10a(services []time.Duration, hops, msgSize int, migDelay time.Duration) (*Fig10aResult, error) {
	if len(services) == 0 {
		services = DefaultFig10aServices()
	}
	if hops <= 0 {
		hops = 3
	}
	if msgSize <= 0 {
		msgSize = 2048 // the paper's constant 2 KB messages
	}
	if migDelay <= 0 {
		migDelay = 20 * time.Millisecond // scaled-down T_a-migrate
	}
	res := &Fig10aResult{MsgSize: msgSize, Hops: hops, MigDelay: migDelay}

	// No-migration ceiling over a comparable duration.
	base, err := runEffective(0, 500*time.Millisecond, 0, msgSize, false)
	if err != nil {
		return nil, err
	}
	res.BaselineMbps = base

	for _, svc := range services {
		mbps, err := runEffective(hops, svc, migDelay, msgSize, false)
		if err != nil {
			return nil, fmt.Errorf("fig10a service %v: %w", svc, err)
		}
		res.Points = append(res.Points, Fig10aPoint{Service: svc, Mbps: mbps})
	}
	return res, nil
}

// Fig10bPoint is one hop count's effective throughput for both patterns.
type Fig10bPoint struct {
	Hops           int
	SingleMbps     float64
	ConcurrentMbps float64
}

// Fig10bResult reproduces Figure 10(b): effective throughput versus number
// of migration hops, single versus concurrent migration.
type Fig10bResult struct {
	Points   []Fig10bPoint
	Service  time.Duration
	MsgSize  int
	MigDelay time.Duration
}

// Table renders the Figure 10(b) series.
func (r *Fig10bResult) Table() string {
	rows := make([][]string, len(r.Points))
	for i, p := range r.Points {
		rows[i] = []string{
			fmt.Sprintf("%d", p.Hops), f1(p.SingleMbps), f1(p.ConcurrentMbps),
		}
	}
	return table([]string{"hops", "single (Mb/s)", "concurrent (Mb/s)"}, rows)
}

// RunFig10b sweeps the hop count for both migration patterns at a fixed
// service time (the paper fixed 20 s per host; scaled down here).
func RunFig10b(maxHops int, service time.Duration, msgSize int, migDelay time.Duration) (*Fig10bResult, error) {
	if maxHops <= 0 {
		maxHops = 7
	}
	if service <= 0 {
		service = 150 * time.Millisecond
	}
	if msgSize <= 0 {
		msgSize = 2048
	}
	if migDelay <= 0 {
		migDelay = 20 * time.Millisecond
	}
	res := &Fig10bResult{Service: service, MsgSize: msgSize, MigDelay: migDelay}
	for hops := 1; hops <= maxHops; hops++ {
		single, err := runEffective(hops, service, migDelay, msgSize, false)
		if err != nil {
			return nil, fmt.Errorf("fig10b single %d hops: %w", hops, err)
		}
		conc, err := runEffective(hops, service, migDelay, msgSize, true)
		if err != nil {
			return nil, fmt.Errorf("fig10b concurrent %d hops: %w", hops, err)
		}
		res.Points = append(res.Points, Fig10bPoint{Hops: hops, SingleMbps: single, ConcurrentMbps: conc})
	}
	return res, nil
}
