package experiments

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"naplet/internal/core"
	"naplet/internal/netem"
	"naplet/internal/obs"
)

// The WAN scenario matrix: every named netem profile is run through the
// same chaos scenario — an echo session whose shared transport is
// repeatedly killed mid-conversation, then one live migration, then a
// throughput leg — with keepalive probing tightened well below the
// emulated RTT. Every break fails the connection on both ends, and the
// connection's own resume (RES with the last received sequence, over a
// fresh transport) must recover each failure; the keepalive timer must
// never fire on a path that is merely slow. WANMatrixResult.Check states
// those invariants.

// WANMatrixConfig sizes one matrix run.
type WANMatrixConfig struct {
	// Profiles defaults to the full netem.WANProfiles() matrix.
	Profiles []netem.Profile
	// Breaks is how many times the live transport is severed per profile
	// (default 4). Each break must be recovered.
	Breaks int
	// ThroughputBytes is the volume of the echo throughput leg (default
	// 256 KiB — enough to exceed the credit window, small enough that the
	// lossy-cell bandwidth cap keeps the leg under a second).
	ThroughputBytes int64
}

// wanMatrixSeed fixes the deterministic jitter/loss schedules.
const wanMatrixSeed = 1

func (c *WANMatrixConfig) setDefaults() {
	if len(c.Profiles) == 0 {
		c.Profiles = netem.WANProfiles()
	}
	if c.Breaks <= 0 {
		c.Breaks = 4
	}
	if c.ThroughputBytes <= 0 {
		c.ThroughputBytes = 256 << 10
	}
}

// WANCell is one profile's measurements.
type WANCell struct {
	Profile string
	// RTTMs is the profile's base round trip (what the scenario emulated,
	// not a measurement).
	RTTMs float64
	// Breaks is how many times the transport was severed. Failures and
	// Recoveries are the connection's conn.failures and
	// fault.conn_recoveries, both ends summed: a break fails the connection
	// on each end, and each failure must be closed by a recovery.
	Breaks     int
	Failures   int
	Recoveries int
	// Recovery latency percentiles (fault.recovery_ms, failure to
	// re-established) at the anchor, which holds one end of the connection
	// through every break.
	RecoveryP50Ms float64
	RecoveryP99Ms float64
	// KeepaliveTimeouts counts half-open declarations; the path was slow,
	// never dead, so any value but 0 is a false positive.
	KeepaliveTimeouts int
	// ThroughputMbps is the echo throughput leg: payload megabits per
	// second reflected back through both emulated directions.
	ThroughputMbps float64
}

// WANMatrixResult is the full matrix.
type WANMatrixResult struct {
	Cells []WANCell
}

// recoverySlackMs is what a recovery may take beyond two round trips: local
// work, scheduling, and the profile's jitter and loss.
const recoverySlackMs = 25

// Check reports every violated robustness invariant: each profile's breaks
// must all have reached the connection, every failure must have been
// recovered, within 2 × the profile's RTT + recoverySlackMs at the p99, and
// — the path being slow, never dead between breaks — no keepalive timeout
// may have fired.
func (r *WANMatrixResult) Check() error {
	var errs []error
	for _, c := range r.Cells {
		if c.Failures < c.Breaks || c.Recoveries != c.Failures {
			errs = append(errs, fmt.Errorf("%s: %d breaks, %d failures, %d recoveries: not every break recovered",
				c.Profile, c.Breaks, c.Failures, c.Recoveries))
		}
		if bound := 2*c.RTTMs + recoverySlackMs; c.RecoveryP99Ms > bound {
			errs = append(errs, fmt.Errorf("%s: recovery p99 %.1f ms over its bound of %.1f ms (2 x RTT + %d ms)",
				c.Profile, c.RecoveryP99Ms, bound, recoverySlackMs))
		}
		if c.KeepaliveTimeouts != 0 {
			errs = append(errs, fmt.Errorf("%s: %d false keepalive timeouts", c.Profile, c.KeepaliveTimeouts))
		}
	}
	return errors.Join(errs...)
}

// Table renders the matrix.
func (r *WANMatrixResult) Table() string {
	rows := make([][]string, 0, len(r.Cells))
	for _, c := range r.Cells {
		rows = append(rows, []string{
			c.Profile, f1(c.RTTMs),
			fmt.Sprintf("%d", c.Breaks),
			fmt.Sprintf("%d/%d", c.Recoveries, c.Failures),
			f1(c.RecoveryP50Ms), f1(c.RecoveryP99Ms),
			fmt.Sprintf("%d", c.KeepaliveTimeouts),
			f1(c.ThroughputMbps),
		})
	}
	return table(
		[]string{"profile", "rtt(ms)", "breaks", "recovered", "rec-p50(ms)", "rec-p99(ms)", "ka-timeout", "echo(Mb/s)"},
		rows,
	)
}

// RunWANMatrix runs the chaos scenario once per profile.
func RunWANMatrix(cfg WANMatrixConfig) (*WANMatrixResult, error) {
	cfg.setDefaults()
	res := &WANMatrixResult{}
	for i, p := range cfg.Profiles {
		cell, err := runWANProfile(p, cfg.Breaks, cfg.ThroughputBytes, wanMatrixSeed+int64(i)*7)
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", p.Name, err)
		}
		res.Cells = append(res.Cells, *cell)
	}
	return res, nil
}

// wanTap records the kernel connections WrapData installs so the scenario
// can sever the latest one — the moral equivalent of a NAT rebind or a
// mid-path reset.
type wanTap struct {
	mu    sync.Mutex
	conns []net.Conn
}

func (t *wanTap) track(c net.Conn) net.Conn {
	t.mu.Lock()
	t.conns = append(t.conns, c)
	t.mu.Unlock()
	return c
}

func (t *wanTap) killLatest() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.conns) == 0 {
		return false
	}
	t.conns[len(t.conns)-1].Close()
	return true
}

// roundtrip pushes one message through the echo session and waits for the
// reflection, bounded by timeout — the probe that forces the transport to
// notice a severed connection and proves the session recovered.
func roundtrip(client *core.Socket, timeout time.Duration) error {
	done := make(chan error, 1)
	go func() {
		msg := []byte("wan-matrix-probe")
		if _, err := client.Write(msg); err != nil {
			done <- err
			return
		}
		buf := make([]byte, len(msg))
		_, err := io.ReadFull(client, buf)
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(timeout):
		return errors.New("echo round trip timed out")
	}
}

func runWANProfile(p netem.Profile, breaks int, volume int64, seed int64) (*WANCell, error) {
	names := []string{"h1", "h2", "h3"}
	taps := make(map[string]*wanTap, len(names))
	mets := make(map[string]*obs.Registry, len(names))
	hostIdx := int64(0)
	d, err := newDeployment(names, func(hostName string, cfg *core.Config) {
		hostIdx++
		f := netem.NewFaults(seed + hostIdx)
		p.Apply(f)
		tap := &wanTap{}
		taps[hostName] = tap
		mets[hostName] = obs.NewRegistry()
		cfg.Metrics = mets[hostName]
		// Every write this host makes crosses its uplink: base delay,
		// jitter, and the profile's (possibly asymmetric) bandwidth cap.
		cfg.WrapData = func(c net.Conn) net.Conn { return f.Wrap(tap.track(c), netem.Up) }
		// The control plane crosses the same path: delayed sends plus the
		// profile's datagram loss (RUDP retransmits around it).
		cfg.ControlSendDelay = p.OneWayUp
		cfg.ControlDropFn = f.DropFn()
		// Probe far below the emulated RTT: without the RTT-adaptive floor
		// every cell past metro would be a wall of false positives.
		cfg.TransportKeepaliveInterval = 250 * time.Millisecond
		// Control exchanges pay several emulated round trips plus loss
		// retransmits; the defaults assume a LAN.
		cfg.OpTimeout = 20 * time.Second
	})
	if err != nil {
		return nil, err
	}
	defer d.close()

	client, server, err := d.pair("mover", "h1", "anchor", "h2")
	if err != nil {
		return nil, err
	}
	// The anchor reflects everything it reads for the life of the cell.
	go func() {
		buf := make([]byte, 32<<10)
		for {
			n, err := server.Read(buf)
			if n > 0 {
				if _, werr := server.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}()

	// Generous per-step budget: an intercontinental recovery pays a fresh
	// transport handshake and several 250ms round trips; lossy-cell adds
	// retransmits.
	step := 30 * time.Second
	if err := roundtrip(client, step); err != nil {
		return nil, fmt.Errorf("warmup: %w", err)
	}

	for i := 0; i < breaks; i++ {
		if !taps["h1"].killLatest() {
			return nil, fmt.Errorf("break %d: no live connection to sever", i)
		}
		if err := roundtrip(client, step); err != nil {
			return nil, fmt.Errorf("recovery after break %d: %w", i, err)
		}
	}

	// One live migration mid-session, then the same liveness probe from
	// the new host.
	if err := d.migrate("mover", "h1", "h3", 2); err != nil {
		return nil, err
	}
	var moved *core.Socket
	deadline := time.Now().Add(step)
	for {
		moved, err = d.hosts["h3"].ctrl.AgentSocket("mover", client.ID())
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("re-attaching after migration: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
	if err := roundtrip(moved, step); err != nil {
		return nil, fmt.Errorf("post-migration probe: %w", err)
	}

	// Throughput leg: stream volume bytes and read the reflection back,
	// crossing both hosts' emulated uplinks.
	mbps, err := echoThroughput(moved, volume, 2*step)
	if err != nil {
		return nil, fmt.Errorf("throughput leg: %w", err)
	}

	cell := &WANCell{
		Profile:        p.Name,
		RTTMs:          float64(p.RTT()) / float64(time.Millisecond),
		Breaks:         breaks,
		ThroughputMbps: mbps,
	}
	for _, h := range names {
		snap := mets[h].Snapshot()
		cell.Failures += int(snap.Counters["conn.failures"])
		cell.Recoveries += int(snap.Counters["fault.conn_recoveries"])
		cell.KeepaliveTimeouts += int(snap.Counters["transport.keepalive_timeouts"])
	}
	rec := mets["h2"].Snapshot().Histograms["fault.recovery_ms"]
	cell.RecoveryP50Ms, cell.RecoveryP99Ms = rec.P50, rec.P99
	return cell, nil
}

// echoThroughput streams volume bytes through the echo session and clocks
// the full reflection.
func echoThroughput(client *core.Socket, volume int64, timeout time.Duration) (float64, error) {
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		chunk := make([]byte, 8<<10)
		var sent int64
		for sent < volume {
			n := int64(len(chunk))
			if volume-sent < n {
				n = volume - sent
			}
			if _, err := client.Write(chunk[:n]); err != nil {
				done <- err
				return
			}
			sent += n
		}
		done <- nil
	}()
	var got int64
	buf := make([]byte, 32<<10)
	deadline := time.Now().Add(timeout)
	for got < volume {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("echo stalled after %d/%d bytes", got, volume)
		}
		n, err := client.Read(buf)
		got += int64(n)
		if err != nil {
			return 0, fmt.Errorf("reading echo after %d bytes: %w", got, err)
		}
	}
	if err := <-done; err != nil {
		return 0, err
	}
	elapsed := time.Since(start).Seconds()
	if elapsed <= 0 {
		return 0, nil
	}
	return float64(volume) * 8 / elapsed / 1e6, nil
}
