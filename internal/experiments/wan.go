package experiments

import (
	"fmt"
	"net"
	"time"

	"naplet/internal/core"
	"naplet/internal/netem"
)

// WANResult re-runs the Table 1 / Section 4.2 latency measurements with an
// emulated network: every data-socket write and every control packet is
// delayed by a one-way latency, so the protocol runs in the paper's
// absolute regime (their Fast Ethernet testbed had sub-millisecond RTT,
// their measured costs came from message exchanges; with a few
// milliseconds of emulated one-way delay the same exchange counts dominate
// the totals the way they did for the paper's JVM stack).
type WANResult struct {
	// OneWay is the emulated one-way latency.
	OneWay time.Duration
	// Latencies in milliseconds.
	OpenSecureMs float64
	SuspendMs    float64
	ResumeMs     float64
	Iters        int
}

// Table renders the emulated-network measurements with the paper's values
// alongside.
func (r *WANResult) Table() string {
	return table(
		[]string{"operation", fmt.Sprintf("measured @ %v one-way (ms)", r.OneWay), "paper (ms)"},
		[][]string{
			{"open (secure)", f1(r.OpenSecureMs), "134.4"},
			{"suspend", f1(r.SuspendMs), "27.8"},
			{"resume", f1(r.ResumeMs), "16.9"},
			{"suspend+resume", f1(r.SuspendMs + r.ResumeMs), "44.7"},
		},
	)
}

// RunWAN measures open/suspend/resume with the given emulated one-way
// latency applied to both the data plane and the control channel.
func RunWAN(oneWay time.Duration, iters int) (*WANResult, error) {
	if oneWay <= 0 {
		oneWay = 5 * time.Millisecond
	}
	if iters <= 0 {
		iters = 20
	}
	// One-way latency emulation on every host's data and control plane.
	d, err := newDeployment([]string{"h1", "h2"}, func(_ string, cfg *core.Config) {
		cfg.WrapData = func(conn net.Conn) net.Conn { return netem.Delay(conn, oneWay) }
		cfg.ControlSendDelay = oneWay
	})
	if err != nil {
		return nil, err
	}
	defer d.close()
	client, _, err := d.pair("opener", "h1", "acceptor", "h2")
	if err != nil {
		return nil, err
	}

	// Open latency on fresh connections, then suspend/resume on the
	// established one.
	res := &WANResult{OneWay: oneWay, Iters: iters}
	if res.OpenSecureMs, _, err = d.openCloseLoop(iters, false); err != nil {
		return nil, fmt.Errorf("wan %w", err)
	}
	if res.SuspendMs, res.ResumeMs, err = suspendResumeLoop(client, iters); err != nil {
		return nil, fmt.Errorf("wan %w", err)
	}
	return res, nil
}
