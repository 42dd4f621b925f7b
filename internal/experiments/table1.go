package experiments

import (
	"fmt"
	"net"
	"time"

	"naplet/internal/core"
	"naplet/internal/metrics"
)

// Table1Row is one connection type's open/close latency (Table 1 of the
// paper).
type Table1Row struct {
	Kind    string
	OpenMs  float64
	CloseMs float64
}

// Table1Result reproduces Table 1: latency to open/close a connection for
// a raw TCP socket (the paper's Java Socket), NapletSocket without
// security, and NapletSocket with security.
type Table1Result struct {
	Rows  []Table1Row
	Iters int
}

// Table renders the result in the paper's row order.
func (r *Table1Result) Table() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{row.Kind, f3(row.OpenMs), f3(row.CloseMs)}
	}
	return table([]string{"connection type", "open (ms)", "close (ms)"}, rows)
}

// RunTable1 measures open and close latency for the three connection
// types, averaging over iters operations each (the paper used 100).
func RunTable1(iters int) (*Table1Result, error) {
	if iters <= 0 {
		iters = 100
	}
	res := &Table1Result{Iters: iters}

	tcpOpen, tcpClose, err := rawTCPLatency(iters)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, Table1Row{Kind: "TCP socket", OpenMs: tcpOpen, CloseMs: tcpClose})

	for _, sec := range []bool{false, true} {
		open, cls, err := napletLatency(iters, sec)
		if err != nil {
			return nil, err
		}
		kind := "NapletSocket w/o security"
		if sec {
			kind = "NapletSocket with security"
		}
		res.Rows = append(res.Rows, Table1Row{Kind: kind, OpenMs: open, CloseMs: cls})
	}
	return res, nil
}

// rawTCPLatency measures plain TCP connect/close on loopback — the
// baseline the paper labels "Java Socket".
func rawTCPLatency(iters int) (openMs, closeMs float64, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer ln.Close()
	accepted := make(chan net.Conn, iters)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				close(accepted)
				return
			}
			accepted <- c
		}
	}()
	openS, closeS := metrics.NewSeries(), metrics.NewSeries()
	for i := 0; i < iters; i++ {
		start := time.Now()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return 0, 0, err
		}
		openS.AddDuration(time.Since(start))
		srv := <-accepted
		start = time.Now()
		conn.Close()
		closeS.AddDuration(time.Since(start))
		srv.Close()
	}
	return openS.Mean(), closeS.Mean(), nil
}

// napletLatency measures NapletSocket open/close through the full stack
// (controller proxy, control handshake, key exchange when secure, socket
// handoff).
func napletLatency(iters int, secure bool) (openMs, closeMs float64, err error) {
	d, err := newDeployment([]string{"h1", "h2"}, func(_ string, cfg *core.Config) { cfg.Insecure = !secure })
	if err != nil {
		return 0, 0, err
	}
	defer d.close()
	if _, err := d.listen("opener", "h1", "acceptor", "h2"); err != nil {
		return 0, 0, err
	}
	return d.openCloseLoop(iters, true)
}

// openCloseLoop times iters open/close cycles from opener on h1 to acceptor,
// who must be listening (d.listen, d.pair). With cold, every open pays full
// connection establishment, as Table 1 and Figure 8 measure it and as the
// paper's close+reopen did: the warm shared transport is dropped first, so
// the open pays the kernel dial and (when secure) the key exchange rather
// than riding a transport warmed by the previous iteration. The warm-path
// win is measured separately (core's warm-vs-cold transport test).
func (d *deployment) openCloseLoop(iters int, cold bool) (openMs, closeMs float64, err error) {
	hc := d.hosts["h1"]
	cred := hc.cred("opener")
	openS, closeS := metrics.NewSeries(), metrics.NewSeries()
	for i := 0; i < iters; i++ {
		if cold {
			hc.ctrl.CloseTransports()
		}
		start := time.Now()
		conn, err := hc.ctrl.OpenAs("opener", cred, "acceptor")
		if err != nil {
			return 0, 0, fmt.Errorf("open %d: %w", i, err)
		}
		openS.AddDuration(time.Since(start))
		start = time.Now()
		if err := conn.Close(); err != nil {
			return 0, 0, fmt.Errorf("close %d: %w", i, err)
		}
		closeS.AddDuration(time.Since(start))
	}
	return openS.Mean(), closeS.Mean(), nil
}

// suspendResumeLoop times iters suspend/resume cycles on an established
// connection (no agent movement, isolating the operation cost, as in
// Section 4.2).
func suspendResumeLoop(client *core.Socket, iters int) (suspendMs, resumeMs float64, err error) {
	susS, resS := metrics.NewSeries(), metrics.NewSeries()
	for i := 0; i < iters; i++ {
		start := time.Now()
		if err := client.Suspend(); err != nil {
			return 0, 0, fmt.Errorf("suspend %d: %w", i, err)
		}
		susS.AddDuration(time.Since(start))
		start = time.Now()
		if err := client.Resume(); err != nil {
			return 0, 0, fmt.Errorf("resume %d: %w", i, err)
		}
		resS.AddDuration(time.Since(start))
	}
	return susS.Mean(), resS.Mean(), nil
}

// SuspendResumeResult measures the suspend/resume costs of Section 4.2 and
// the close+reopen comparison the paper draws: provisioning a persistent
// connection (suspend + resume) versus tearing it down and re-opening.
type SuspendResumeResult struct {
	SuspendMs   float64
	ResumeMs    float64
	CloseOpenMs float64 // close + secure re-open
	Iters       int
}

// Table renders the Section 4.2 numbers.
func (r *SuspendResumeResult) Table() string {
	rows := [][]string{
		{"suspend", f3(r.SuspendMs)},
		{"resume", f3(r.ResumeMs)},
		{"suspend+resume", f3(r.SuspendMs + r.ResumeMs)},
		{"close+reopen", f3(r.CloseOpenMs)},
	}
	return table([]string{"operation", "latency (ms)"}, rows)
}

// RunSuspendResume measures suspend and resume on an established
// connection (no agent movement, isolating the operation cost, as in
// Section 4.2) and the cost of the close+reopen alternative.
func RunSuspendResume(iters int) (*SuspendResumeResult, error) {
	if iters <= 0 {
		iters = 100
	}
	d, err := newDeployment([]string{"h1", "h2"}, nil)
	if err != nil {
		return nil, err
	}
	defer d.close()
	client, _, err := d.pair("opener", "h1", "acceptor", "h2")
	if err != nil {
		return nil, err
	}
	res := &SuspendResumeResult{Iters: iters}
	if res.SuspendMs, res.ResumeMs, err = suspendResumeLoop(client, iters); err != nil {
		return nil, err
	}
	client.Close()

	// The close + reopen alternative. The paper's close tears down the
	// connection's data socket, so its reopen pays full establishment; a
	// reopen riding the warm per-host-pair transport would hide exactly the
	// cost this baseline exists to measure.
	open, cls, err := d.openCloseLoop(iters, true)
	if err != nil {
		return nil, err
	}
	res.CloseOpenMs = cls + open
	return res, nil
}

// Fig8Result reproduces Figure 8: where the time of opening each
// connection type goes.
type Fig8Result struct {
	// PhasesMs maps connection type -> phase -> mean milliseconds.
	PhasesMs map[string]map[metrics.Phase]float64
	Iters    int
}

// Table renders one row per (type, phase) with the share of the type's
// total.
func (r *Fig8Result) Table() string {
	var rows [][]string
	for _, kind := range []string{"TCP socket", "NapletSocket w/o security", "NapletSocket with security"} {
		phases := r.PhasesMs[kind]
		if phases == nil {
			continue
		}
		var total float64
		for _, v := range phases {
			total += v
		}
		snap := make(map[metrics.Phase]time.Duration, len(phases))
		for p, v := range phases {
			snap[p] = time.Duration(v * float64(time.Millisecond))
		}
		for _, p := range sortedPhases(snap) {
			share := 0.0
			if total > 0 {
				share = 100 * phases[p] / total
			}
			rows = append(rows, []string{kind, string(p), f3(phases[p]), f1(share) + "%"})
		}
		rows = append(rows, []string{kind, "TOTAL", f3(total), "100%"})
	}
	return table([]string{"connection type", "phase", "mean ms", "share"}, rows)
}

// RunFig8 measures the per-phase breakdown of connection opens for the
// three connection types.
func RunFig8(iters int) (*Fig8Result, error) {
	if iters <= 0 {
		iters = 50
	}
	res := &Fig8Result{PhasesMs: make(map[string]map[metrics.Phase]float64), Iters: iters}

	// Raw TCP: the whole cost is the socket open.
	tcpOpen, _, err := rawTCPLatency(iters)
	if err != nil {
		return nil, err
	}
	res.PhasesMs["TCP socket"] = map[metrics.Phase]float64{metrics.PhaseOpenSocket: tcpOpen}

	for _, sec := range []bool{false, true} {
		// Separate client- and server-side breakdowns: the server performs
		// its half of the key exchange and its policy check inside the
		// CONNECT request, so that compute is carved out of the client's
		// measured handshaking time and attributed to the right phases —
		// matching the paper's accounting, where "key establishment" covers
		// both ends.
		bdClient, bdServer := metrics.NewBreakdown(), metrics.NewBreakdown()
		breakdowns := map[string]*metrics.Breakdown{"h1": bdClient, "h2": bdServer}
		d, err := newDeployment([]string{"h1", "h2"}, func(hostName string, cfg *core.Config) {
			cfg.OpenBreakdown = breakdowns[hostName]
			cfg.Insecure = !sec
		})
		if err != nil {
			return nil, err
		}
		if _, err = d.listen("opener", "h1", "acceptor", "h2"); err == nil {
			_, _, err = d.openCloseLoop(iters, true)
		}
		d.close()
		if err != nil {
			return nil, err
		}
		kind := "NapletSocket w/o security"
		if sec {
			kind = "NapletSocket with security"
		}
		toMs := func(d time.Duration) float64 {
			return float64(d) / float64(time.Millisecond) / float64(iters)
		}
		client, server := bdClient.Snapshot(), bdServer.Snapshot()
		phases := make(map[metrics.Phase]float64)
		for p, total := range client {
			phases[p] = toMs(total)
		}
		serverCompute := server[metrics.PhaseKeyExchange] + server[metrics.PhaseSecurityCheck]
		phases[metrics.PhaseKeyExchange] += toMs(server[metrics.PhaseKeyExchange])
		phases[metrics.PhaseSecurityCheck] += toMs(server[metrics.PhaseSecurityCheck])
		if adj := phases[metrics.PhaseHandshaking] - toMs(serverCompute); adj > 0 {
			phases[metrics.PhaseHandshaking] = adj
		}
		for p, v := range phases {
			if v == 0 {
				delete(phases, p)
			}
		}
		res.PhasesMs[kind] = phases
	}
	return res, nil
}
