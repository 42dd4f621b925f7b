// Package experiments contains one driver per table and figure of the
// paper's evaluation (Sections 4 and 5). Each driver builds a live
// deployment of NapletSocket controllers over loopback — the same code
// paths as a distributed deployment — runs the paper's workload, and
// returns a result that renders as the corresponding table or data series.
//
// Absolute numbers differ from the paper's 2004 Sun Blade / Fast Ethernet
// testbed (and from the JVM); the experiments reproduce the *shape* of each
// result: orderings, ratios, and crossover locations. EXPERIMENTS.md holds
// the paper-vs-measured comparison.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"naplet/internal/core"
	"naplet/internal/metrics"
	"naplet/internal/naming"
	"naplet/internal/obs"
	"naplet/internal/security"
)

// host is one simulated agent server: a NapletSocket controller plus the
// identity machinery, without the behaviour runtime (experiments drive
// migration through the controller hooks directly, which is exactly what
// the docking system does).
type host struct {
	name  string
	ctrl  *core.Controller
	guard *security.Guard
}

func (h *host) cred(agentID string) [security.CredentialSize]byte {
	return h.guard.IssueCredential(agentID)
}

func (h *host) loc() naming.Location {
	return naming.Location{
		Host:        h.name,
		ControlAddr: h.ctrl.ControlAddr(),
		DataAddr:    h.ctrl.DataAddr(),
	}
}

// deployment is a set of hosts sharing one location service.
type deployment struct {
	svc   *naming.Service
	hosts map[string]*host
	// migrationDelay models the agent transfer cost T_a-migrate between
	// PreDepart and PostArrive.
	migrationDelay time.Duration
}

// newDeployment starts one controller per name. tune, when non-nil, adjusts
// each host's controller config after the deployment defaults and before
// the controller starts: security mode, fault plans, breakdowns, metrics
// registries, keepalive tuning.
func newDeployment(names []string, tune func(hostName string, cfg *core.Config)) (*deployment, error) {
	d := &deployment{
		svc:   naming.NewService(),
		hosts: make(map[string]*host),
	}
	for _, name := range names {
		guard, err := security.NewGuard(security.NewStore(security.AllowAgentAll()...))
		if err != nil {
			d.close()
			return nil, err
		}
		ccfg := core.Config{
			HostName:     name,
			Guard:        guard,
			Locator:      d.svc,
			OpTimeout:    5 * time.Second,
			ParkTimeout:  30 * time.Second,
			DrainTimeout: 5 * time.Second,
			Logger:       obs.NewLogger(func(string, ...any) {}, obs.LevelError),
		}
		if tune != nil {
			tune(name, &ccfg)
		}
		ctrl, err := core.NewController(ccfg)
		if err != nil {
			d.close()
			return nil, err
		}
		d.hosts[name] = &host{name: name, ctrl: ctrl, guard: guard}
	}
	return d, nil
}

func (d *deployment) close() {
	for _, h := range d.hosts {
		h.ctrl.Close()
	}
}

func (d *deployment) place(agentID, hostName string) error {
	return d.svc.Register(agentID, d.hosts[hostName].loc())
}

// listen places two (simulated) agents and has the server agent listen.
func (d *deployment) listen(clientAgent, hostC, serverAgent, hostS string) (*core.ServerSocket, error) {
	if err := d.place(clientAgent, hostC); err != nil {
		return nil, err
	}
	if err := d.place(serverAgent, hostS); err != nil {
		return nil, err
	}
	hs := d.hosts[hostS]
	return hs.ctrl.ListenAs(serverAgent, hs.cred(serverAgent))
}

// pair establishes one connection between two (simulated) agents.
func (d *deployment) pair(clientAgent, hostC, serverAgent, hostS string) (client, server *core.Socket, err error) {
	ss, err := d.listen(clientAgent, hostC, serverAgent, hostS)
	if err != nil {
		return nil, nil, err
	}
	hc := d.hosts[hostC]
	type res struct {
		s   *core.Socket
		err error
	}
	acceptCh := make(chan res, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		s, err := ss.Accept(ctx)
		acceptCh <- res{s, err}
	}()
	client, err = hc.ctrl.OpenAs(clientAgent, hc.cred(clientAgent), serverAgent)
	if err != nil {
		return nil, nil, err
	}
	r := <-acceptCh
	if r.err != nil {
		client.Close()
		return nil, nil, r.err
	}
	return client, r.s, nil
}

// migrate moves an agent between hosts, exactly as the docking system does:
// PreDepart (suspend + serialize), transfer (modelled by migrationDelay),
// location update, PostArrive (restore + resume).
func (d *deployment) migrate(agentID, from, to string, epoch uint64) error {
	blob, err := d.hosts[from].ctrl.PreDepart(agentID)
	if err != nil {
		return fmt.Errorf("predepart %s: %w", agentID, err)
	}
	if d.migrationDelay > 0 {
		time.Sleep(d.migrationDelay)
	}
	if err := d.svc.Update(agentID, d.hosts[to].loc(), epoch); err != nil {
		return fmt.Errorf("relocating %s: %w", agentID, err)
	}
	if err := d.hosts[to].ctrl.PostArrive(agentID, blob); err != nil {
		return fmt.Errorf("postarrive %s: %w", agentID, err)
	}
	return nil
}

// ---- rendering helpers ----

// table renders rows of columns with a header, tab-separated — the format
// every experiment prints.
func table(header []string, rows [][]string) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(header, "\t"))
	sb.WriteByte('\n')
	for _, r := range rows {
		sb.WriteString(strings.Join(r, "\t"))
		sb.WriteByte('\n')
	}
	return sb.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// sortedPhases returns breakdown phases in presentation order with any
// extras appended alphabetically.
func sortedPhases(snap map[metrics.Phase]time.Duration) []metrics.Phase {
	known := metrics.OpenPhases()
	seen := make(map[metrics.Phase]bool, len(known))
	out := make([]metrics.Phase, 0, len(snap))
	for _, p := range known {
		if _, ok := snap[p]; ok {
			out = append(out, p)
			seen[p] = true
		}
	}
	var extra []metrics.Phase
	for p := range snap {
		if !seen[p] {
			extra = append(extra, p)
		}
	}
	sort.Slice(extra, func(i, j int) bool { return extra[i] < extra[j] })
	return append(out, extra...)
}
