package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"naplet/internal/core"
	"naplet/internal/fsm"
)

// acceptContext bounds one storm accept; generous because under a full
// 100k open the accept backlog competes with thousands of peers.
func acceptContext() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 60*time.Second)
}

// C10KConfig parameterizes the connection storm: Conns logical
// NapletSocket connections between two hosts, then a migration wave that
// moves the agents carrying Wave of those connections to a third host.
// The storm is the scaling companion to the paper's per-connection
// experiments — it exists to prove the per-connection footprint (memory,
// goroutines, timers) stays flat while the population grows by orders of
// magnitude.
type C10KConfig struct {
	// Conns is the logical connection population (default 100_000).
	Conns int
	// Wave is how many connections the migration wave sweeps
	// (default Conns/10).
	Wave int
	// ConnsPerAgent groups connections onto server agents; the wave
	// migrates whole agents, as the docking system does (default 100).
	ConnsPerAgent int
}

func (c *C10KConfig) defaults() {
	if c.Conns <= 0 {
		c.Conns = 100_000
	}
	if c.Wave <= 0 {
		c.Wave = c.Conns / 10
	}
	if c.Wave > c.Conns {
		c.Wave = c.Conns
	}
	if c.ConnsPerAgent <= 0 {
		c.ConnsPerAgent = 100
	}
}

// C10KResult reports the storm measurements.
type C10KResult struct {
	Config C10KConfig
	// Agents is how many server agents carried the population.
	Agents int
	// OpenWall is the wall time to establish the whole population.
	OpenWall time.Duration
	// MemPerConnBytes is the steady-state heap growth per connection
	// (GC-settled heap delta across the open phase, divided by Conns).
	MemPerConnBytes float64
	// BaselineGoroutines is the process goroutine count with the
	// deployment up but zero connections; SteadyGoroutines is the count
	// with all Conns established. Their difference is the scaling
	// invariant: O(transports), never O(conns) — an idle connection runs
	// no goroutine.
	BaselineGoroutines, SteadyGoroutines int
	// WaveWall is the wall time of the whole migration wave; WaveP50 and
	// WaveP99 are per-connection suspend-to-resumed latencies across the
	// swept connections (from the owning agent's PreDepart to the client
	// endpoint re-entering ESTABLISHED).
	WaveWall, WaveP50, WaveP99 time.Duration
}

// Summary is a one-line digest.
func (r *C10KResult) Summary() string {
	return fmt.Sprintf("%d conns on %d agents: open %.1fs, %.0f B/conn, goroutines %d->%d; wave of %d: %.1fs wall, p50 %.1fms, p99 %.1fms",
		r.Config.Conns, r.Agents, r.OpenWall.Seconds(), r.MemPerConnBytes,
		r.BaselineGoroutines, r.SteadyGoroutines,
		r.Config.Wave, r.WaveWall.Seconds(),
		float64(r.WaveP50)/float64(time.Millisecond),
		float64(r.WaveP99)/float64(time.Millisecond))
}

// MaxC10KGoroutineGrowth is the absolute ceiling on goroutine growth
// between zero connections and the full population. It is a constant, not
// a ratio against a recorded run: any O(conns) goroutine regression blows
// through it at a few hundred connections already.
const MaxC10KGoroutineGrowth = 64

// Check reports a violated scaling invariant. RunC10K itself fails when a
// swept connection never re-enters ESTABLISHED or the post-wave round trip
// breaks, so a result in hand needs only the goroutine ceiling checked.
func (r *C10KResult) Check() error {
	if growth := r.SteadyGoroutines - r.BaselineGoroutines; growth > MaxC10KGoroutineGrowth {
		return fmt.Errorf("c10k: goroutine growth %d across %d conns exceeds the O(1) ceiling %d — a per-connection goroutine is back",
			growth, r.Config.Conns, MaxC10KGoroutineGrowth)
	}
	return nil
}

// stormAgent is one server agent and the client-side endpoints of the
// connections it carries (the server-side endpoints migrate with it, so
// only the client side is observed across the wave).
type stormAgent struct {
	name    string
	clients []*core.Socket
}

// RunC10K opens cfg.Conns connections from agents on h1 to agents on h2,
// measures the per-connection footprint, migrates the agents carrying
// cfg.Wave connections to h3 while timing every connection's outage, and
// finishes with a data round trip through a migrated connection to prove
// the wave left live, usable sockets behind.
func RunC10K(cfg C10KConfig) (*C10KResult, error) {
	cfg.defaults()
	d, err := newDeployment([]string{"h1", "h2", "h3"}, func(_ string, cfg *core.Config) {
		cfg.Insecure = true
	})
	if err != nil {
		return nil, err
	}
	defer d.close()

	agents := (cfg.Conns + cfg.ConnsPerAgent - 1) / cfg.ConnsPerAgent
	res := &C10KResult{Config: cfg, Agents: agents}

	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res.BaselineGoroutines = runtime.NumGoroutine()

	// ---- open phase: agents open their connection blocks in parallel ----
	pop := make([]*stormAgent, agents)
	openStart := time.Now()
	var (
		wg      sync.WaitGroup
		errMu   sync.Mutex
		openErr error
	)
	// Open/migrate parallelism follows the machine, with a floor of four.
	sem := make(chan struct{}, max(4, 2*runtime.GOMAXPROCS(0)))
	remaining := cfg.Conns
	for i := 0; i < agents; i++ {
		n := cfg.ConnsPerAgent
		if n > remaining {
			n = remaining
		}
		remaining -= n
		wg.Add(1)
		sem <- struct{}{}
		go func(i, n int) {
			defer wg.Done()
			defer func() { <-sem }()
			a, err := openStormAgent(d, i, n)
			if err != nil {
				errMu.Lock()
				if openErr == nil {
					openErr = err
				}
				errMu.Unlock()
				return
			}
			pop[i] = a
		}(i, n)
	}
	wg.Wait()
	if openErr != nil {
		return nil, openErr
	}
	res.OpenWall = time.Since(openStart)

	// Footprint with the population at steady state. The GC pass settles
	// transient open-phase garbage so the delta is resident state, not
	// allocation churn.
	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	res.MemPerConnBytes = float64(m1.HeapAlloc-m0.HeapAlloc) / float64(cfg.Conns)
	res.SteadyGoroutines = runtime.NumGoroutine()

	// ---- migration wave ----
	waveAgents := (cfg.Wave + cfg.ConnsPerAgent - 1) / cfg.ConnsPerAgent
	if waveAgents > agents {
		waveAgents = agents
	}
	lats := make([]time.Duration, 0, cfg.Wave)
	var latMu sync.Mutex
	waveStart := time.Now()
	var waveErr error
	for i := 0; i < waveAgents; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(a *stormAgent) {
			defer wg.Done()
			defer func() { <-sem }()
			t0 := time.Now()
			if err := d.migrate(a.name, "h2", "h3", 2); err != nil {
				errMu.Lock()
				if waveErr == nil {
					waveErr = err
				}
				errMu.Unlock()
				return
			}
			// Sweep the agent's client endpoints until each re-enters
			// ESTABLISHED, stamping its outage when first observed there.
			own := make([]time.Duration, len(a.clients))
			pending := len(a.clients)
			deadline := time.Now().Add(60 * time.Second)
			for pending > 0 {
				for j, c := range a.clients {
					if own[j] == 0 && c.State() == fsm.Established {
						own[j] = time.Since(t0)
						pending--
					}
				}
				if pending == 0 {
					break
				}
				if time.Now().After(deadline) {
					errMu.Lock()
					if waveErr == nil {
						waveErr = fmt.Errorf("c10k: agent %s: %d conns never resumed", a.name, pending)
					}
					errMu.Unlock()
					return
				}
				time.Sleep(200 * time.Microsecond)
			}
			latMu.Lock()
			lats = append(lats, own...)
			latMu.Unlock()
		}(pop[i])
	}
	wg.Wait()
	if waveErr != nil {
		return nil, waveErr
	}
	res.WaveWall = time.Since(waveStart)
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if len(lats) > 0 {
		res.WaveP50 = lats[len(lats)/2]
		res.WaveP99 = lats[len(lats)*99/100]
	}

	// ---- post-wave sanity: a migrated connection must still carry data ----
	probe := pop[0]
	client := probe.clients[0]
	if err := client.WriteMsg([]byte("storm-probe")); err != nil {
		return nil, fmt.Errorf("c10k: post-wave write: %w", err)
	}
	server, err := d.hosts["h3"].ctrl.AgentSocket(probe.name, client.ID())
	if err != nil {
		return nil, fmt.Errorf("c10k: attaching migrated endpoint: %w", err)
	}
	msg, err := server.ReadMsg()
	if err != nil {
		return nil, fmt.Errorf("c10k: post-wave read: %w", err)
	}
	if string(msg) != "storm-probe" {
		return nil, fmt.Errorf("c10k: post-wave probe corrupted: %q", msg)
	}
	return res, nil
}

// openStormAgent places one client/server agent pair and opens n
// connections between them over the shared host-pair transport.
func openStormAgent(d *deployment, idx, n int) (*stormAgent, error) {
	ca := fmt.Sprintf("c10k-c%d", idx)
	sa := fmt.Sprintf("c10k-s%d", idx)
	if err := d.place(ca, "h1"); err != nil {
		return nil, err
	}
	if err := d.place(sa, "h2"); err != nil {
		return nil, err
	}
	hc, hs := d.hosts["h1"], d.hosts["h2"]
	ss, err := hs.ctrl.ListenAs(sa, hs.cred(sa))
	if err != nil {
		return nil, err
	}
	a := &stormAgent{name: sa, clients: make([]*core.Socket, 0, n)}
	for j := 0; j < n; j++ {
		type acceptRes struct {
			s   *core.Socket
			err error
		}
		acceptCh := make(chan acceptRes, 1)
		go func() {
			ctx, cancel := acceptContext()
			defer cancel()
			s, err := ss.Accept(ctx)
			acceptCh <- acceptRes{s, err}
		}()
		cl, err := hc.ctrl.OpenAs(ca, hc.cred(ca), sa)
		if err != nil {
			return nil, fmt.Errorf("c10k: open %s#%d: %w", ca, j, err)
		}
		r := <-acceptCh
		if r.err != nil {
			return nil, fmt.Errorf("c10k: accept %s#%d: %w", sa, j, r.err)
		}
		a.clients = append(a.clients, cl)
	}
	return a, nil
}
