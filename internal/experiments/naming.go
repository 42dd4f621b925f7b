package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"naplet/internal/naming"
	"naplet/internal/naming/cluster"
	"naplet/internal/obs"
)

// The naming benchmark measures what the location-cache design note
// claims: under a continuous migration storm, a host that learns about
// moves from the piggybacked SUS_RES/RES notifications keeps serving
// lookups from cache — at memory speed and with a hit rate the storm
// barely dents — while a cacheless host pays a registry round trip for
// every open.
//
// The workload is an in-process sharded cluster (nodes on loopback UDP,
// leader-lease replication exactly as deployed) populated with Agents
// records. A storm goroutine performs epoch-bumping Updates at StormRate
// per second and, after each ack, delivers the same Advance notification
// the RES piggyback would carry. Lookup workers then hammer the directory
// through the cache and directly, for Duration each.

// NamingBenchConfig sizes the benchmark; zero values select the full-size
// configuration (10k agents, 100 migrations/sec).
type NamingBenchConfig struct {
	Agents    int           // directory population; default 10000
	StormRate float64       // migrations/sec during measurement; default 100
	Duration  time.Duration // per-mode measurement window; default 3s
	Workers   int           // concurrent lookup workers; default 8
}

// The cluster under the benchmark: three node processes serving three
// consistent-hash shards, two replicas each; namingSeed fixes the agent
// picks.
const (
	namingNodes       = 3
	namingShards      = 3
	namingReplication = 2
	namingSeed        = 1
)

func (c NamingBenchConfig) withDefaults() NamingBenchConfig {
	if c.Agents <= 0 {
		c.Agents = 10000
	}
	if c.StormRate <= 0 {
		c.StormRate = 100
	}
	if c.Duration <= 0 {
		c.Duration = 3 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	return c
}

// NamingBenchResult is one full run of the lookup benchmark.
type NamingBenchResult struct {
	Config NamingBenchConfig

	// CachedPerSec is lookups/sec served through the migration-aware
	// cache while the storm runs; DirectPerSec is the same workers
	// asking the cluster for every lookup.
	CachedPerSec float64
	DirectPerSec float64
	// HitRate is the cache's hit fraction over the cached phase.
	HitRate float64
	// Advances counts storm notifications absorbed by the cache (the
	// piggyback path keeping entries fresh without a registry fetch).
	Advances uint64
	// StormAchieved is the measured migration rate, which falls short of
	// StormRate only if the cluster cannot ack writes fast enough.
	StormAchieved float64
}

// Speedup is the cached/direct lookup throughput ratio.
func (r *NamingBenchResult) Speedup() float64 {
	if r.DirectPerSec <= 0 {
		return 0
	}
	return r.CachedPerSec / r.DirectPerSec
}

// MinNamingHitRate is the absolute floor on the storm-era cache hit rate:
// the piggybacked Advance notifications must keep at least this fraction
// of lookups off the registry. A cache the storm defeats is a design
// regression no hardware can excuse.
const MinNamingHitRate = 0.9

// Check reports a violated invariant: the storm and the epoch piggyback
// must actually have run, and the cache must have held its hit rate
// through them.
func (r *NamingBenchResult) Check() error {
	switch {
	case r.StormAchieved <= 0:
		return errors.New("naming: the storm made no migrations")
	case r.Advances == 0:
		return errors.New("naming: the storm produced no cache advances; the piggyback path is dead")
	case r.HitRate < MinNamingHitRate:
		return fmt.Errorf("naming: hit rate %.3f under the migration storm is below the %.2f floor",
			r.HitRate, MinNamingHitRate)
	}
	return nil
}

// Table renders the benchmark summary.
func (r *NamingBenchResult) Table() string {
	rows := [][]string{
		{"agents", fmt.Sprintf("%d", r.Config.Agents)},
		{"cluster", fmt.Sprintf("%d nodes, %d shards x%d", namingNodes, namingShards, namingReplication)},
		{"storm (migr/s)", f1(r.StormAchieved)},
		{"cached lookups/s", f1(r.CachedPerSec)},
		{"direct lookups/s", f1(r.DirectPerSec)},
		{"speedup", f1(r.Speedup()) + "x"},
		{"hit rate", f1(r.HitRate*100) + "%"},
		{"advances", fmt.Sprintf("%d", r.Advances)},
	}
	return table([]string{"metric", "value"}, rows)
}

// reserveUDPAddrs grabs n distinct loopback UDP addresses by binding and
// releasing them: the cluster layout must name every node address before
// the nodes exist.
func reserveUDPAddrs(n int) ([]string, error) {
	conns := make([]net.PacketConn, 0, n)
	addrs := make([]string, 0, n)
	defer func() {
		for _, pc := range conns {
			pc.Close()
		}
	}()
	for i := 0; i < n; i++ {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserving port: %w", err)
		}
		conns = append(conns, pc)
		addrs = append(addrs, pc.LocalAddr().String())
	}
	return addrs, nil
}

func namingLoc(agent string, epoch uint64) naming.Location {
	return naming.Location{
		Host:        fmt.Sprintf("host-%d", epoch%7),
		ControlAddr: fmt.Sprintf("10.1.0.%d:%d", epoch%250+1, 4000+epoch%1000),
		DataAddr:    fmt.Sprintf("10.1.0.%d:%d", epoch%250+1, 5000+epoch%1000),
	}
}

// RunNamingBench builds the cluster, loads it, runs the storm, and
// measures both lookup modes.
func RunNamingBench(cfg NamingBenchConfig) (*NamingBenchResult, error) {
	cfg = cfg.withDefaults()
	addrs, err := reserveUDPAddrs(namingNodes)
	if err != nil {
		return nil, err
	}
	layout, err := cluster.BuildLayout(addrs, namingShards, namingReplication)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	nodes := make([]*cluster.Node, 0, namingNodes)
	defer func() {
		for _, n := range nodes {
			n.Kill()
		}
	}()
	for _, addr := range addrs {
		n, err := cluster.NewNode(cluster.NodeConfig{Addr: addr, Layout: layout, Metrics: reg})
		if err != nil {
			return nil, fmt.Errorf("starting node %s: %w", addr, err)
		}
		nodes = append(nodes, n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	client, err := cluster.NewClient(ctx, cluster.ClientConfig{Seeds: addrs, Metrics: reg})
	if err != nil {
		return nil, err
	}
	defer client.Close()

	// Populate the directory with a registration worker pool; each write
	// is a synchronously replicated cluster operation, so parallelism is
	// what makes 10k of them tolerable.
	ids := make([]string, cfg.Agents)
	for i := range ids {
		ids[i] = fmt.Sprintf("agent-%05d", i)
	}
	epochs := make([]uint64, cfg.Agents) // storm-owned after load
	var regErr error
	var regErrOnce sync.Once
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if err := client.Register(ctx, ids[i], namingLoc(ids[i], 1)); err != nil {
					regErrOnce.Do(func() { regErr = fmt.Errorf("register %s: %w", ids[i], err) })
					return
				}
			}
		}()
	}
	for i := range ids {
		work <- i
		epochs[i] = 1
	}
	close(work)
	wg.Wait()
	if regErr != nil {
		return nil, regErr
	}

	cache := naming.NewCache(client, naming.CacheConfig{MaxEntries: cfg.Agents + 16, Metrics: reg})
	// Warm sweep: one lookup per agent fills the cache, the way a busy
	// host's first opens would.
	for _, id := range ids {
		if _, err := cache.Lookup(ctx, id); err != nil {
			return nil, fmt.Errorf("warm lookup %s: %w", id, err)
		}
	}
	warmed := cache.Stats()

	// The storm: epoch-bumping Updates at StormRate in aggregate, each
	// followed by the Advance the mover's RES would piggyback to this
	// host. Several workers own disjoint agent slices — per-agent epochs
	// stay sequential while the synchronous replicated writes overlap
	// enough to actually sustain the target rate.
	stormCtx, stopStorm := context.WithCancel(ctx)
	defer stopStorm()
	const stormWorkers = 4
	var stormMoves atomic.Int64
	var stormErr atomic.Value
	stormStart := time.Now()
	var stormWG sync.WaitGroup
	for w := 0; w < stormWorkers; w++ {
		stormWG.Add(1)
		go func(w int) {
			defer stormWG.Done()
			var own []int
			for i := w; i < len(ids); i += stormWorkers {
				own = append(own, i)
			}
			if len(own) == 0 {
				return
			}
			rnd := rand.New(rand.NewSource(namingSeed + int64(w)*7919))
			// Absolute-schedule pacing rather than a ticker: when the
			// lookup workers monopolize the CPU and delay a wakeup, the
			// storm catches up with a burst instead of silently dropping
			// ticks, so the average rate stays at the target.
			interval := time.Duration(float64(time.Second) * stormWorkers / cfg.StormRate)
			next := time.Now()
			// Reused pacing timer: at storm rates a per-tick time.After
			// would churn thousands of runtime timers per second.
			pace := time.NewTimer(time.Hour)
			pace.Stop()
			defer pace.Stop()
			for {
				next = next.Add(interval)
				if d := time.Until(next); d > 0 {
					pace.Reset(d)
					select {
					case <-stormCtx.Done():
						return
					case <-pace.C:
					}
				} else if stormCtx.Err() != nil {
					return
				}
				i := own[rnd.Intn(len(own))]
				epochs[i]++
				loc := namingLoc(ids[i], epochs[i])
				if err := client.Update(stormCtx, ids[i], loc, epochs[i]); err != nil {
					if stormCtx.Err() == nil {
						stormErr.Store(fmt.Errorf("storm update %s: %w", ids[i], err))
					}
					return
				}
				cache.Advance(ids[i], loc, epochs[i])
				stormMoves.Add(1)
			}
		}(w)
	}

	lookupPhase := func(resolve func(context.Context, string) (naming.Record, error)) (float64, error) {
		var count atomic.Int64
		var firstErr atomic.Value
		deadline := time.Now().Add(cfg.Duration)
		var pwg sync.WaitGroup
		for w := 0; w < cfg.Workers; w++ {
			pwg.Add(1)
			go func(seed int64) {
				defer pwg.Done()
				rnd := rand.New(rand.NewSource(seed))
				for time.Now().Before(deadline) {
					id := ids[rnd.Intn(len(ids))]
					if _, err := resolve(ctx, id); err != nil {
						firstErr.Store(fmt.Errorf("lookup %s: %w", id, err))
						return
					}
					count.Add(1)
				}
			}(namingSeed + int64(w) + 1)
		}
		pwg.Wait()
		if err, _ := firstErr.Load().(error); err != nil {
			return 0, err
		}
		return float64(count.Load()) / cfg.Duration.Seconds(), nil
	}

	cachedPerSec, err := lookupPhase(cache.Lookup)
	if err != nil {
		return nil, err
	}
	measured := cache.Stats()
	directPerSec, err := lookupPhase(client.Lookup)
	if err != nil {
		return nil, err
	}
	stormDur := time.Since(stormStart)
	stopStorm()
	stormWG.Wait()
	if err, _ := stormErr.Load().(error); err != nil {
		return nil, err
	}
	final := cache.Stats()

	// Hit rate over the cached phase only: subtract the warm sweep's
	// misses, which are the cost of booting, not of the storm.
	phaseLookups := (measured.Hits + measured.Misses) - (warmed.Hits + warmed.Misses)
	phaseHits := measured.Hits - warmed.Hits
	hitRate := 0.0
	if phaseLookups > 0 {
		hitRate = float64(phaseHits) / float64(phaseLookups)
	}
	return &NamingBenchResult{
		Config:        cfg,
		CachedPerSec:  cachedPerSec,
		DirectPerSec:  directPerSec,
		HitRate:       hitRate,
		Advances:      final.Advances,
		StormAchieved: float64(stormMoves.Load()) / stormDur.Seconds(),
	}, nil
}
