package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"naplet/internal/fsm"
	"naplet/internal/netem"
	"naplet/internal/obs"
)

// chaosMsg builds the deterministic payload for message k of stream i:
// the length and every byte are functions of (i, k), so the reader can
// verify byte-exact, in-order, exactly-once delivery without any shared
// state with the writer.
func chaosMsg(i, k int) []byte {
	n := 16 + (i*197+k*61)%2048
	p := make([]byte, n)
	for j := range p {
		p[j] = byte(i*31 + k*131 + j*7)
	}
	return p
}

// TestChaosSoakExactlyOnce is the chaos soak: 16 logical streams between
// hosts, two agent migrations mid-traffic, and a netem fault schedule
// injecting at least five transport resets, a two-second full partition,
// control-plane packet loss, and a bandwidth cap — all while every payload
// must arrive byte-exact, in order, exactly once, with no error ever
// surfacing to a stream caller. Every transport a reset kills fails its
// connections, and each must recover by its own resume.
//
// Every inter-host transport dial (including the ones recovery makes) is
// routed through a per-host netem.Proxy by the DialData hook, so the whole
// shared-transport layer lives under the fault plan. The control plane
// (RUDP) takes seeded probabilistic loss via ControlDropFn.
func TestChaosSoakExactlyOnce(t *testing.T) {
	const streams = 16
	msgsPerStream := 300
	if testing.Short() {
		msgsPerStream = 100
	}

	faults := netem.NewFaults(0xC4A05)
	faults.SetLoss(0.02)          // control-plane loss; RUDP retransmits
	faults.SetBandwidth(16 << 20) // mild cap so pacing code is exercised

	// Transport dials consult this table and are rerouted through the
	// fault proxies; it is filled in after the controllers exist.
	var rw struct {
		sync.Mutex
		m map[string]string
	}
	rw.m = make(map[string]string)
	dialViaProxy := func(addr string, timeout time.Duration) (net.Conn, error) {
		rw.Lock()
		if p, ok := rw.m[addr]; ok {
			addr = p
		}
		rw.Unlock()
		return net.DialTimeout("tcp", addr, timeout)
	}

	regs := make(map[string]*obs.Registry)
	tracers := make(map[string]*obs.Tracer)
	chaos := func(c *Config) {
		c.DialData = dialViaProxy
		c.ControlDropFn = faults.DropFn()
		c.TransportKeepaliveInterval = 100 * time.Millisecond
		c.TransportKeepaliveTimeout = 600 * time.Millisecond
		c.OpTimeout = 10 * time.Second
		r := obs.NewRegistry()
		regs[c.HostName] = r
		c.Metrics = r
		tr := obs.NewTracer(c.HostName)
		tracers[c.HostName] = tr
		c.Tracer = tr
	}
	// The soak runs cleartext by default (the handshake is not under test);
	// CHAOS_SECURE=1 switches every host to the full negotiated stack —
	// DH handshake and AES-GCM record layer on every transport recovery
	// dials — so CI proves exactly-once survives the fault plan with
	// encryption on too.
	opts := []envOption{chaos}
	if os.Getenv("CHAOS_SECURE") == "" {
		opts = append([]envOption{insecure()}, opts...)
	} else {
		t.Log("CHAOS_SECURE set: running soak with encrypted transports")
	}
	env := newEnv(t, []string{"h1", "h2", "h3"}, opts...)

	proxies := make(map[string]*netem.Proxy)
	rw.Lock()
	for name, h := range env.hosts {
		p, err := netem.NewProxy(h.ctrl.DataAddr(), faults)
		if err != nil {
			rw.Unlock()
			t.Fatal(err)
		}
		proxies[name] = p
		rw.m[h.ctrl.DataAddr()] = p.Addr()
		t.Cleanup(func() { p.Close() })
	}
	rw.Unlock()

	// 16 logical streams: clients c0..c15 on h1, servers s0..s15 on h2.
	// c0 and c1 migrate to h3 mid-traffic.
	clients := make([]*Socket, streams)
	servers := make([]*Socket, streams)
	for i := 0; i < streams; i++ {
		clients[i], servers[i] = env.pair(
			fmt.Sprintf("c%d", i), "h1", fmt.Sprintf("s%d", i), "h2")
	}

	const migrators = 2
	var (
		wg sync.WaitGroup
		// Migrating writers pause at the halfway mark: halfDone signals
		// the scheduler it is safe to PreDepart, and the moved socket
		// comes back on resumed.
		halfDone [migrators]chan struct{}
		resumed  [migrators]chan *Socket
	)
	for i := range halfDone {
		halfDone[i] = make(chan struct{})
		resumed[i] = make(chan *Socket, 1)
	}

	writer := func(i int) {
		defer wg.Done()
		s := clients[i]
		for k := 0; k < msgsPerStream; k++ {
			if i < migrators && k == msgsPerStream/2 {
				close(halfDone[i])
				s = <-resumed[i]
			}
			if err := s.WriteMsg(chaosMsg(i, k)); err != nil {
				t.Errorf("stream %d write %d: %v", i, k, err)
				return
			}
		}
	}
	reader := func(i int) {
		defer wg.Done()
		for k := 0; k < msgsPerStream; k++ {
			m, err := servers[i].ReadMsg()
			if err != nil {
				t.Errorf("stream %d read %d: %v", i, k, err)
				return
			}
			if want := chaosMsg(i, k); !bytes.Equal(m, want) {
				t.Errorf("stream %d msg %d: got %d bytes, want %d; payload mismatch",
					i, k, len(m), len(want))
				return
			}
		}
	}
	wg.Add(2 * streams)
	for i := 0; i < streams; i++ {
		go writer(i)
		go reader(i)
	}

	resetAll := func() int {
		n := 0
		for _, p := range proxies {
			n += p.ResetAll()
		}
		return n
	}
	migrate := func(mi int, agent string) {
		<-halfDone[mi]
		env.migrate(agent, "h1", "h3", 2)
		moved, err := env.hosts["h3"].ctrl.AgentSocket(agent, clients[mi].ID())
		if err != nil {
			t.Fatalf("%s after migration: %v", agent, err)
		}
		waitEstablished(t, moved)
		resumed[mi] <- moved
	}

	// The scripted fault schedule: resets bracket both migrations, with
	// the full partition in between. Six reset rounds guarantee the
	// ">= 5 transport resets" floor even if an early round finds no
	// flow up yet.
	schedule := []func(){
		func() { time.Sleep(250 * time.Millisecond) },
		func() { resetAll() },
		func() { time.Sleep(350 * time.Millisecond); resetAll() },
		func() { migrate(0, "c0") },
		func() { resetAll() },
		func() {
			faults.StallAll(true)
			time.Sleep(2 * time.Second)
			faults.StallAll(false)
		},
		func() { time.Sleep(350 * time.Millisecond); resetAll() },
		func() { migrate(1, "c1") },
		func() { resetAll() },
		func() { time.Sleep(350 * time.Millisecond); resetAll() },
	}
	for _, step := range schedule {
		step()
	}

	wg.Wait()

	var resets uint64
	for _, p := range proxies {
		resets += p.Resets()
	}
	if resets < 5 {
		t.Errorf("fault schedule injected only %d transport resets, want >= 5", resets)
	}
	// Every reset fails the connections on the transport it killed, on
	// both ends, and each of them recovers by its own resume. A reset
	// landing after the last message is still being recovered: wait until
	// no endpoint is left short of ESTABLISHED. (Failures and recoveries
	// need not pair up one to one here: a failure during a recovery belongs
	// to the same episode, and an episode a migration carries away is
	// closed on the host it left without a count.)
	eventually(t, "every endpoint to be re-established", func() bool {
		for _, h := range env.hosts {
			for _, in := range h.ctrl.ConnInfos() {
				if in.State != fsm.Established.String() {
					return false
				}
			}
		}
		return true
	})
	var failures, recoveries, gaps uint64
	for _, r := range regs {
		failures += r.Counter("conn.failures").Value()
		recoveries += r.Counter("fault.conn_recoveries").Value()
		gaps += r.Counter("data.seq_gaps").Value()
	}
	if recoveries < resets {
		t.Errorf("fault.conn_recoveries = %d, want >= %d resets (recovery never exercised?)", recoveries, resets)
	}
	// Every retransmit starts at the receiver's cursor, so no stream ever
	// carries a frame past one the receiver lacks.
	if gaps != 0 {
		t.Errorf("data.seq_gaps = %d, want 0: a frame arrived past a lost one", gaps)
	}
	t.Logf("soak: %d streams x %d msgs, %d resets, %d connection failures, %d recoveries",
		streams, msgsPerStream, resets, failures, recoveries)

	saveSlowestTraces(t, tracers)
}

// saveSlowestTraces writes the five slowest migration traces of the soak —
// each host's spans merged by trace id — as JSON to $CHAOS_TRACE_OUT, so CI
// can keep them as a build artifact. A no-op when the variable is unset.
func saveSlowestTraces(t *testing.T, tracers map[string]*obs.Tracer) {
	out := os.Getenv("CHAOS_TRACE_OUT")
	if out == "" {
		return
	}
	type mergedTrace struct {
		ID         string             `json:"id"`
		Root       string             `json:"root"`
		DurationMs float64            `json:"duration_ms"`
		Phases     map[string]float64 `json:"phases_ms"`
		Spans      []obs.SpanRecord   `json:"spans"`
	}
	byID := make(map[string]*mergedTrace)
	for _, tr := range tracers {
		for _, ts := range tr.Snapshot() {
			m := byID[ts.ID]
			if m == nil {
				m = &mergedTrace{ID: ts.ID, Root: ts.Root, Phases: make(map[string]float64)}
				byID[ts.ID] = m
			}
			// Migration traces root at "migrate <agent>" or "depart"; keep
			// the most descriptive root seen.
			if strings.HasPrefix(ts.Root, "migrate ") {
				m.Root = ts.Root
			}
			m.Spans = append(m.Spans, ts.Spans...)
			for name, ms := range ts.Phases {
				m.Phases[name] += ms
			}
			if ts.DurationMs > m.DurationMs {
				m.DurationMs = ts.DurationMs
			}
		}
	}
	migrations := make([]*mergedTrace, 0, len(byID))
	for _, m := range byID {
		if strings.HasPrefix(m.Root, "migrate ") || m.Root == "depart" {
			migrations = append(migrations, m)
		}
	}
	sort.Slice(migrations, func(i, j int) bool { return migrations[i].DurationMs > migrations[j].DurationMs })
	if len(migrations) > 5 {
		migrations = migrations[:5]
	}
	raw, err := json.MarshalIndent(struct {
		SavedAt time.Time      `json:"saved_at"`
		Traces  []*mergedTrace `json:"traces"`
	}{time.Now(), migrations}, "", "  ")
	if err != nil {
		t.Errorf("marshaling slowest traces: %v", err)
		return
	}
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		t.Errorf("writing %s: %v", out, err)
		return
	}
	t.Logf("saved %d slowest migration traces to %s", len(migrations), out)
}
