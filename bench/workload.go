package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"naplet/internal/core"
	"naplet/internal/wire"
)

// The three activities. A workload is a connection shape and the one
// activity it exists for: its own. The driver's contract has every run report
// every end-to-end metric, so a segment also gives each of the two other
// activities a slice on the same connections; nothing of the workload's own
// — its metrics, cpu_us_per_op, its op counts per layer — is taken there.
const (
	actStream = iota
	actEcho
	actControl
)

var actNames = [3]string{"stream", "echo", "control"}

// workload is one set of inputs: connection count, message size, cipher and
// own activity. Why each exists is in BENCHMARK.json and README.md.
type workload struct {
	name      string
	conns     int
	size      int
	cleartext bool
	own       int
}

// yardShare is the part of a segment each of its six yardstick slices takes
// (one before and one after every activity's slice: yard.go). Of the rest,
// ownShare goes to the workload's own activity and the two others split the
// remainder: at the contract's 1 s segment that is 25 ms, 510 ms and twice
// 170 ms.
const (
	yardShare = 0.025
	ownShare  = 0.6
)

func (w workload) share(act int) float64 {
	rest := 1 - 6*yardShare
	if act == w.own {
		return rest * ownShare
	}
	return rest * (1 - ownShare) / 2
}

var workloads = []workload{
	{
		name:  "stream_small_clear",
		conns: 1, size: 100, cleartext: true,
		own: actStream,
	},
	{
		name:  "stream_bulk_enc",
		conns: 1, size: 64 << 10,
		own: actStream,
	},
	{
		name:  "rpc_echo_enc",
		conns: 2, size: 1 << 10,
		own: actEcho,
	},
	{
		name:  "control_mix",
		conns: 2, size: 1 << 10,
		own: actControl,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// segment is what one measured segment produced.
type segment struct {
	streamBytes, streamMsgs int64
	streamNs                int64
	rtts                    []float64 // µs
	migrate                 []float64 // ms
	openClose               []float64 // µs
	suspendResume           []float64 // µs

	// yard is, per activity, what an op of the yardstick cost in process
	// CPU µs next to that activity's slice: the geometric mean of the
	// yardstick slice before it and the one after it. Zero without yardsticks.
	yard [3]float64

	// stolen is the share of the host's CPU time the hypervisor gave to
	// someone else while the segment ran (/proc/stat steal).
	stolen float64

	// over the workload's own slice
	ownOps, ownNs      int64
	cpuUs              float64
	allocBytes, allocs uint64
}

// counters are the program-exported and conn-level counts the traced run
// reads at slice boundaries; deltas over each activity's slices feed the
// per-layer ratios.
const (
	cNetWriteCalls = iota
	cNetWriteBytes
	cNetWriteNs
	cFrames
	cFlushes
	cPoolHits
	cPoolMisses
	cRUDPRequests
	cRUDPRetransmits
	cCacheHits
	cCacheLookups
	numCounters
)

type counters [numCounters]float64

func (c *counters) addDelta(after, before counters) {
	for i := range c {
		c[i] += after[i] - before[i]
	}
}

// runner drives one deployment through segments.
type runner struct {
	d   *deployment
	y   *yards // nil: no yardstick slices (the traced pass)
	rng *rand.Rand
	tr  *tracer // nil unless traced
	p   *probes // nil unless traced
	mem bool    // read runtime.MemStats round the own slice

	attempted atomic.Int64
	failed    atomic.Int64
	failOnce  sync.Once
	err       error

	cycles       uint64
	counts       [3]counters // deltas accumulated over each activity's slices
	tracedMsgs   int64       // ops under the tracer, to spread span totals over
	tracedCycles int64
}

// fail records the first failed op and tears the deployment down, which
// unblocks whatever the other side of the slice is waiting in.
func (r *runner) fail(err error) {
	r.failOnce.Do(func() {
		r.err = err
		r.failed.Add(1)
		r.d.close()
	})
}

func (r *runner) snap() counters {
	var c counters
	p := r.p
	if p == nil {
		return c
	}
	c[cNetWriteCalls] = float64(p.net.writeCalls.Load())
	c[cNetWriteBytes] = float64(p.net.writeBytes.Load())
	c[cNetWriteNs] = float64(p.net.writeNs.Load())
	c[cFrames], c[cFlushes] = float64(p.frames.Value()), float64(p.flushes.Value())
	hits, misses := wire.PoolStats()
	c[cPoolHits], c[cPoolMisses] = float64(hits), float64(misses)
	for _, h := range r.d.hosts {
		st := h.ctrl.ControlStats()
		c[cRUDPRequests] += float64(st.RequestsSent)
		c[cRUDPRetransmits] += float64(st.Retransmits)
		if cs, ok := h.ctrl.LocationCacheStats(); ok {
			c[cCacheHits] += float64(cs.Hits)
			c[cCacheLookups] += float64(cs.Hits + cs.Misses)
		}
	}
	return c
}

// hostJiffies reads the aggregate cpu line of /proc/stat: stolen and total
// jiffies since boot. It returns zeros where there is no such file.
func hostJiffies() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line) {
		if i == 0 || i > 8 {
			continue // the label, then guest time already counted in user
		}
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// runSegment runs one segment of length T: a stream slice, an echo slice and
// a control slice, the workload's own one the longest, each between two
// slices of its yardstick.
func (r *runner) runSegment(T time.Duration) (seg segment) {
	w := r.d.w
	steal0, total0 := hostJiffies()
	defer func() {
		steal1, total1 := hostJiffies()
		seg.stolen = ratio(steal1-steal0, total1-total0)
	}()
	for act := 0; act < 3 && r.err == nil; act++ {
		dur := time.Duration(float64(T) * w.share(act))
		own := act == w.own
		before, err := r.y.cost(act, T)
		if err != nil {
			r.fail(err)
			break
		}
		var ms0 runtime.MemStats
		if own && r.mem {
			runtime.ReadMemStats(&ms0)
		}
		snap0 := r.snap()
		cpu0 := cpuMicros()
		t0 := time.Now()
		var ops int64
		switch act {
		case actStream:
			ops = r.streamSlice(dur, &seg)
		case actEcho:
			ops = r.echoSlice(dur, &seg)
		case actControl:
			ops = r.controlSlice(dur, &seg)
		}
		ns := int64(time.Since(t0))
		cpu1 := cpuMicros()
		r.counts[act].addDelta(r.snap(), snap0)
		if act == actStream {
			seg.streamNs = ns
		}
		if own {
			seg.ownOps, seg.ownNs, seg.cpuUs = ops, ns, cpu1-cpu0
			if r.mem {
				var ms1 runtime.MemStats
				runtime.ReadMemStats(&ms1)
				seg.allocBytes, seg.allocs = ms1.TotalAlloc-ms0.TotalAlloc, ms1.Mallocs-ms0.Mallocs
			}
		}
		after, err := r.y.cost(act, T)
		if err != nil {
			r.fail(err)
			break
		}
		seg.yard[act] = math.Sqrt(before * after)
	}
	return seg
}

// ---- stream: closed loop, one sender and one sink per connection ----

func (r *runner) streamSlice(dur time.Duration, seg *segment) int64 {
	sp := r.tr.begin(kStreamSlice, nil, 0)
	defer sp.end()
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	var msgs atomic.Int64
	for _, l := range r.d.links {
		wg.Add(2)
		go func() {
			defer wg.Done()
			n, err := r.streamSend(l, deadline, sp)
			r.attempted.Add(n)
			msgs.Add(n)
			if err != nil {
				r.fail(fmt.Errorf("stream write: %w", err))
			}
		}()
		go func() {
			defer wg.Done()
			if _, _, err := l.atA.recv(r.reader(l.a, kStreamRead, sp), 0); err != nil {
				r.fail(fmt.Errorf("stream read: %w", err))
			}
		}()
	}
	wg.Wait()
	n := msgs.Load()
	seg.streamMsgs = n
	seg.streamBytes = n * int64(r.d.w.size)
	if r.tr != nil {
		r.tracedMsgs += n
	}
	return n
}

// streamSend pushes messages as fast as flow control allows until the
// deadline, then one more flagged last. The clock is read once per batch of
// about 4 KiB so that it does not weigh on 100 B messages.
func (r *runner) streamSend(l *link, deadline time.Time, sp *span) (int64, error) {
	batch := 1 + 4096/l.up.size
	var n int64
	for {
		for i := 0; i < batch; i++ {
			n++
			if err := r.write(l.m, l.up.next(0), kStreamWrite, sp, l.up.sent); err != nil {
				return n, err
			}
		}
		if !time.Now().Before(deadline) {
			break
		}
	}
	n++
	return n, r.write(l.m, l.up.next(flagLast), kStreamWrite, sp, l.up.sent)
}

// ---- echo: closed loop, strict ping-pong on every connection ----

func (r *runner) echoSlice(dur time.Duration, seg *segment) int64 {
	sp := r.tr.begin(kEchoSlice, nil, 0)
	defer sp.end()
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	rtts := make([][]float64, len(r.d.links))
	for i, l := range r.d.links {
		wg.Add(2)
		go func() {
			defer wg.Done()
			var err error
			if rtts[i], err = r.echoClient(l, deadline, sp); err != nil {
				r.fail(fmt.Errorf("echo client: %w", err))
			}
		}()
		go func() {
			defer wg.Done()
			if err := r.echoServer(l, sp); err != nil {
				r.fail(fmt.Errorf("echo server: %w", err))
			}
		}()
	}
	wg.Wait()
	for _, s := range rtts {
		seg.rtts = append(seg.rtts, s...)
	}
	return int64(len(seg.rtts))
}

func (r *runner) echoClient(l *link, deadline time.Time, sp *span) ([]float64, error) {
	var rtts []float64
	var op *span // the round trip in progress, parent of the client's calls
	read := byteReader(l.m.Read)
	if r.tr != nil {
		read = func(p []byte) (int, error) {
			t0 := r.tr.now()
			n, err := l.m.Read(p)
			r.tr.leaf(kEchoRead, op, op.op, t0, false)
			return n, err
		}
	}
	for {
		var flags uint32
		t0 := time.Now()
		if !t0.Before(deadline) {
			flags = flagLast
		}
		r.attempted.Add(1)
		op = r.tr.begin(kEchoRTT, sp, l.up.sent+1)
		if err := r.write(l.m, l.up.next(flags), kEchoWrite, op, l.up.sent); err != nil {
			return rtts, err
		}
		_, got, err := l.atM.recv(read, 1)
		op.end()
		if err != nil {
			return rtts, err
		}
		if got != flags {
			return rtts, fmt.Errorf("reply flags %d, want %d", got, flags)
		}
		if flags&flagLast != 0 {
			return rtts, nil
		}
		rtts = append(rtts, float64(time.Since(t0))/1e3)
	}
}

func (r *runner) echoServer(l *link, sp *span) error {
	read := r.reader(l.a, kEchoRead, sp)
	for {
		_, flags, err := l.atA.recv(read, 1)
		if err != nil {
			return err
		}
		if err := r.write(l.a, l.down.next(flags), kEchoWrite, sp, l.down.sent); err != nil {
			return err
		}
		if flags&flagLast != 0 {
			return nil
		}
	}
}

// ---- control: closed loop, one serial cycle after another ----

func (r *runner) controlSlice(dur time.Duration, seg *segment) int64 {
	sp := r.tr.begin(kControlSlice, nil, 0)
	defer sp.end()
	deadline := time.Now().Add(dur)
	var n int64
	for r.err == nil {
		if err := r.cycle(sp, seg); err != nil {
			r.fail(err)
			break
		}
		n++
		if !time.Now().Before(deadline) {
			break
		}
	}
	if r.tr != nil {
		r.tracedCycles += n
	}
	return n
}

// cycle is one control cycle: the anchor leaves a burst unread on every
// connection, the mover migrates to the next host and accounts for every
// message of it, a third connection is opened, used once and closed, and
// connection 0 is suspended and resumed in place.
func (r *runner) cycle(parent *span, seg *segment) error {
	d := r.d
	r.cycles++
	cy := r.tr.begin(kCycle, parent, r.cycles)
	defer cy.end()

	bursts := make([]int, len(d.links))
	bs := r.tr.begin(kBurst, cy, r.cycles)
	for i, l := range d.links {
		bursts[i] = 6 + r.rng.Intn(5)
		for j := 0; j < bursts[i]; j++ {
			if _, err := l.a.Write(l.burst.next(0)); err != nil {
				return fmt.Errorf("burst write: %w", err)
			}
		}
	}
	bs.end()

	r.attempted.Add(1)
	t0 := time.Now()
	if err := r.migrate(cy, bursts); err != nil {
		return err
	}
	seg.migrate = append(seg.migrate, float64(time.Since(t0))/1e6)

	r.attempted.Add(1)
	t0 = time.Now()
	if err := r.openClose(cy); err != nil {
		return err
	}
	seg.openClose = append(seg.openClose, float64(time.Since(t0))/1e3)
	// The anchor's end finishing is awaited outside the timed unit, to keep
	// the cycle serial.
	if err := <-d.served; err != nil {
		return fmt.Errorf("third connection, anchor side: %w", err)
	}

	r.attempted.Add(1)
	t0 = time.Now()
	sr := r.tr.begin(kSuspendResume, cy, r.cycles)
	su := r.tr.begin(kSuspend, sr, r.cycles)
	err := d.links[0].m.Suspend()
	su.end()
	if err != nil {
		return fmt.Errorf("suspend: %w", err)
	}
	re := r.tr.begin(kResume, sr, r.cycles)
	err = d.links[0].m.Resume()
	re.end()
	sr.end()
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	seg.suspendResume = append(seg.suspendResume, float64(time.Since(t0))/1e3)
	return nil
}

// migrate moves the mover the way the docking system does — PreDepart,
// location update, PostArrive — then re-attaches and reads every message
// that was in flight. It ends when the anchor has read one fresh message
// from the mover on each connection: that is when the anchor stops seeing
// a stall.
func (r *runner) migrate(cy *span, bursts []int) error {
	d := r.d
	from, to := d.hosts[d.moverAt], d.hosts[d.nextHost(r.rng)]
	mg := r.tr.begin(kMigrate, cy, r.cycles)
	defer mg.end()

	sp := r.tr.begin(kPreDepart, mg, r.cycles)
	blob, err := from.ctrl.PreDepart(moverAgent)
	sp.end()
	if err != nil {
		return fmt.Errorf("predepart: %w", err)
	}

	sp = r.tr.begin(kNamingUpdate, mg, r.cycles)
	d.epoch++
	err = d.svc.Update(moverAgent, to.loc(), d.epoch)
	to.ctrl.NoteLocationEpoch(moverAgent, d.epoch)
	sp.end()
	if err != nil {
		return fmt.Errorf("naming update: %w", err)
	}

	sp = r.tr.begin(kPostArrive, mg, r.cycles)
	err = to.ctrl.PostArrive(moverAgent, blob)
	sp.end()
	if err != nil {
		return fmt.Errorf("postarrive: %w", err)
	}
	d.moverAt = to.name

	sp = r.tr.begin(kReattachDrain, mg, r.cycles)
	defer sp.end()
	for i, l := range d.links {
		if l.m, err = to.ctrl.AgentSocket(moverAgent, l.id); err != nil {
			return fmt.Errorf("re-attach: %w", err)
		}
		r.attempted.Add(int64(bursts[i]))
		if _, _, err := l.burstM.recv(l.m.Read, bursts[i]); err != nil {
			return fmt.Errorf("in-flight messages of connection %d: %w", i, err)
		}
	}
	for i, l := range d.links {
		if _, err := l.m.Write(l.ack.next(0)); err != nil {
			return fmt.Errorf("first write after migration: %w", err)
		}
		if _, _, err := l.ackA.recv(l.a.Read, 1); err != nil {
			return fmt.Errorf("first message after migration on connection %d: %w", i, err)
		}
	}
	return nil
}

// openClose is the Table 1 unit: OpenAs, one round trip, Close.
func (r *runner) openClose(cy *span) error {
	d := r.d
	hm := d.hosts[d.moverAt]
	oc := r.tr.begin(kOpenClose, cy, r.cycles)
	defer oc.end()

	sp := r.tr.begin(kOpen, oc, r.cycles)
	s, err := hm.ctrl.OpenAs(moverAgent, hm.cred(moverAgent), anchorAgent)
	sp.end()
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	sp = r.tr.begin(kRoundTrip, oc, r.cycles)
	if _, err = s.Write(d.thirdUp.next(0)); err == nil {
		_, _, err = d.atThird.recv(s.Read, 1)
	}
	sp.end()
	if err != nil {
		s.Close()
		return fmt.Errorf("round trip on the third connection: %w", err)
	}
	sp = r.tr.begin(kClose, oc, r.cycles)
	err = s.Close()
	sp.end()
	if err != nil {
		return fmt.Errorf("close: %w", err)
	}
	return nil
}

// ---- the calls into core on the data path, traced or not ----

// write sends one message; op is its id in the trace, the count of messages
// its flow has sent.
func (r *runner) write(s *core.Socket, m []byte, k kind, parent *span, op uint64) error {
	if r.tr == nil {
		_, err := s.Write(m)
		return err
	}
	t0 := r.tr.now()
	_, err := s.Write(m)
	r.tr.leaf(k, parent, op, t0, false)
	return err
}

func (r *runner) reader(s *core.Socket, k kind, parent *span) byteReader {
	if r.tr == nil {
		return s.Read
	}
	return func(p []byte) (int, error) {
		t0 := r.tr.now()
		n, err := s.Read(p)
		r.tr.leaf(k, parent, 0, t0, false)
		return n, err
	}
}
