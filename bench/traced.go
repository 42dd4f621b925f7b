package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"naplet/internal/metrics"
)

// The traced run. It never produces an end-to-end number. It runs the
// workload twice for a few segments — on a plain deployment as its own
// untraced reference, then on a deployment carrying the probes (counting
// conn, phase breakdowns, metrics registry) with the tracer on — then the
// single-layer loops, and prints the per-layer ledger.
const (
	refSegments    = 2
	tracedSegments = 3
)

// phaseTotals snapshots the three phase breakdowns.
func phaseTotals(p *probes) map[string]time.Duration {
	out := map[string]time.Duration{}
	for op, bd := range map[string]*metrics.Breakdown{"open": p.open, "suspend": p.suspend, "resume": p.resume} {
		for ph, d := range bd.Snapshot() {
			out[op+"."+string(ph)] = d
		}
	}
	return out
}

func runTraced(w workload, o options) (result, error) {
	res := result{Metrics: map[string]value{}, Attempted: 1}
	fail := func(err error) (result, error) {
		res.Failed++
		return res, err
	}
	out := map[string]float64{}

	// 1. Untraced reference on a plain deployment: the rate the tracing
	// overhead is measured against, CPU per op for the ledger, the
	// allocation counts (which the tracer's own bookkeeping would distort)
	// and the demoted end-to-end numbers.
	rng := rand.New(rand.NewSource(o.seed))
	d, err := setUp(w, rng, nil)
	if err != nil {
		return fail(fmt.Errorf("set-up: %w", err))
	}
	ys, err := newYards(w)
	if err != nil {
		d.close()
		return fail(err)
	}
	ref := measure(&runner{d: d, y: ys, rng: rng, mem: true}, o, refSegments)
	d.close()
	ys.close()
	res.Attempted, res.Failed = ref.attempted, ref.failed
	if ref.err != nil {
		return res, ref.err
	}
	var refOps, refNs, refCPU, refBytes, refAllocs float64
	for _, s := range ref.segs {
		refOps += float64(s.ownOps)
		refNs += float64(s.ownNs)
		refCPU += s.cpuUs
		refBytes += float64(s.allocBytes)
		refAllocs += float64(s.allocs)
	}
	out["mem.alloc_B_per_op"] = refBytes / refOps
	out["mem.allocs_per_op"] = refAllocs / refOps
	// The demoted end-to-end numbers, as the untraced run computes them.
	per, _ := perSegment(w, ref.segs)
	for _, m := range ungated {
		out[m.name] = quartiles(per[m.name])[1]
	}

	// 2. The traced pass.
	rng = rand.New(rand.NewSource(o.seed))
	p := newProbes()
	if d, err = setUp(w, rng, p); err != nil {
		return fail(fmt.Errorf("set-up with probes: %w", err))
	}
	r := &runner{d: d, rng: rng, p: p}
	current.Store(d)
	r.runSegment(o.segLen) // warm-up, before the tracer and the counters start
	r.attempted.Store(0)
	r.counts = [3]counters{}
	ph0 := phaseTotals(p)
	tr := newTracer()
	r.tr = tr
	var trOps, trNs float64
	for i := 0; i < tracedSegments && r.err == nil; i++ {
		s := r.runSegment(o.segLen)
		trOps += float64(s.ownOps)
		trNs += float64(s.ownNs)
	}
	ph1 := phaseTotals(p)
	var stalls float64
	if r.err == nil {
		for _, h := range d.hosts {
			for _, info := range h.ctrl.TransportInfos() {
				stalls += float64(info.EventCounts["credit-stall"])
			}
		}
	}
	d.close()
	res.Attempted += r.attempted.Load()
	res.Failed += r.failed.Load()
	if r.err != nil {
		return res, r.err
	}
	out["trace.overhead_frac"] = 1 - (trOps/trNs)/(refOps/refNs)
	out["transport.credit_stalls"] = stalls

	msgs, cycles := float64(r.tracedMsgs), float64(r.tracedCycles)
	sc, cc := r.counts[actStream], r.counts[actControl]
	out["core.write_ns_per_msg"] = tr.perNs(kStreamWrite, msgs)
	out["core.read_ns_per_msg"] = tr.perNs(kStreamRead, msgs)
	out["core.frames_per_flush"] = ratio(sc[cFrames], sc[cFlushes])
	out["core.pool_hit_rate"] = ratio(sc[cPoolHits], sc[cPoolHits]+sc[cPoolMisses])
	for name, k := range map[string]kind{
		"core.open_us": kOpen, "core.close_us": kClose, "core.suspend_us": kSuspend, "core.resume_us": kResume,
		"core.predepart_us": kPreDepart, "core.postarrive_us": kPostArrive, "core.reattach_drain_us": kReattachDrain,
	} {
		out[name] = tr.meanNs(k) / 1e3
	}
	// A cycle opens one connection and suspends and resumes conns+1: each of
	// the mover's connections for the migration, connection 0 once more.
	perCycle := map[string]float64{"open": 1, "suspend": float64(w.conns + 1), "resume": float64(w.conns + 1)}
	for op, phases := range map[string][]metrics.Phase{
		"open": metrics.OpenPhases(), "suspend": metrics.SuspendPhases(), "resume": metrics.ResumePhases(),
	} {
		for _, ph := range phases {
			key := op + "." + string(ph)
			out["core."+key+"_us"] = ratio(float64(ph1[key]-ph0[key])/1e3, cycles*perCycle[op])
		}
	}
	out["net.write_calls_per_msg"] = ratio(sc[cNetWriteCalls], msgs)
	out["net.wire_bytes_per_payload_byte"] = ratio(sc[cNetWriteBytes], msgs*float64(w.size))
	out["rudp.requests_per_cycle"] = ratio(cc[cRUDPRequests], cycles)
	out["rudp.retransmits"] = cc[cRUDPRetransmits]
	out["naming.cache_hit_rate"] = ratio(cc[cCacheHits], cc[cCacheLookups])

	// 3. Single-layer loops.
	budget := o.segLen / 50
	if budget > 40*time.Millisecond {
		budget = 40 * time.Millisecond
	}
	if err := layerLoops(budget, out); err != nil {
		return fail(fmt.Errorf("single-layer loops: %w", err))
	}
	out["mem.rss_peak_mb"] = rssPeakMB()

	path, err := tr.write(o.outDir, w.name)
	if err != nil {
		return fail(fmt.Errorf("writing trace: %w", err))
	}

	fmt.Printf("\nworkload %s, traced: %d reference segments untraced, %d traced; spans in %s\n", w.name, refSegments, tracedSegments, path)
	if w.own == actControl {
		controlLedger(w, tr, out)
	} else {
		rigCPU, err := rigCPUPerOp(w, out["core.frames_per_flush"], rigBudgetFactor*budget)
		if err != nil {
			return fail(fmt.Errorf("transport rig for the ledger: %w", err))
		}
		dataLedger(w, out, refCPU*1e3/refOps, refNs/refOps, rigCPU, ratio(r.counts[w.own][cNetWriteNs], trOps))
	}
	fmt.Printf("\n  per-layer metrics\n")
	names := make([]string, 0, len(out))
	for name := range out {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		unit := layerUnit(name)
		fmt.Printf("  %-44s %14.4f %s\n", name, out[name], unit)
		res.Metrics[name] = value{out[name], unit}
	}
	res.Correct = true
	return res, nil
}

// layerUnit is a demoted end-to-end metric's declared unit and derives a
// per-layer metric's unit from its name.
func layerUnit(name string) string {
	for _, m := range ungated {
		if m.name == name {
			return m.unit
		}
	}
	base := name
	for _, s := range layerSizes {
		base = strings.TrimSuffix(base, "."+s.suffix)
	}
	for _, shape := range []string{".small_clear", ".bulk_enc", ".enc"} {
		base = strings.TrimSuffix(base, shape)
	}
	switch {
	case strings.HasSuffix(base, "_ns") || strings.HasSuffix(base, "_ns_per_msg"):
		return "ns"
	case strings.HasSuffix(base, "_us"):
		return "us"
	case strings.HasSuffix(base, "_ms"):
		return "ms"
	case strings.HasSuffix(base, "_mb"):
		return "MB"
	case strings.HasSuffix(base, "_B_per_op"):
		return "B"
	case strings.HasSuffix(base, "_rate") || strings.HasSuffix(base, "_frac") || strings.HasSuffix(base, "_per_payload_byte"):
		return "ratio"
	default:
		return "count"
	}
}

func rssPeakMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, ln := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(ln, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

type ledgerRow struct {
	layer string
	ns    float64
	how   string
}

func printLedger(title string, rows []ledgerRow, e2e float64, e2eHow string) {
	fmt.Printf("\n  ledger: %s\n", title)
	var sum float64
	for _, row := range rows {
		sum += row.ns
		fmt.Printf("    %-26s %12.0f ns  %5.1f%%  %s\n", row.layer, row.ns, 100*ratio(row.ns, e2e), row.how)
	}
	fmt.Printf("    %-26s %12.0f ns\n", "sum of layers", sum)
	fmt.Printf("    %-26s %12.0f ns          %s\n", "end to end", e2e, e2eHow)
	fmt.Printf("    %-26s %12.0f ns  %5.1f%%\n", "unattributed", e2e-sum, 100*ratio(e2e-sum, e2e))
}

// frameHeader is the bytes core's framing adds to each message (wire's
// frame header).
const frameHeader = 16

// rigCPUPerOp drives the transport-alone rig with what core hands the
// transport for one op of w and returns the process CPU it cost, in ns per
// op. A stream workload's messages reach the transport coalesced, so the rig
// writes framesPerFlush of them per Stream.Write, as measured on the traced
// workload; an echo's message travels alone.
func rigCPUPerOp(w workload, framesPerFlush float64, budget time.Duration) (float64, error) {
	g, err := newRig(w.cleartext)
	if err != nil {
		return 0, err
	}
	defer g.close()
	if w.own == actEcho {
		c, err := g.pingPong(budget, w.size+frameHeader)
		return c.cpuNs, err
	}
	n := max(1, int(framesPerFlush+0.5))
	c, err := g.stream(budget, n*(w.size+frameHeader))
	return c.cpuNs / float64(n), err
}

// dataLedger stacks process CPU per op for a workload whose own op is
// a message or a round trip. Sender and receiver overlap on two cores, so
// only CPU time adds up; wall time per op is printed beside it. The stack is
// nested differences of untraced measurements: wire (core's framing) and
// security (the transport's sealing) alone; the transport-alone rig, which
// carries opaque bytes, minus security; the workload minus the rig and wire.
// So it sums to the end-to-end figure by construction, and what no row can
// hold is printed as what it is: the core-time per op in which the two CPUs
// were not running this process.
func dataLedger(w workload, m map[string]float64, cpuNs, wallNs, rigCPU, netNs float64) {
	size := map[int]string{100: "100", 1 << 10: "1k", 64 << 10: "64k"}[w.size]
	msgsPerOp := 1.0
	if w.own == actEcho {
		msgsPerOp = 2
	}
	wireNs := msgsPerOp * (m["wire.encode_ns."+size] + m["wire.decode_ns."+size])
	var secNs float64
	if !w.cleartext {
		secNs = msgsPerOp * (m["security.seal_ns."+size] + m["security.open_ns."+size])
	}
	rows := []ledgerRow{
		{"wire", wireNs, "encode + decode alone"},
		{"security", secNs, "seal + open alone"},
		{"transport + kernel", rigCPU - secNs, "transport-alone rig, fed as core feeds it, minus security: mux, credit, flusher, reader, TCP"},
		{"core", cpuNs - rigCPU - wireNs, "end-to-end CPU minus the rig's and wire: Write/Read calls, dppool hand-offs, locks, buffers"},
	}
	op := map[int]string{actStream: "message", actEcho: "round trip"}[w.own]
	printLedger(fmt.Sprintf("process CPU ns per %s (%d B, %s)", op, w.size, cipherName(w)), rows, cpuNs,
		"getrusage over the untraced reference segments")
	fmt.Printf("    %-26s %12.0f ns          untraced reference segments\n", "wall per op", wallNs)
	fmt.Printf("    %-26s %12.0f ns          wall x GOMAXPROCS - CPU: core time not running this process\n", "idle per op", 2*wallNs-cpuNs)
	fmt.Printf("    %-26s %12.0f ns          time inside the data conn's Write calls, traced workload (writev defeated)\n", "kernel writes", netNs)
}

// controlLedger stacks wall time per control cycle from the spans: a cycle
// is serial, so span self times add up to it.
func controlLedger(w workload, tr *tracer, m map[string]float64) {
	var rows []ledgerRow
	for _, k := range []kind{kBurst, kPreDepart, kNamingUpdate, kPostArrive, kReattachDrain, kOpen, kRoundTrip, kClose, kSuspend, kResume} {
		layer := strings.TrimPrefix(kindNames[k], "control/")
		rows = append(rows, ledgerRow{layer, tr.selfMeanNs(k), "span"})
	}
	glue := tr.selfMeanNs(kMigrate) + tr.selfMeanNs(kOpenClose) + tr.selfMeanNs(kSuspendResume)
	rows = append(rows, ledgerRow{"bench glue", glue, "self time of the op spans: lookups, verification"})
	title := fmt.Sprintf("wall ns per control cycle (%d connections, %d B, %s)", w.conns, w.size, cipherName(w))
	printLedger(title, rows, tr.meanNs(kCycle), "cycle span; the remainder is the wait for the anchor's end of the third connection")
	fmt.Printf("    of core's time, priced from the single-layer loops:\n")
	fmt.Printf("      rudp       %12.0f ns  %.1f requests per cycle x %.1f us round trip\n",
		m["rudp.requests_per_cycle"]*m["rudp.request_rtt_us"]*1e3, m["rudp.requests_per_cycle"], m["rudp.request_rtt_us"])
	streams := float64(w.conns + 2) // re-opened per cycle: each connection on resume, conn 0 again, the third
	fmt.Printf("      transport  %12.0f ns  %.0f stream opens per cycle x %.1f us warm OpenStream\n",
		streams*m["transport.open_stream_us"]*1e3, streams, m["transport.open_stream_us"])
	fmt.Printf("      dhkx       %12.0f ns  one sign + verify per request (the DH exchange is per transport, not per open)\n",
		m["rudp.requests_per_cycle"]*m["dhkx.sign_verify_ns"])
}
