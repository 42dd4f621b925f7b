// Command bench is the repository's one benchmark: four workloads on a live
// loopback deployment of NapletSocket controllers, seven gated end-to-end
// metrics stated in multiples of a plain-TCP yardstick measured beside them,
// the raw times behind them, and — in a separate traced run — a per-layer
// ledger measured from outside the program. README.md has the tables.
//
//	go run ./bench                      every workload, one after another
//	go run ./bench -workload rpc_echo_enc -seconds 5
//	go run ./bench -trace 1             adds the traced run and its ledger
//	go run ./bench -repeat 5            repeatability against the bounds
//
// With -workload it runs that workload in this process and prints, as the
// last line, the JSON result the driver's contract asks for.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"time"
)

type unitMetric struct {
	name, unit string
}

// endToEnd are the gated metrics every untraced run reports, in print order.
// All but setup_s are in multiples ("x") of what the yardstick cost next to
// the slice they were measured in (yard.go): goodput_rel is the yardstick's
// CPU time per message over the stream's wall time per message, the others
// are a time over the yardstick's CPU time per op.
var endToEnd = []unitMetric{
	{"setup_s", "s"},
	{"goodput_rel", "x"},
	{"cpu_rel", "x"},
	{"rtt_p50_rel", "x"},
	{"migrate_p50_rel", "x"},
	{"open_close_p50_rel", "x"},
	{"suspend_resume_p50_rel", "x"},
}

// ungated are the end-to-end numbers that did not repeat within a quarter
// between runs on the bench host (README.md, "Bounds and measured spread"):
// the raw times behind the gated metrics, the yardstick costs they are
// divided by, and the four tails. They are demoted: every untraced run still
// prints them, but they are in the result line of the traced run only, with
// the other ungated metrics.
var ungated = []unitMetric{
	{"goodput_MBps", "MB/s"},
	{"cpu_us_per_op", "us"},
	{"rtt_p50_us", "us"},
	{"migrate_p50_ms", "ms"},
	{"open_close_p50_us", "us"},
	{"suspend_resume_p50_us", "us"},
	{"rtt_p99_us", "us"},
	{"migrate_p95_ms", "ms"},
	{"open_close_p95_us", "us"},
	{"suspend_resume_p95_us", "us"},
	{"yard.stream_cpu_us", "us"},
	{"yard.echo_cpu_us", "us"},
	{"yard.control_cpu_us", "us"},
}

// setups is how many times a run builds the deployment; the last one built
// is the one measured. A set-up takes about 6 or about 12 ms by a race in
// the program (README.md, "What the benchmark found"), half and half, so the
// median of a run's set-ups flips between the two from run to run (spreads
// up to 48 %); setup_s is their first decile, which sits inside the fast
// mode (4-14 %). The host's speed moves set-up time as it moves everything
// else, so a yardstick of a fixed shape (one connection, 1 KiB, AES-256-GCM)
// is sampled for setupYardSlice before the first set-up and after every
// setupYardEvery-th, and setup_s is scaled to a host on which that yardstick
// costs setupYardNominal CPU µs per round trip, as on the bench host left
// alone.
const (
	setups           = 45
	setupYardEvery   = 5
	setupYardSlice   = 20 * time.Millisecond
	setupYardNominal = 11.5
)

type options struct {
	seed     int64
	segments int
	segLen   time.Duration
	trace    bool
	outDir   string
}

// value is one metric as the contract's result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	if len(os.Args) == 3 && os.Args[1] == spinFlag {
		spin(os.Args[2])
	}
	var (
		name     = flag.String("workload", "", "run this one workload in this process (default: all, each in a child process)")
		seed     = flag.Int64("seed", 1, "seed for payload bytes, the mover's host rotation and burst sizes")
		seconds  = flag.Float64("seconds", 25, "measured seconds per run, split into -segments segments")
		segments = flag.Int("segments", 25, "measured segments per run")
		segS     = flag.Float64("segment-s", 0, "seconds per segment (default: -seconds / -segments)")
		trace    = flag.Int("trace", 0, "1: traced run, per-layer metrics and ledger; 0: end-to-end metrics")
		repeat   = flag.Int("repeat", 0, "run the whole set this many times and compare the medians with the bounds in BENCHMARK.json")
		outDir   = flag.String("out", ".bench_build/trace", "directory the traced run writes trace-<workload>.json to")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *segments < 1 || *seconds <= 0 || *segS < 0 {
		fatalf("-segments and -seconds must be positive")
	}
	o := options{seed: *seed, segments: *segments, trace: *trace != 0, outDir: *outDir}
	o.segLen = time.Duration(*seconds / float64(*segments) * float64(time.Second))
	if *segS > 0 {
		o.segLen = time.Duration(*segS * float64(time.Second))
	}

	if *name == "" {
		os.Exit(runAll(o, *repeat))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	// nproc is 2 on the bench host; pinning keeps a bigger host comparable.
	runtime.GOMAXPROCS(2)
	// A lost message or wake-up would leave a reader blocked for ever. The
	// slices are timed, so a run that has taken twice its measured time plus
	// a minute is stuck; say where, and fail.
	// The spinners are main's alone: the tests call runPlain and runTraced,
	// and a test binary could not be re-executed as a spinner.
	awake, err := keepAwake()
	if err != nil {
		fatalf("%v", err)
	}
	limit := 2*time.Duration(o.segments+1)*o.segLen + time.Minute
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "bench: no result after %v: an operation is stuck\n", limit)
		if d := current.Load(); d != nil {
			d.warn.dump(os.Stderr)
		}
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		awake.end()
		os.Exit(2)
	})
	printHost(o, awake.count())
	var res result
	if o.trace {
		res, err = runTraced(w, o)
	} else {
		res, err = runPlain(w, o)
	}
	awake.end()
	watchdog.Stop()
	if err != nil {
		fmt.Printf("\nFAILED: %v\n", err)
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fatalf("encoding result: %v", jerr)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func printHost(o options, spinners int) {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, ln := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(ln, "model name") {
				if _, v, ok := strings.Cut(ln, ":"); ok {
					cpu = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	fmt.Printf("host: cpu=%q nproc=%d GOMAXPROCS=%d go=%s commit=%s network=loopback (TCP data, UDP control)\n",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gitCommit())
	fmt.Printf("run:  seed=%d segments=%d segment=%v setups=%d trace=%v spinners=%d\n", o.seed, o.segments, o.segLen, setups, o.trace, spinners)
}

// gitCommit reads the checked-out commit from .git in the working directory
// without running git; a checkout that is not a repository says so.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "not-a-git-checkout"
	}
	h := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(h, "ref: "); ok {
		b, err := os.ReadFile(".git/" + ref)
		if err != nil {
			return ref
		}
		h = strings.TrimSpace(string(b))
	}
	if len(h) > 12 {
		h = h[:12]
	}
	return h
}

// current is the deployment being measured, for the watchdog's report.
var current atomic.Pointer[deployment]

// measured is one deployment's pass: its segments and its op counts.
type measured struct {
	segs              []segment
	attempted, failed int64
	err               error
}

// measure warms the deployment up for one unmeasured segment (which also
// dials the transports to every host the mover rotates over) and then runs
// the measured segments.
func measure(r *runner, o options, segments int) measured {
	current.Store(r.d)
	r.runSegment(o.segLen)
	// Warm-up ops are not measured ops.
	r.attempted.Store(0)
	var m measured
	for i := 0; i < segments && r.err == nil; i++ {
		if seg := r.runSegment(o.segLen); r.err == nil {
			m.segs = append(m.segs, seg)
		}
	}
	m.attempted, m.failed, m.err = r.attempted.Load(), r.failed.Load(), r.err
	if m.err != nil {
		r.d.warn.dump(os.Stdout)
	}
	return m
}

// perSegment turns the segments of a pass into per-segment statistics, by
// metric name, with the number of samples behind each metric. The relative
// metrics need the yardstick costs and are left out without them.
func perSegment(w workload, segs []segment) (per map[string][]float64, counts map[string]int) {
	per, counts = map[string][]float64{}, map[string]int{}
	add := func(name string, v float64, n int) {
		per[name] = append(per[name], v)
		counts[name] += n
	}
	for i := range segs {
		s := &segs[i]
		cpu := ratio(s.cpuUs, float64(s.ownOps))
		rtt := percentile(s.rtts, 50)
		mig, oc, sr := percentile(s.migrate, 50), percentile(s.openClose, 50), percentile(s.suspendResume, 50)
		add("goodput_MBps", float64(s.streamBytes)/float64(s.streamNs)*1e3, int(s.streamMsgs))
		add("cpu_us_per_op", cpu, int(s.ownOps))
		add("rtt_p50_us", rtt, len(s.rtts))
		add("rtt_p99_us", percentile(s.rtts, 99), len(s.rtts))
		add("migrate_p50_ms", mig, len(s.migrate))
		add("migrate_p95_ms", percentile(s.migrate, 95), len(s.migrate))
		add("open_close_p50_us", oc, len(s.openClose))
		add("open_close_p95_us", percentile(s.openClose, 95), len(s.openClose))
		add("suspend_resume_p50_us", sr, len(s.suspendResume))
		add("suspend_resume_p95_us", percentile(s.suspendResume, 95), len(s.suspendResume))
		y := s.yard
		if y[w.own] == 0 {
			continue
		}
		add("yard.stream_cpu_us", y[actStream], 1)
		add("yard.echo_cpu_us", y[actEcho], 1)
		add("yard.control_cpu_us", y[actControl], 1)
		add("goodput_rel", y[actStream]/(float64(s.streamNs)/1e3/float64(s.streamMsgs)), int(s.streamMsgs))
		add("cpu_rel", cpu/y[w.own], int(s.ownOps))
		add("rtt_p50_rel", rtt/y[actEcho], len(s.rtts))
		add("migrate_p50_rel", mig*1e3/y[actControl], len(s.migrate))
		add("open_close_p50_rel", oc/y[actControl], len(s.openClose))
		add("suspend_resume_p50_rel", sr/y[actControl], len(s.suspendResume))
	}
	return per, counts
}

// runPlain is the untraced run: the only source of the gated numbers.
func runPlain(w workload, o options) (result, error) {
	rng := rand.New(rand.NewSource(o.seed))
	res := result{Metrics: map[string]value{}, Attempted: 1}
	fail := func(err error) (result, error) {
		res.Failed = max(res.Failed, 1)
		return res, err
	}
	ys, err := newYards(w)
	if err != nil {
		return fail(err)
	}
	defer ys.close()
	setupYard, err := newYard(1, 1<<10, false)
	if err != nil {
		return fail(err)
	}
	defer setupYard.close()

	var d *deployment
	var setupS, setupYards []float64
	for i := 0; i < setups; i++ {
		if i%setupYardEvery == 0 {
			c, err := setupYard.echo(setupYardSlice)
			if err != nil {
				return fail(err)
			}
			setupYards = append(setupYards, c)
		}
		if d != nil {
			d.close()
		}
		t0 := time.Now()
		if d, err = setUp(w, rng, nil); err != nil {
			return fail(fmt.Errorf("set-up: %w", err))
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	c, err := setupYard.echo(setupYardSlice)
	if err != nil {
		d.close()
		return fail(err)
	}
	setupYards = append(setupYards, c)

	m := measure(&runner{d: d, y: ys, rng: rng}, o, o.segments)
	d.close()
	res.Attempted, res.Failed = max(m.attempted, 1), m.failed
	if m.err != nil {
		return res, m.err
	}

	per, counts := perSegment(w, m.segs)
	per["setup_raw_s"], counts["setup_raw_s"] = setupS, len(setupS)
	per["yard.setup_cpu_us"], counts["yard.setup_cpu_us"] = setupYards, len(setupYards)
	decile := percentile(append([]float64(nil), setupS...), 10)
	per["setup_s"], counts["setup_s"] = []float64{decile * setupYardNominal / quartiles(setupYards)[1]}, len(setupS)

	fmt.Printf("\nworkload %s: %d connection(s), %d B messages, %s, closed loop\n", w.name, w.conns, w.size, cipherName(w))
	fmt.Printf("  each segment: %.0f%% %s (its own: cpu_rel and the op counts are taken there), %.0f%% each of the two other activities, six yardstick slices of %.1f%%\n",
		w.share(w.own)*100, actNames[w.own], w.share((w.own+1)%3)*100, yardShare*100)
	fmt.Printf("  ops attempted %d, failed %d; every message verified in order, exactly once, byte for byte\n", m.attempted, m.failed)
	stolen := make([]float64, len(m.segs))
	for i := range m.segs {
		stolen[i] = 100 * m.segs[i].stolen
	}
	fmt.Printf("  CPU stolen by the hypervisor per segment (%%): %s\n", fmtVals(stolen))
	fmt.Printf("  %-24s %-5s %12s %12s %12s %9s  per-segment values\n", "metric", "unit", "median", "q1", "q3", "samples")
	rows := append(append([]unitMetric(nil), endToEnd...), ungated...)
	rows = append(rows, unitMetric{"setup_raw_s", "s"}, unitMetric{"yard.setup_cpu_us", "us"})
	for i, em := range rows {
		vals := per[em.name]
		q := quartiles(vals)
		note := ""
		if gated := i < len(endToEnd); gated {
			res.Metrics[em.name] = value{q[1], em.unit}
		} else {
			note = "  (not gated)"
		}
		fmt.Printf("  %-24s %-5s %12.4f %12.4f %12.4f %9d  %s%s\n", em.name, em.unit, q[1], q[0], q[2], counts[em.name], fmtVals(vals), note)
	}
	res.Correct = true
	return res, nil
}

func cipherName(w workload) string {
	if w.cleartext {
		return "cleartext records"
	}
	return "AES-256-GCM records"
}

func fmtVals(vs []float64) string {
	var b strings.Builder
	for i, v := range vs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.4g", v)
	}
	return b.String()
}

// ---- every workload, each in its own process ----

// runAll re-executes this binary once per workload (fresh heap, its own CPU
// and RSS accounting) and, with repeat > 1, compares the medians of the
// repeats with the bounds BENCHMARK.json fixes.
func runAll(o options, repeat int) int {
	exe, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	rounds := repeat
	if rounds < 1 {
		rounds = 1
	}
	// vals[workload][metric] holds one value per round.
	vals := map[string]map[string][]float64{}
	status := 0
	for round := 0; round < rounds; round++ {
		for _, w := range workloads {
			traces := []int{0}
			if o.trace {
				traces = append(traces, 1)
			}
			for _, tr := range traces {
				args := []string{
					"-workload", w.name,
					"-seed", fmt.Sprint(o.seed + int64(round)),
					"-segments", fmt.Sprint(o.segments),
					"-segment-s", fmt.Sprint(o.segLen.Seconds()),
					"-trace", fmt.Sprint(tr),
					"-out", o.outDir,
				}
				fmt.Printf("\n==== round %d/%d: %s trace=%d ====\n", round+1, rounds, w.name, tr)
				res, err := runChild(exe, args)
				if err != nil {
					fmt.Printf("%s: %v\n", w.name, err)
					status = 1
					continue
				}
				if vals[w.name] == nil {
					vals[w.name] = map[string][]float64{}
				}
				for name, v := range res.Metrics {
					vals[w.name][name] = append(vals[w.name][name], v.Value)
				}
			}
		}
	}
	if repeat > 1 {
		if !printRepeat(vals) {
			status = 1
		}
	} else {
		printSummary(vals)
	}
	return status
}

// runChild runs one workload in a child process, passes its report through,
// and decodes the result line.
func runChild(exe string, args []string) (result, error) {
	var res result
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return res, err
	}
	if err := cmd.Start(); err != nil {
		return res, err
	}
	var last string
	sc := bufio.NewScanner(out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	runErr := cmd.Wait()
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		fmt.Println(last)
		return res, fmt.Errorf("no result line (%v)", runErr)
	}
	if runErr != nil || !res.Correct {
		return res, fmt.Errorf("failed: %d of %d ops (%v)", res.Failed, res.Attempted, runErr)
	}
	return res, nil
}

func printSummary(vals map[string]map[string][]float64) {
	fmt.Printf("\n==== summary: end-to-end metrics, untraced runs ====\n")
	fmt.Printf("%-24s", "metric")
	for _, w := range workloads {
		fmt.Printf(" %20s", w.name)
	}
	fmt.Println()
	for _, em := range endToEnd {
		fmt.Printf("%-24s", em.name+" ("+em.unit+")")
		for _, w := range workloads {
			if v := vals[w.name][em.name]; len(v) > 0 {
				fmt.Printf(" %20.4f", v[0])
			} else {
				fmt.Printf(" %20s", "-")
			}
		}
		fmt.Println()
	}
}

// bounds reads the end-to-end bounds from BENCHMARK.json in the working
// directory, the one place they are fixed.
func bounds() (map[string]float64, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("%w (run from the repository root)", err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// printRepeat prints, per metric per workload, the medians of the rounds,
// their spread — (q3 - q1) / median, the statistic the driver applies and the
// bounds were calibrated on — and whether it is within the bound. It reports
// whether every gated metric was.
func printRepeat(vals map[string]map[string][]float64) bool {
	bound, err := bounds()
	if err != nil {
		fmt.Printf("\nrepeatability: %v\n", err)
		return false
	}
	fmt.Printf("\n==== repeatability: run medians against the bounds in BENCHMARK.json ====\n")
	fmt.Printf("%-20s %-24s %8s %8s %-8s  medians\n", "workload", "metric", "spread", "bound", "")
	all := true
	for _, w := range workloads {
		for _, em := range endToEnd {
			v := vals[w.name][em.name]
			if len(v) == 0 {
				continue
			}
			q := quartiles(v)
			spread := (q[2] - q[0]) / q[1]
			verdict := "within"
			if spread > bound[em.name] {
				verdict = "outside"
				all = false
			}
			fmt.Printf("%-20s %-24s %7.1f%% %7.1f%% %-8s  %s\n", w.name, em.name, spread*100, bound[em.name]*100, verdict, fmtVals(v))
		}
	}
	return all
}
