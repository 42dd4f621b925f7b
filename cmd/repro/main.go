// Command repro regenerates the tables and figures of the paper's
// evaluation (Sections 4 and 5) from the live NapletSocket implementation
// and the Section 5 model.
//
// Usage:
//
//	repro [flags] <experiment>...
//
// Experiments: table1, suspres, fig7, fig8, fig9, fig10a, fig10b, fig12a,
// fig12b, fig13, motivation, wan, wanmatrix, ablations, naming, c10k, all.
//
// wanmatrix, naming and c10k also check the invariants their results must
// satisfy on any machine (every break resumed with no false loss verdict,
// the location cache holding its hit rate through the storm, goroutine
// growth independent of the connection count); repro exits 1 when one is
// violated. Performance regressions are judged by the benchmark
// (BENCHMARK.json, `go run ./bench`), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"naplet/internal/experiments"
	"naplet/internal/netem"
)

var (
	iters  = flag.Int("iters", 100, "iterations for latency experiments (table1, suspres, fig8)")
	quick  = flag.Bool("quick", false, "smaller volumes, sweeps and populations for a fast pass")
	seed   = flag.Int64("seed", 1, "seed for the Section 5 simulations")
	charts = flag.Bool("chart", true, "render ASCII charts for the figures")
	csvDir = flag.String("csv", "", "directory to write per-figure CSV files into (created if missing)")
)

// The three experiments whose results carry invariants, as variables so the
// test can hand run a result that violates them.
var (
	runWANMatrix = experiments.RunWANMatrix
	runNaming    = experiments.RunNamingBench
	runC10K      = experiments.RunC10K
)

// figure prints one figure's table and chart, and writes its CSV when -csv
// is set.
func figure(name, table, chart, csv string) error {
	fmt.Print(table)
	if *charts {
		fmt.Print(chart)
	}
	if *csvDir == "" {
		return nil
	}
	path := filepath.Join(*csvDir, name+".csv")
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		return err
	}
	fmt.Printf("(csv: %s)\n", path)
	return nil
}

func main() {
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() == 0 {
		usage()
		os.Exit(2)
	}
	if err := runAll(flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "repro %v\n", err)
		os.Exit(1)
	}
}

// runAll runs the named experiments in order and stops at the first one
// that fails, whether it could not run, could not write its CSV, or
// produced a result that violates its invariants.
func runAll(args []string) error {
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fmt.Errorf("-csv: %w", err)
		}
	}
	var list []string
	for _, a := range args {
		if a == "all" {
			list = []string{"table1", "suspres", "fig7", "fig8", "fig9", "fig10a", "fig10b", "fig12a", "fig12b", "fig13", "motivation", "wan", "wanmatrix", "ablations", "naming", "c10k"}
			break
		}
		list = append(list, strings.ToLower(a))
	}
	for _, name := range list {
		if err := run(name); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: repro [flags] <experiment>...

experiments:
  table1   Table 1: open/close latency (TCP, NapletSocket w/o and w/ security)
  suspres  Section 4.2: suspend/resume cost vs close+reopen
  fig7     Figure 7: reliable-delivery message trace across migrations
  fig8     Figure 8: breakdown of the connection-open latency
  fig9     Figure 9: TTCP throughput vs message size (TCP vs NapletSocket)
  fig10a   Figure 10(a): effective throughput vs agent service time
  fig10b   Figure 10(b): effective throughput vs migration hops
  fig12a   Figure 12(a): simulated migration cost, high-priority agent
  fig12b   Figure 12(b): simulated migration cost, low-priority agent
  fig13    Figure 13: connection-migration overhead vs message exchange rate
  motivation  Section 1: round trip over NapletSocket vs the PostOffice mailbox
  wan      Table 1/§4.2 latencies under emulated network delay (1/5/10 ms one-way)
  wanmatrix break recovery/keepalive robustness under the named WAN profiles (lan..lossy-cell)
  ablations design-choice ablations (handoff, control transport, failure-resume)
  naming   sharded location-service lookups under a migration storm (cached vs direct)
  c10k     connection storm: 100k connections, a 10k-connection migration wave
  all      everything above

wanmatrix, naming and c10k exit 1 when their result violates an invariant.

flags:
`)
	flag.PrintDefaults()
}

func header(title string) {
	fmt.Printf("==== %s ====\n", title)
}

func run(name string) error {
	start := time.Now()
	defer func() { fmt.Printf("(%s: %v)\n\n", name, time.Since(start).Round(time.Millisecond)) }()
	n := *iters
	if *quick && n > 20 {
		n = 20
	}
	switch name {
	case "table1":
		header("Table 1: latency to open/close a connection")
		res, err := experiments.RunTable1(n)
		if err != nil {
			return err
		}
		fmt.Print(res.Table())

	case "suspres":
		header("Section 4.2: suspend/resume vs close+reopen")
		res, err := experiments.RunSuspendResume(n)
		if err != nil {
			return err
		}
		fmt.Print(res.Table())

	case "fig7":
		header("Figure 7: reliable communication message trace")
		res, err := experiments.RunFig7(40, time.Millisecond, []int{10, 20, 30})
		if err != nil {
			return err
		}
		fmt.Print(res.Table())
		fmt.Println(res.Summary())

	case "fig8":
		header("Figure 8: breakdown of the latency to open a connection")
		res, err := experiments.RunFig8(n)
		if err != nil {
			return err
		}
		fmt.Print(res.Table())

	case "fig9":
		header("Figure 9: throughput of NapletSocket vs TCP socket")
		total := int64(16 << 20)
		if *quick {
			total = 2 << 20
		}
		res, err := experiments.RunFig9(experiments.DefaultFig9Sizes(), total)
		if err != nil {
			return err
		}
		if err := figure("fig9", res.Table(), res.Chart(), res.CSV()); err != nil {
			return err
		}
		fmt.Println("\nwith AES-256-GCM record layer:")
		enc, err := experiments.RunFig9Encrypted(experiments.DefaultFig9Sizes(), total)
		if err != nil {
			return err
		}
		return figure("fig9_encrypted", enc.Table(), "", enc.CSV())

	case "fig10a":
		header("Figure 10(a): effective throughput vs migration frequency (single migration)")
		services := experiments.DefaultFig10aServices()
		if *quick {
			services = services[:4]
		}
		res, err := experiments.RunFig10a(services, 3, 2048, 40*time.Millisecond)
		if err != nil {
			return err
		}
		return figure("fig10a", res.Table(), res.Chart(), res.CSV())

	case "fig10b":
		header("Figure 10(b): effective throughput vs migration hops")
		hops := 7
		if *quick {
			hops = 3
		}
		res, err := experiments.RunFig10b(hops, 150*time.Millisecond, 2048, 40*time.Millisecond)
		if err != nil {
			return err
		}
		return figure("fig10b", res.Table(), res.Chart(), res.CSV())

	case "fig12a", "fig12b":
		migrations := 20000
		if *quick {
			migrations = 4000
		}
		res := experiments.RunFig12(nil, nil, migrations, *seed)
		if name == "fig12a" {
			header("Figure 12(a): connection migration cost, high-priority agent")
			return figure("fig12a", res.TableHigh(), res.ChartHigh(), res.CSVHigh())
		}
		header("Figure 12(b): connection migration cost, low-priority agent")
		return figure("fig12b", res.TableLow(), res.ChartLow(), res.CSVLow())

	case "fig13":
		header("Figure 13: connection migration overhead vs message exchange rate")
		res := experiments.RunFig13(nil, nil)
		return figure("fig13", res.Table(), res.Chart(), res.CSV())

	case "wan":
		header("Emulated-network latencies (paper's absolute regime)")
		for _, oneWay := range []time.Duration{time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond} {
			w, err := experiments.RunWAN(oneWay, n/4+3)
			if err != nil {
				return err
			}
			fmt.Print(w.Table())
			fmt.Println()
		}

	case "wanmatrix":
		header("WAN scenario matrix: connection recovery under break/migrate chaos per netem profile")
		cfg := experiments.WANMatrixConfig{}
		if *quick {
			cfg.Profiles = []netem.Profile{netem.ProfileMetro, netem.ProfileIntercontinental}
			cfg.Breaks = 2
		}
		res, err := runWANMatrix(cfg)
		if err != nil {
			return err
		}
		fmt.Print(res.Table())
		return res.Check()

	case "motivation":
		header("Motivation (Section 1): synchronous transient vs asynchronous persistent")
		m, err := experiments.RunMotivation(n * 2)
		if err != nil {
			return err
		}
		fmt.Print(m.Table())

	case "ablations":
		header("Ablation: socket handoff vs query-then-connect (paper §3.4)")
		h, err := experiments.RunAblationHandoff(n)
		if err != nil {
			return err
		}
		fmt.Print(h.Table())
		header("Ablation: control channel transport (paper §3.5)")
		c, err := experiments.RunAblationControl(n * 2)
		if err != nil {
			return err
		}
		fmt.Print(c.Table())
		header("Ablation: failure-resume extension (paper §7 future work)")
		f, err := experiments.RunAblationFailure(5)
		if err != nil {
			return err
		}
		fmt.Print(f.Table())

	case "naming":
		header("Naming control plane: sharded-cluster lookups under a migration storm")
		cfg := experiments.NamingBenchConfig{}
		if *quick {
			cfg.Agents = 1000
			cfg.Duration = time.Second
		}
		res, err := runNaming(cfg)
		if err != nil {
			return err
		}
		fmt.Print(res.Table())
		return res.Check()

	case "c10k":
		header("Connection storm: per-connection footprint and a migration wave")
		cfg := experiments.C10KConfig{}
		if *quick {
			cfg.Conns = 10_000
			cfg.Wave = 1_000
		}
		res, err := runC10K(cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Summary())
		return res.Check()

	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}
