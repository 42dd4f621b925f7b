// Command napletsim runs the Section 5 performance model of the paper: a
// discrete-event simulation of two connected mobile agents migrating with
// exponentially distributed service times, reporting connection migration
// costs by priority class and episode mix — plus the analytic overhead
// model of Figure 13.
//
// Examples:
//
//	napletsim -mean-a 500 -ratio 3          # one simulation point
//	napletsim -sweep                        # the full Figure 12 sweep
//	napletsim -overhead -lambda 50 -r 5     # one Figure 13 point
package main

import (
	"flag"
	"fmt"
	"os"

	"naplet/internal/experiments"
	"naplet/internal/model"
)

var (
	meanA      = flag.Float64("mean-a", 500, "agent A mean service time (ms)")
	ratio      = flag.Float64("ratio", 1, "migration rate ratio µb/µa")
	migrations = flag.Int("migrations", 20000, "migrations to simulate per agent")
	seed       = flag.Int64("seed", 1, "random seed")
	sweep      = flag.Bool("sweep", false, "run the full Figure 12 sweep")
	overhead   = flag.Bool("overhead", false, "evaluate the Figure 13 overhead model")
	lambda     = flag.Float64("lambda", 10, "message exchange rate for -overhead")
	rRel       = flag.Float64("r", 1, "relative message exchange rate r = λ/µ for -overhead")
)

func main() {
	flag.Parse()
	p := model.PaperParams()
	switch {
	case *sweep:
		res := experiments.RunFig12(nil, nil, *migrations, *seed)
		fmt.Println("Figure 12(a): high-priority agent connection migration cost")
		fmt.Print(res.TableHigh())
		fmt.Println()
		fmt.Println("Figure 12(b): low-priority agent connection migration cost")
		fmt.Print(res.TableLow())

	case *overhead:
		fmt.Printf("overhead(λ=%g, r=%g) = %.3f\n", *lambda, *rRel, p.Overhead(*lambda, *rRel))

	default:
		if *meanA <= 0 || *ratio <= 0 {
			fmt.Fprintln(os.Stderr, "napletsim: -mean-a and -ratio must be positive")
			os.Exit(2)
		}
		res := model.Simulate(model.SimConfig{
			Params:       p,
			MeanServiceA: *meanA,
			MeanServiceB: *meanA / *ratio,
			Migrations:   *migrations,
			Seed:         *seed,
		})
		fmt.Printf("params: T_control=%.1fms T_suspend=%.1fms T_resume=%.1fms T_a-migrate=%.1fms\n",
			p.TControl, p.TSuspend, p.TResume, p.TAMigrate)
		fmt.Printf("mean service: A=%.0fms B=%.0fms (µb/µa=%.2f), %d migrations/agent, seed %d\n",
			*meanA, *meanA / *ratio, *ratio, *migrations, *seed)
		fmt.Printf("mean connection migration cost: high-priority %.1fms, low-priority %.1fms (single pattern: %.1fms)\n",
			res.MeanCostHigh, res.MeanCostLow, p.SingleCost())
		total := res.Singles + res.Overlapped + res.NonOverlapped
		fmt.Printf("episode mix: %d single, %d overlapped, %d non-overlapped (of %d)\n",
			res.Singles, res.Overlapped, res.NonOverlapped, total)
	}
}
