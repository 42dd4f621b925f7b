//go:build !unix

package main

import "runtime"

// Without getrusage there is no process CPU time for cpu_us_per_op. The
// package builds here so that `go build ./...` does; the benchmark refuses
// to run.
func cpuMicros() float64 {
	fatalf("no getrusage on %s: the benchmark runs on unix hosts", runtime.GOOS)
	return 0
}
