#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from source inside
# the checkout and run it with the arguments given. `go run ./bench` does the
# same for a person at a terminal; this wrapper exists so that an unattended
# run leaves nothing outside the checkout — the Go build cache and temporary
# files go under .bench_build/, next to the binary and the trace files.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
# where the go command keeps its env file and telemetry counters
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
# In a config directory it has not seen, the go command starts a telemetry
# sidecar in a session of its own that outlives it: a process left running
# after the run. The mode file is how telemetry is turned off.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/napletbench" ./bench
exec "$build/napletbench" "$@"
