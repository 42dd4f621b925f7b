//go:build !linux

package main

// The spinners (awake.go) counter a Linux guest's halting vCPUs with Linux
// system calls; elsewhere the benchmark runs without them.

const spinFlag = "-spin-child"

type spinners struct{}

func spin(string) {}

func (*spinners) end() {}

func (*spinners) count() int { return 0 }

func keepAwake() (*spinners, error) { return nil, nil }
