package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"naplet/internal/experiments"
)

// setCSVDir points -csv at dir for one test.
func setCSVDir(t *testing.T, dir string) {
	t.Helper()
	old := *csvDir
	*csvDir = dir
	t.Cleanup(func() { *csvDir = old })
}

func TestCSVDirIsCreated(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "not", "yet", "there")
	setCSVDir(t, dir)
	if err := runAll([]string{"fig13"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig13.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "exchange_rate,") {
		t.Fatalf("fig13.csv = %q", data)
	}
}

func TestCSVWriteFailureFailsTheRun(t *testing.T) {
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// A regular file where the directory should be: MkdirAll refuses.
	setCSVDir(t, file)
	if err := runAll([]string{"fig13"}); err == nil {
		t.Fatal("runAll succeeded with -csv naming a regular file")
	}
	// The directory exists but the figure's file cannot be written (a
	// directory already has its name): the write error must surface.
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "fig13.csv"), 0o755); err != nil {
		t.Fatal(err)
	}
	setCSVDir(t, dir)
	if err := run("fig13"); err == nil {
		t.Fatal("run succeeded though fig13.csv could not be written")
	}
}

// TestInvariantViolationFailsTheRun hands run a result that breaks each
// experiment's invariant in turn — no live deployment — and expects the
// error main turns into exit status 1.
func TestInvariantViolationFailsTheRun(t *testing.T) {
	oldWAN, oldNaming, oldC10K := runWANMatrix, runNaming, runC10K
	t.Cleanup(func() { runWANMatrix, runNaming, runC10K = oldWAN, oldNaming, oldC10K })

	wan := &experiments.WANMatrixResult{Cells: []experiments.WANCell{
		{Profile: "metro", Breaks: 2, Broken: 2, Resumed: 2, ResumeRate: 1},
	}}
	naming := &experiments.NamingBenchResult{HitRate: 1, Advances: 7, StormAchieved: 50}
	c10k := &experiments.C10KResult{BaselineGoroutines: 30, SteadyGoroutines: 35}
	runWANMatrix = func(experiments.WANMatrixConfig) (*experiments.WANMatrixResult, error) { return wan, nil }
	runNaming = func(experiments.NamingBenchConfig) (*experiments.NamingBenchResult, error) { return naming, nil }
	runC10K = func(experiments.C10KConfig) (*experiments.C10KResult, error) { return c10k, nil }

	if err := runAll([]string{"wanmatrix", "naming", "c10k"}); err != nil {
		t.Fatalf("healthy results rejected: %v", err)
	}

	wan.Cells[0].TransportLost = 1
	if err := run("wanmatrix"); err == nil || !strings.Contains(err.Error(), "ErrTransportLost") {
		t.Errorf("wanmatrix with a false loss: run = %v", err)
	}
	naming.HitRate = 0.5
	if err := run("naming"); err == nil || !strings.Contains(err.Error(), "hit rate") {
		t.Errorf("naming with a defeated cache: run = %v", err)
	}
	c10k.SteadyGoroutines = 30 + 500
	if err := run("c10k"); err == nil || !strings.Contains(err.Error(), "goroutine growth") {
		t.Errorf("c10k with per-connection goroutines: run = %v", err)
	}
	// runAll stops at the first violation and names the experiment.
	if err := runAll([]string{"c10k", "fig13"}); err == nil || !strings.HasPrefix(err.Error(), "c10k: ") {
		t.Errorf("runAll = %v, want an error naming c10k", err)
	}
}
