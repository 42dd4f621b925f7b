package experiments

import (
	"strings"
	"testing"
)

// TestC10KSmall runs the connection storm at a few hundred connections:
// RunC10K fails unless every swept connection re-enters ESTABLISHED and the
// post-wave round trip succeeds, and Check holds goroutine growth to the
// O(1) ceiling — which a per-connection goroutine breaks at this size
// already. No wall-clock quantity is asserted.
func TestC10KSmall(t *testing.T) {
	res, err := RunC10K(C10KConfig{Conns: 500, Wave: 50, ConnsPerAgent: 50})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.Summary())
	if res.Agents != 10 {
		t.Fatalf("Agents = %d, want 10", res.Agents)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestC10KCheckRejectsPerConnGoroutines(t *testing.T) {
	res := &C10KResult{
		Config:             C10KConfig{Conns: 500},
		BaselineGoroutines: 40,
		SteadyGoroutines:   40 + MaxC10KGoroutineGrowth + 1,
	}
	if err := res.Check(); err == nil || !strings.Contains(err.Error(), "goroutine growth") {
		t.Fatalf("Check() = %v, want a goroutine-growth violation", err)
	}
	res.SteadyGoroutines--
	if err := res.Check(); err != nil {
		t.Fatalf("Check() at the ceiling = %v", err)
	}
}
