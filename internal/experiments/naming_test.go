package experiments

import (
	"strings"
	"testing"
	"time"
)

// TestNamingBenchSmoke runs the naming benchmark at a small population
// and short windows — enough to exercise the cluster bring-up, the
// registration pool, the storm, and both lookup phases, and to check the
// invariants `repro naming` exits on.
func TestNamingBenchSmoke(t *testing.T) {
	res, err := RunNamingBench(NamingBenchConfig{
		Agents:    200,
		StormRate: 50,
		Duration:  400 * time.Millisecond,
		Workers:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Table())
	if res.CachedPerSec <= 0 || res.DirectPerSec <= 0 {
		t.Fatalf("empty measurement: %+v", res)
	}
	if err := res.Check(); err != nil {
		t.Error(err)
	}
}

// TestNamingCheck pins what Check rejects, on synthetic results.
func TestNamingCheck(t *testing.T) {
	ok := NamingBenchResult{HitRate: 0.95, Advances: 10, StormAchieved: 50}
	if err := ok.Check(); err != nil {
		t.Fatalf("Check(ok) = %v", err)
	}
	cases := []struct {
		name string
		res  NamingBenchResult
		want string
	}{
		{"no storm", NamingBenchResult{HitRate: 1, Advances: 10}, "no migrations"},
		{"no piggyback", NamingBenchResult{HitRate: 1, StormAchieved: 50}, "no cache advances"},
		{"cache defeated", NamingBenchResult{HitRate: 0.89, Advances: 10, StormAchieved: 50}, "hit rate"},
	}
	for _, tc := range cases {
		if err := tc.res.Check(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Check() = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}
