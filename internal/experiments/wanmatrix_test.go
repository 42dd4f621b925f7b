package experiments

import (
	"strings"
	"testing"

	"naplet/internal/netem"
)

// TestWANMatrixMetro runs the full chaos scenario on the metro profile:
// cheap enough for the unit suite, while still covering the break/resume
// loop, the live migration, and the throughput leg end to end.
func TestWANMatrixMetro(t *testing.T) {
	res, err := RunWANMatrix(WANMatrixConfig{
		Profiles:        []netem.Profile{netem.ProfileMetro},
		Breaks:          2,
		ThroughputBytes: 64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 {
		t.Fatalf("got %d cells, want 1", len(res.Cells))
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	c := res.Cells[0]
	if c.ResumeP99Ms <= 0 {
		t.Fatal("no resume latency samples recorded")
	}
	if c.ThroughputMbps <= 0 {
		t.Fatal("throughput leg measured nothing")
	}
	if !strings.Contains(res.Table(), "metro") {
		t.Fatalf("table missing profile row:\n%s", res.Table())
	}
}

// TestWANMatrixCheck pins what Check rejects, on synthetic cells.
func TestWANMatrixCheck(t *testing.T) {
	ok := &WANMatrixResult{Cells: []WANCell{
		{Profile: "metro", Breaks: 4, Broken: 8, Resumed: 9, ResumeRate: 1},
	}}
	if err := ok.Check(); err != nil {
		t.Fatalf("Check(ok) = %v", err)
	}
	cases := []struct {
		name string
		cell WANCell
		want string
	}{
		{"dropped resume", WANCell{Profile: "metro", Breaks: 4, Broken: 4, ResumeRate: 0.75}, "not every break resumed"},
		{"unseen break", WANCell{Profile: "metro", Breaks: 4, Broken: 3, ResumeRate: 1}, "not every break resumed"},
		{"false lost", WANCell{Profile: "metro", ResumeRate: 1, TransportLost: 1}, "ErrTransportLost"},
		{"false keepalive", WANCell{Profile: "metro", ResumeRate: 1, KeepaliveTimeouts: 1}, "keepalive timeouts"},
	}
	for _, tc := range cases {
		err := (&WANMatrixResult{Cells: []WANCell{ok.Cells[0], tc.cell}}).Check()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Check() = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}
