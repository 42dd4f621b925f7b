package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"naplet/internal/wire"
)

// TestSmallMessageSteadyState is the small-message budget, stated in counts
// rather than wall clock: once a connected pair on cleartext records is warm,
// streaming 100 B messages costs next to no heap allocations and next to no
// payload-pool traffic per message — each message is encoded once into a
// send segment that serves a few hundred messages, and read at a cursor out
// of the segment the transport delivered. The same test is the profiling
// driver behind `make profile-small`.
func TestSmallMessageSteadyState(t *testing.T) {
	const (
		size   = 100
		warmup = 20_000
		msgs   = 200_000
	)
	env := newEnv(t, []string{"h1", "h2"}, func(c *Config) {
		c.DisableTransportEncryption = true
	})
	client, server := env.pair("src", "h1", "sink", "h2")
	defer client.Close()

	stream := func(n int) {
		t.Helper()
		done := make(chan error, 1)
		go func() {
			buf := make([]byte, 64<<10)
			for left := n * size; left > 0; {
				m, err := server.Read(buf[:min(len(buf), left)])
				if err != nil {
					done <- err
					return
				}
				left -= m
			}
			done <- nil
		}()
		msg := make([]byte, size)
		for i := 0; i < n; i++ {
			if _, err := client.Write(msg); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		if err := <-done; err != nil {
			t.Fatalf("read: %v", err)
		}
	}

	stream(warmup)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	hits0, misses0 := wire.PoolStats()
	stream(msgs)
	hits1, misses1 := wire.PoolStats()
	runtime.ReadMemStats(&m1)

	allocs := float64(m1.Mallocs-m0.Mallocs) / msgs
	draws := float64((hits1-hits0)+(misses1-misses0)) / msgs
	t.Logf("%d x %d B: %.4f allocs/msg, %.1f B/msg, one pool draw per %.1f msgs",
		msgs, size, allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/msgs, 1/draws)
	if raceDetector() {
		// The race detector's sync.Pool drops a quarter of what is put into
		// it, on purpose, and the instrumented run batches differently: the
		// counts are not the program's there.
		return
	}
	if allocs > 0.05 {
		t.Errorf("%.3f heap allocations per message, want <= 0.05", allocs)
	}
	if draws > 1.0/32 {
		t.Errorf("one payload-pool draw per %.1f messages, want at most one per 32", 1/draws)
	}
}

// raceDetector reports whether the test binary was built with -race.
func raceDetector() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
