package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"naplet/internal/metrics"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Inc()
	c.Add(4)
	if got := r.Counter("x").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("y")
	g.Set(2.5)
	g.Add(-1)
	if got := r.Gauge("y").Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	r.Func("z", func() float64 { return 42 })
	snap := r.Snapshot()
	if snap.Counters["x"] != 5 || snap.Gauges["y"] != 1.5 || snap.Gauges["z"] != 42 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.Gauge("b").Set(1)
	r.Func("c", func() float64 { return 1 })
	r.Histogram("d").Observe(1)
	if n := r.Histogram("d").Count(); n != 0 {
		t.Fatalf("nil histogram count = %d", n)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 {
		t.Fatalf("nil snapshot = %+v", snap)
	}
	var l *Logger
	l.Infof("dropped")
	l.With("k", "v").Errorf("dropped")
	if l.Enabled(LevelError) {
		t.Fatal("nil logger claims enabled")
	}
}

// TestHistogramQuantileOracle checks the histogram's percentile math
// against metrics.Series (exact nearest-rank) as the oracle: every
// reported quantile must be within one bucket growth factor of the exact
// value, and min/max must be exact.
func TestHistogramQuantileOracle(t *testing.T) {
	// Deterministic pseudo-random samples spanning several decades.
	seed := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		// Map into (0, ~4000) ms with a long tail.
		u := float64(seed%1_000_000) / 1_000_000
		return math.Exp(u*10) / 5.5
	}
	h := &Histogram{}
	s := metrics.NewSeries()
	for i := 0; i < 5000; i++ {
		v := next()
		h.Observe(v)
		s.Add(v)
	}
	if h.Count() != uint64(s.N()) {
		t.Fatalf("count %d != %d", h.Count(), s.N())
	}
	for _, p := range []float64{1, 10, 25, 50, 75, 90, 95, 99, 99.9} {
		exact := s.Percentile(p)
		got := h.Quantile(p)
		if got < exact || got > exact*histGrowth {
			t.Errorf("p%v = %v, exact %v (allowed [%v, %v])", p, got, exact, exact, exact*histGrowth)
		}
	}
	if got := h.Quantile(0); got != s.Min() {
		t.Errorf("min = %v, want %v", got, s.Min())
	}
	if got := h.Quantile(100); got != s.Max() {
		t.Errorf("max = %v, want %v", got, s.Max())
	}
	snap := h.snapshot()
	if math.Abs(snap.Mean-s.Mean()) > 1e-9*s.Mean() {
		t.Errorf("mean = %v, want %v", snap.Mean, s.Mean())
	}
}

func TestHistogramSmallAndEdge(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(50) != 0 {
		t.Fatal("empty quantile != 0")
	}
	h.ObserveDuration(3 * time.Millisecond)
	for _, p := range []float64{0, 50, 99, 100} {
		if got := h.Quantile(p); got != 3 {
			t.Fatalf("single-sample p%v = %v, want 3", p, got)
		}
	}
	// Negative and sub-resolution samples land in the first bucket.
	h2 := &Histogram{}
	h2.Observe(-5)
	h2.Observe(1e-9)
	if h2.Count() != 2 || h2.Quantile(100) != 1e-9 {
		t.Fatalf("edge samples: count=%d max=%v", h2.Count(), h2.Quantile(100))
	}
}

func TestHistogramAllEqualSamples(t *testing.T) {
	// Every quantile of a constant series is that constant: the bucketed
	// estimate must return the exact tracked min/max, not a bucket bound.
	h := &Histogram{}
	for i := 0; i < 1000; i++ {
		h.Observe(37.5)
	}
	for _, p := range []float64{0, 1, 50, 95, 99, 99.9, 100} {
		if got := h.Quantile(p); got != 37.5 {
			t.Errorf("all-equal p%v = %v, want 37.5", p, got)
		}
	}
	snap := h.snapshot()
	if snap.Min != 37.5 || snap.Max != 37.5 || snap.Mean != 37.5 {
		t.Errorf("all-equal snapshot = %+v", snap)
	}

	// Empty series: every field and quantile is zero.
	empty := (&Histogram{}).snapshot()
	if empty.Count != 0 || empty.Min != 0 || empty.Max != 0 ||
		empty.Mean != 0 || empty.P50 != 0 || empty.P99 != 0 {
		t.Errorf("empty snapshot = %+v", empty)
	}
	if got := (&Histogram{}).Quantile(99.9); got != 0 {
		t.Errorf("empty p99.9 = %v", got)
	}
}

// TestRegistrySnapshotDuringWrites hammers one registry with concurrent
// instrument registration, updates, and Snapshot/WritePrometheus readers;
// the race detector is the assertion.
func TestRegistrySnapshotDuringWrites(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Counter(fmt.Sprintf("c%d", i%7)).Inc()
				r.Gauge(fmt.Sprintf("g%d", g)).Set(float64(i))
				r.Histogram(fmt.Sprintf("h%d", i%3)).Observe(float64(i % 100))
				if i%10 == 0 {
					r.Func(fmt.Sprintf("f%d.%d", g, i%5), func() float64 { return float64(i) })
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := r.Snapshot()
				if snap.Counters == nil {
					t.Error("snapshot lost counters map")
					return
				}
				r.WritePrometheus(io.Discard)
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func TestHistogramConcurrent(t *testing.T) {
	h := &Histogram{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(g*1000 + i))
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("fsm.transition.ESTABLISHED->SUS_SENT").Inc()
	r.Histogram("suspend.ms").Observe(12)
	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["fsm.transition.ESTABLISHED->SUS_SENT"] != 1 {
		t.Fatalf("roundtrip counters = %+v", back.Counters)
	}
	if back.Histograms["suspend.ms"].Count != 1 || back.Histograms["suspend.ms"].P50 == 0 {
		t.Fatalf("roundtrip histograms = %+v", back.Histograms)
	}
}

func TestLoggerLevelsAndFields(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	sink := func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	l := NewLogger(sink, LevelInfo)
	l.Debugf("hidden %d", 1)
	l.With("conn", "abc").With("state", "ESTABLISHED").Infof("resumed in %dms", 7)
	l.Errorf("boom")
	if len(lines) != 2 {
		t.Fatalf("lines = %q", lines)
	}
	if !strings.Contains(lines[0], "resumed in 7ms") ||
		!strings.Contains(lines[0], "conn=abc") ||
		!strings.Contains(lines[0], "state=ESTABLISHED") ||
		!strings.HasPrefix(lines[0], "INFO") {
		t.Fatalf("line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "ERROR") {
		t.Fatalf("line = %q", lines[1])
	}
	if !l.Enabled(LevelWarn) || l.Enabled(LevelDebug) {
		t.Fatal("Enabled misreports")
	}
}

// TestLoggerGated: a gated logger writes a line only when its gate runs the
// write, keeps the level and fields it was derived from, and hands the gate
// on to loggers derived from it.
func TestLoggerGated(t *testing.T) {
	var lines []string
	sink := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	open := true
	gate := func(emit func()) {
		if open {
			emit()
		}
	}
	l := NewLogger(sink, LevelInfo).With("host", "h").Gated(gate).With("conn", "c")
	l.Debugf("below the level")
	l.Infof("through")
	open = false
	l.Warnf("after the gate shut")
	if len(lines) != 1 || lines[0] != "INFO  through host=h conn=c" {
		t.Fatalf("lines = %q", lines)
	}
	var nilLogger *Logger
	if nilLogger.Gated(gate) != nil {
		t.Fatal("a gated nil logger is not nil")
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{
		"debug": LevelDebug, "Info": LevelInfo, "WARN": LevelWarn,
		"warning": LevelWarn, " error ": LevelError,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("expected error")
	}
}
