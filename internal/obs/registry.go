// Package obs is the runtime observability layer of the NapletSocket
// system: a process-wide metrics registry (counters, gauges, log-scale
// latency histograms) snapshot-able as JSON, and a structured, leveled
// event logger with per-connection context.
//
// Unlike the offline instrumentation in internal/metrics and
// internal/trace — which exists to reproduce the paper's figures in
// one-shot benchmark harnesses — this package makes the same quantities
// continuously measurable on a live daemon, where they feed the
// /metrics and /connz endpoints of napletd.
//
// Every type is nil-safe: methods on a nil *Registry, *Counter, *Gauge,
// *Histogram, or *Logger record nothing, so instrumentation can stay
// unconditionally in place in the hot path.
package obs

import (
	"encoding/json"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	n atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta.
func (c *Counter) Add(delta uint64) {
	if c == nil {
		return
	}
	c.n.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is an instantaneous float64 metric.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram bucket geometry: buckets grow geometrically from histLo by
// histGrowth per bucket, so a recorded quantile is within one growth
// factor of the true sample quantile. With growth 1.5 and 64 buckets the
// range spans ~1µs to ~10 hours when samples are milliseconds.
const (
	histBuckets = 64
	histLo      = 1e-3 // first upper bound, in the caller's unit (ms)
	histGrowth  = 1.5
)

// histBounds[i] is the inclusive upper bound of bucket i.
var histBounds = func() [histBuckets]float64 {
	var b [histBuckets]float64
	v := histLo
	for i := range b {
		b[i] = v
		v *= histGrowth
	}
	return b
}()

// Histogram accumulates samples into log-scale buckets and reports
// nearest-rank quantiles with bounded relative error (one bucket growth
// factor). Samples are conventionally latencies in milliseconds. The
// fields are atomics rather than a mutex: during a migration wave every
// suspending connection observes into the same suspend/resume histograms
// concurrently, and a single lock there serializes the wave. Reads
// (snapshot, quantile) are consequently only approximately consistent
// with in-flight writes, which is fine for monitoring.
type Histogram struct {
	count   atomic.Uint64
	sumBits atomic.Uint64
	// minEnc/maxEnc hold math.Float64bits(v)+1, so the zero value means
	// "no sample yet" and &Histogram{} stays fully usable.
	minEnc  atomic.Uint64
	maxEnc  atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// histDecode undoes the bits+1 encoding of minEnc/maxEnc.
func histDecode(enc uint64) float64 {
	if enc == 0 {
		return 0
	}
	return math.Float64frombits(enc - 1)
}

// bucketIndex returns the bucket whose range contains v.
func bucketIndex(v float64) int {
	if v <= histLo {
		return 0
	}
	i := int(math.Ceil(math.Log(v/histLo) / math.Log(histGrowth)))
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	enc := math.Float64bits(v) + 1
	for {
		old := h.minEnc.Load()
		if old != 0 && v >= histDecode(old) {
			break
		}
		if h.minEnc.CompareAndSwap(old, enc) {
			break
		}
	}
	for {
		old := h.maxEnc.Load()
		if old != 0 && v <= histDecode(old) {
			break
		}
		if h.maxEnc.CompareAndSwap(old, enc) {
			break
		}
	}
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	h.count.Add(1)
}

// ObserveDuration records a duration sample in milliseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d) / float64(time.Millisecond))
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Quantile returns the p-th percentile (0 <= p <= 100) by nearest rank
// over the buckets: the upper bound of the bucket holding the ranked
// sample, clamped to the observed min and max. It returns 0 for an empty
// histogram.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil {
		return 0
	}
	return h.quantile(h.count.Load(), p)
}

// quantile answers against a caller-captured count, so one snapshot's
// percentiles agree on the sample population even while writers race.
func (h *Histogram) quantile(count uint64, p float64) float64 {
	if count == 0 {
		return 0
	}
	min := histDecode(h.minEnc.Load())
	max := histDecode(h.maxEnc.Load())
	if p <= 0 {
		return min
	}
	if p >= 100 {
		return max
	}
	rank := uint64(math.Ceil(p / 100 * float64(count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= rank {
			v := histBounds[i]
			if v < min {
				v = min
			}
			if v > max {
				v = max
			}
			return v
		}
	}
	return max
}

// HistogramSnapshot is the JSON form of a histogram.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// snapshot captures the histogram's summary statistics.
func (h *Histogram) snapshot() HistogramSnapshot {
	count := h.count.Load()
	if count == 0 {
		return HistogramSnapshot{}
	}
	return HistogramSnapshot{
		Count: count,
		Mean:  math.Float64frombits(h.sumBits.Load()) / float64(count),
		Min:   histDecode(h.minEnc.Load()),
		Max:   histDecode(h.maxEnc.Load()),
		P50:   h.quantile(count, 50),
		P95:   h.quantile(count, 95),
		P99:   h.quantile(count, 99),
	}
}

// Snapshot is a point-in-time copy of every metric in a registry,
// marshalable as JSON (map keys marshal sorted, so output is stable).
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// MarshalJSON renders the snapshot (ensuring non-nil maps).
func (s Snapshot) MarshalJSON() ([]byte, error) {
	type alias Snapshot
	if s.Counters == nil {
		s.Counters = map[string]uint64{}
	}
	if s.Gauges == nil {
		s.Gauges = map[string]float64{}
	}
	if s.Histograms == nil {
		s.Histograms = map[string]HistogramSnapshot{}
	}
	return json.Marshal(alias(s))
}

// regShards is the stripe count for the registry's name→metric maps.
// Lookups hash the metric name to a shard, so get-or-create calls from
// different subsystems (which overwhelmingly use different names) take
// different locks. 16 stripes is plenty: the maps are small and the
// per-sample hot path (Counter.Add, Histogram.Observe) never touches
// them once the caller holds the metric pointer.
const regShards = 16

// regShard is one stripe of the registry.
type regShard struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	funcs  map[string]func() float64
	hists  map[string]*Histogram
}

// Registry is a named collection of metrics, striped regShards ways by
// metric-name hash. Metric constructors return the existing metric when
// the name is already registered, so independent subsystems can share
// names safely. A nil *Registry hands out nil metrics, which record
// nothing.
type Registry struct {
	shards [regShards]regShard
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	for i := range r.shards {
		s := &r.shards[i]
		s.counts = make(map[string]*Counter)
		s.gauges = make(map[string]*Gauge)
		s.funcs = make(map[string]func() float64)
		s.hists = make(map[string]*Histogram)
	}
	return r
}

// shard maps a metric name to its stripe (FNV-1a).
func (r *Registry) shard(name string) *regShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return &r.shards[h%regShards]
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	s := r.shard(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.counts[name]
	if !ok {
		c = &Counter{}
		s.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	s := r.shard(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.gauges[name]
	if !ok {
		g = &Gauge{}
		s.gauges[name] = g
	}
	return g
}

// Func registers a callback evaluated at snapshot time and reported
// among the gauges — the zero-plumbing way to expose counters a
// subsystem already keeps (e.g. the RUDP endpoint's Stats). Re-register
// under the same name to replace the callback.
func (r *Registry) Func(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	s := r.shard(name)
	s.mu.Lock()
	s.funcs[name] = fn
	s.mu.Unlock()
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	s := r.shard(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.hists[name]
	if !ok {
		h = &Histogram{}
		s.hists[name] = h
	}
	return h
}

// Snapshot captures every metric. Func gauges are evaluated outside the
// shard locks, so callbacks may themselves take locks (including other
// registry shards).
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return snap
	}
	var funcs map[string]func() float64
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		for name, c := range s.counts {
			snap.Counters[name] = c.Value()
		}
		for name, g := range s.gauges {
			snap.Gauges[name] = g.Value()
		}
		for name, h := range s.hists {
			snap.Histograms[name] = h.snapshot()
		}
		if len(s.funcs) > 0 {
			if funcs == nil {
				funcs = make(map[string]func() float64, len(s.funcs))
			}
			for name, fn := range s.funcs {
				funcs[name] = fn
			}
		}
		s.mu.Unlock()
	}
	for name, fn := range funcs {
		snap.Gauges[name] = fn()
	}
	return snap
}
