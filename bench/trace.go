package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// The tracer is the benchmark's own: it records a span around each call the
// benchmark makes into the program (name, start, end, parent, op id) and
// nothing inside the program. A nil *tracer records nothing, which is how
// the untraced runs share the workload code.

// kind names a span. Prefixes say which slice the call was made in, so the
// same call (Socket.Write) is priced separately under streaming and echo.
type kind int

const (
	kStreamSlice kind = iota
	kStreamWrite
	kStreamRead
	kEchoSlice
	kEchoRTT
	kEchoWrite
	kEchoRead
	kControlSlice
	kCycle
	kBurst
	kMigrate
	kPreDepart
	kNamingUpdate
	kPostArrive
	kReattachDrain
	kOpenClose
	kOpen
	kRoundTrip
	kClose
	kSuspendResume
	kSuspend
	kResume
	numKinds
)

var kindNames = [numKinds]string{
	kStreamSlice:   "stream",
	kStreamWrite:   "stream/core.write",
	kStreamRead:    "stream/core.read",
	kEchoSlice:     "echo",
	kEchoRTT:       "echo/rtt",
	kEchoWrite:     "echo/core.write",
	kEchoRead:      "echo/core.read",
	kControlSlice:  "control",
	kCycle:         "control/cycle",
	kBurst:         "control/core.write_burst",
	kMigrate:       "control/migrate",
	kPreDepart:     "control/core.predepart",
	kNamingUpdate:  "control/naming.update",
	kPostArrive:    "control/core.postarrive",
	kReattachDrain: "control/core.reattach_drain",
	kOpenClose:     "control/open_close",
	kOpen:          "control/core.open",
	kRoundTrip:     "control/core.round_trip",
	kClose:         "control/core.close",
	kSuspendResume: "control/suspend_resume",
	kSuspend:       "control/core.suspend",
	kResume:        "control/core.resume",
}

// maxDataSpans caps the per-message spans kept in memory (a traced stream
// makes millions); every span still counts in the per-kind totals.
const maxDataSpans = 50000

type spanRecord struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// kindTotal accumulates one kind: calls, time inside them, and self time
// (time minus what child spans covered). Self time is meaningful only where
// children run one after another, which holds for the control spans; the
// data slices run two sides at once and report totals only.
type kindTotal struct {
	count, total, self atomic.Int64
}

type tracer struct {
	t0     time.Time
	nextID atomic.Uint64
	totals [numKinds]kindTotal

	dataKept atomic.Int64
	mu       sync.Mutex
	spans    []spanRecord
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]spanRecord, 0, 2*maxDataSpans)}
}

// span is an open interval; leaf calls on hot paths use tracer.leaf instead
// and never allocate one.
type span struct {
	tr     *tracer
	k      kind
	id, op uint64
	parent *span
	start  int64
	child  atomic.Int64
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) begin(k kind, parent *span, op uint64) *span {
	if t == nil {
		return nil
	}
	return &span{tr: t, k: k, id: t.nextID.Add(1), op: op, parent: parent, start: t.now()}
}

func (s *span) end() {
	if s == nil {
		return
	}
	end := s.tr.now()
	s.tr.finish(s.k, s.id, s.parent, s.op, s.start, end, s.child.Load(), true)
}

// leaf records a childless span that started at start and ends now.
func (t *tracer) leaf(k kind, parent *span, op uint64, start int64, keep bool) {
	t.finish(k, t.nextID.Add(1), parent, op, start, t.now(), 0, keep)
}

func (t *tracer) finish(k kind, id uint64, parent *span, op uint64, start, end, child int64, keep bool) {
	d := end - start
	tot := &t.totals[k]
	tot.count.Add(1)
	tot.total.Add(d)
	tot.self.Add(d - child)
	var pid uint64
	if parent != nil {
		parent.child.Add(d)
		pid = parent.id
	}
	if !keep && t.dataKept.Add(1) > maxDataSpans {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, spanRecord{ID: id, Parent: pid, Op: op, Name: kindNames[k], Start: start, End: end})
	t.mu.Unlock()
}

// meanNs is the mean duration of kind k's spans; perNs spreads their total
// over n ops instead (per message, where one call moves many).
func (t *tracer) meanNs(k kind) float64 {
	return ratio(float64(t.totals[k].total.Load()), float64(t.totals[k].count.Load()))
}

func (t *tracer) selfMeanNs(k kind) float64 {
	return ratio(float64(t.totals[k].self.Load()), float64(t.totals[k].count.Load()))
}

func (t *tracer) perNs(k kind, n float64) float64 {
	return ratio(float64(t.totals[k].total.Load()), n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// write dumps the kept spans and the per-kind totals.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	type total struct {
		Count   int64 `json:"count"`
		TotalNs int64 `json:"total_ns"`
		SelfNs  int64 `json:"self_ns"`
	}
	out := struct {
		Workload string           `json:"workload"`
		Note     string           `json:"note"`
		Totals   map[string]total `json:"totals"`
		Spans    []spanRecord     `json:"spans"`
	}{
		Workload: workload,
		Note:     "spans are recorded by the benchmark around its calls into the program; per-message spans beyond the first 50000 are counted in totals only",
		Totals:   map[string]total{},
		Spans:    t.spans,
	}
	for k := kind(0); k < numKinds; k++ {
		tt := &t.totals[k]
		out.Totals[kindNames[k]] = total{tt.count.Load(), tt.total.Load(), tt.self.Load()}
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(out); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// netCounters counts what the data plane hands to the kernel.
type netCounters struct {
	writeCalls, writeBytes, writeNs atomic.Int64
}

// countingConn is installed through core.Config.WrapData in the traced run
// only: hiding the *net.TCPConn turns the transport's writev into one write
// per buffer, so a run that carries it is not a run to take speeds from.
type countingConn struct {
	net.Conn
	n *netCounters
}

func (c *countingConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.n.writeNs.Add(int64(time.Since(t0)))
	c.n.writeCalls.Add(1)
	c.n.writeBytes.Add(int64(n))
	return n, err
}
