package netem

import (
	"math/rand"
	"net"
	"sync"
	"time"
)

// Fault injection. Faults is a seedable, runtime-adjustable fault plan
// shared by everything that emulates a bad network: the TCP fault Proxy
// (transport-layer chaos), the Wrap conn wrapper (endpoint-side stalls and
// bandwidth caps), and the DropFn hook the RUDP control plane accepts
// (probabilistic datagram loss). One Faults value scripted by a test gives
// a single coherent fault schedule across both planes.
//
// Fault semantics respect what each layer can survive: datagram paths get
// probabilistic loss (RUDP retransmits); byte-stream paths get abrupt
// resets, directional write stalls (one-way partitions), seeded
// per-direction latency/jitter, and bandwidth caps — never silent byte
// removal, which no stream protocol distinguishes from corruption. WAN
// latency on stream paths is modelled as an ordered delay queue (see
// DelayFunc), so delayed bytes arrive late but intact, exactly like
// propagation delay on a real path.

// Direction names one flow direction through a Proxy or Wrap: Up is
// client-to-server (the dial direction), Down is server-to-client.
type Direction int

const (
	Up Direction = iota
	Down
)

// Faults is a shared fault plan. The zero value is unusable; use NewFaults.
// All knobs may be flipped concurrently with traffic.
type Faults struct {
	mu   sync.Mutex
	cond *sync.Cond
	rng  *rand.Rand
	// lossP is the probabilistic datagram drop rate in [0,1].
	lossP float64
	// bandwidth caps paced writes in bytes/second; 0 means unlimited.
	bandwidth float64
	nextFree  time.Time
	// bwDir caps each direction independently (asymmetric links, e.g. a
	// cell uplink); 0 means that direction is unlimited. Both the shared
	// and the per-direction cap apply when both are set.
	bwDir       [2]float64
	nextFreeDir [2]time.Time
	// delay/jitter model one-way propagation latency per direction. Each
	// write's delay is delay[dir] + uniform(-jitter[dir], +jitter[dir]),
	// clamped at zero, drawn from that direction's own seeded stream so the
	// schedule is deterministic and independent of loss decisions.
	delay    [2]time.Duration
	jitter   [2]time.Duration
	delayRng [2]*rand.Rand
	// stall[dir] holds that direction's writes (a one-way partition when
	// only one is set, a full partition when both are).
	stall [2]bool
}

// NewFaults returns a fault plan whose probabilistic decisions come from
// the given seed, so a chaos schedule replays identically. The loss stream
// and each direction's jitter stream are derived from the seed but
// independent: adding loss never perturbs the delay schedule.
func NewFaults(seed int64) *Faults {
	f := &Faults{rng: rand.New(rand.NewSource(seed))}
	f.delayRng[Up] = rand.New(rand.NewSource(seed ^ 0x55AA55AA))
	f.delayRng[Down] = rand.New(rand.NewSource(seed ^ 0x33CC33CC))
	f.cond = sync.NewCond(&f.mu)
	return f
}

// SetLoss sets the probabilistic datagram drop rate in [0,1].
func (f *Faults) SetLoss(p float64) {
	f.mu.Lock()
	f.lossP = p
	f.mu.Unlock()
}

// SetBandwidth caps paced traffic at bytesPerSec; 0 removes the cap.
func (f *Faults) SetBandwidth(bytesPerSec float64) {
	f.mu.Lock()
	f.bandwidth = bytesPerSec
	f.nextFree = time.Time{}
	f.mu.Unlock()
}

// SetBandwidthDir caps one direction's paced traffic at bytesPerSec
// independently of the shared cap; 0 removes that direction's cap.
func (f *Faults) SetBandwidthDir(dir Direction, bytesPerSec float64) {
	f.mu.Lock()
	f.bwDir[dir] = bytesPerSec
	f.nextFreeDir[dir] = time.Time{}
	f.mu.Unlock()
}

// SetDelay sets one direction's one-way propagation delay and jitter
// half-width. Zero for both removes latency emulation on that direction.
func (f *Faults) SetDelay(dir Direction, oneWay, jitter time.Duration) {
	f.mu.Lock()
	f.delay[dir] = oneWay
	f.jitter[dir] = jitter
	f.mu.Unlock()
}

// SampleDelay draws the next delay for one write in dir from that
// direction's seeded jitter stream. With the same seed and the same call
// sequence the schedule replays identically. A direction with no delay
// configured samples zero without consuming randomness, so enabling delay
// mid-run doesn't shift an already-replayed schedule.
func (f *Faults) SampleDelay(dir Direction) time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	base, jit := f.delay[dir], f.jitter[dir]
	if base <= 0 && jit <= 0 {
		return 0
	}
	d := base
	if jit > 0 {
		d += time.Duration((2*f.delayRng[dir].Float64() - 1) * float64(jit))
	}
	if d < 0 {
		d = 0
	}
	return d
}

// Stall holds or releases one direction's writes. Stalled bytes are
// delayed, never lost: writers block until the stall lifts.
func (f *Faults) Stall(dir Direction, stalled bool) {
	f.mu.Lock()
	f.stall[dir] = stalled
	f.mu.Unlock()
	f.cond.Broadcast()
}

// StallAll holds or releases both directions (a full partition).
func (f *Faults) StallAll(stalled bool) {
	f.mu.Lock()
	f.stall[Up] = stalled
	f.stall[Down] = stalled
	f.mu.Unlock()
	f.cond.Broadcast()
}

// drop makes one seeded loss decision.
func (f *Faults) drop() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lossP > 0 && f.rng.Float64() < f.lossP
}

// DropFn returns a drop decision function in the shape the RUDP control
// plane's Config.DropFn / core Config.ControlDropFn expect: it reports
// whether to silently discard one outgoing datagram.
func (f *Faults) DropFn() func([]byte) bool {
	return func([]byte) bool { return f.drop() }
}

// waitClear blocks while dir is stalled.
func (f *Faults) waitClear(dir Direction) {
	f.mu.Lock()
	for f.stall[dir] {
		f.cond.Wait()
	}
	f.mu.Unlock()
}

// pace delays the caller according to the bandwidth caps, attributing n
// bytes to the shared budget and to dir's own budget; the longer of the
// two waits applies (serialization happens at the slower token bucket).
func (f *Faults) pace(dir Direction, n int) {
	f.mu.Lock()
	now := time.Now()
	var wait time.Duration
	if bw := f.bandwidth; bw > 0 {
		if f.nextFree.Before(now) {
			f.nextFree = now
		}
		wait = f.nextFree.Sub(now)
		f.nextFree = f.nextFree.Add(time.Duration(float64(n) / bw * float64(time.Second)))
	}
	if bw := f.bwDir[dir]; bw > 0 {
		if f.nextFreeDir[dir].Before(now) {
			f.nextFreeDir[dir] = now
		}
		if w := f.nextFreeDir[dir].Sub(now); w > wait {
			wait = w
		}
		f.nextFreeDir[dir] = f.nextFreeDir[dir].Add(time.Duration(float64(n) / bw * float64(time.Second)))
	}
	f.mu.Unlock()
	if wait > 0 {
		time.Sleep(wait)
	}
}

// faultConn applies a Faults plan to one endpoint connection's writes.
// Its inner conn is a DelayFunc wrapper sampling the plan's dir-direction
// latency, so the write path is stall → pace → delay queue: stalls and
// bandwidth model the sender's serialization (blocking the writer), the
// delay queue models propagation (bytes in flight, writer not blocked).
type faultConn struct {
	net.Conn
	f   *Faults
	dir Direction
}

// Wrap returns conn with its writes subject to the plan's dir-direction
// stalls, bandwidth caps, and latency/jitter (shape for
// transport.Config.WrapData / core.Config.WrapData). Reads pass through
// untouched; CloseWrite is preserved when the underlying connection
// supports it, flushing any delayed bytes first.
func (f *Faults) Wrap(conn net.Conn, dir Direction) net.Conn {
	inner := DelayFunc(conn, func() time.Duration { return f.SampleDelay(dir) })
	return &faultConn{Conn: inner, f: f, dir: dir}
}

func (c *faultConn) Write(p []byte) (int, error) {
	c.f.waitClear(c.dir)
	c.f.pace(c.dir, len(p))
	return c.Conn.Write(p)
}

func (c *faultConn) CloseWrite() error {
	if cw, ok := c.Conn.(closeWriter); ok {
		return cw.CloseWrite()
	}
	return nil
}
