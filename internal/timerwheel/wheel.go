// Package timerwheel provides a hierarchical timing wheel. One wheel runs
// one goroutine regardless of how many timers are armed, insertion and
// cancellation are O(1), and expiry processing touches only the bucket
// whose tick arrived; the price is that a timer fires within one tick
// after its deadline. No product code uses it — protocol timeouts are
// runtime timers (time.AfterFunc) — and it is kept only for the
// benchmark's timerwheel.schedule_cancel_ns row.
//
// The wheel is hierarchical in the classic Varghese/Lauck arrangement:
// level 0 spans wheelSlots ticks at full resolution, and each level above
// spans wheelSlots times the level below at correspondingly coarser
// resolution. A timer lands in the coarsest level that still resolves its
// deadline and cascades toward level 0 as the wheels turn, so far-out
// timers cost nothing until they get close.
package timerwheel

import (
	"sync"
	"time"
)

const (
	// wheelSlots is the bucket count per level; a power of two so the
	// slot index is a mask away.
	wheelSlots = 256
	wheelMask  = wheelSlots - 1
	// wheelLevels bounds the horizon: with a 2ms tick, level 0 spans
	// ~0.5s, level 1 ~2.2min, level 2 ~9.3h, level 3 ~99d. Anything
	// beyond the horizon clamps to the last bucket and re-cascades.
	wheelLevels = 4
)

// DefaultTick is the default wheel granularity: a busy wheel wakes 500
// times a second.
const DefaultTick = 2 * time.Millisecond

// Timer is one scheduled callback. The zero value is not a valid Timer;
// they come from Wheel.AfterFunc.
type Timer struct {
	w *Wheel
	// deadline is the absolute expiry in ticks since the wheel epoch.
	deadline uint64
	fn       func()
	// bucket links: an intrusive doubly-linked list per slot.
	next, prev *Timer
	// slot is the bucket the timer currently sits in, nil when detached
	// (fired, cancelled, or in-flight between cascade and re-insert).
	slot *bucket
	// fired marks a timer whose callback ran (or is running).
	fired bool
}

type bucket struct{ head *Timer }

func (b *bucket) insert(t *Timer) {
	t.slot = b
	t.prev = nil
	t.next = b.head
	if b.head != nil {
		b.head.prev = t
	}
	b.head = t
}

func (b *bucket) remove(t *Timer) {
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		b.head = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	}
	t.next, t.prev, t.slot = nil, nil, nil
}

// Wheel is one hierarchical timing wheel with its own driver goroutine.
type Wheel struct {
	tick time.Duration

	mu     sync.Mutex
	levels [wheelLevels][wheelSlots]bucket
	// now is the current wheel time in ticks since start.
	now    uint64
	armed  int // live timers, so the driver can sleep when idle
	closed bool

	start time.Time
	wake  chan struct{}
	done  chan struct{}
	wg    sync.WaitGroup
}

// New starts a wheel with the given tick granularity (DefaultTick when
// tick <= 0).
func New(tick time.Duration) *Wheel {
	if tick <= 0 {
		tick = DefaultTick
	}
	w := &Wheel{
		tick:  tick,
		start: time.Now(),
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	w.wg.Add(1)
	go w.run()
	return w
}

// Close stops the driver goroutine. Pending timers never fire; pending
// Stop calls still work. Close is idempotent.
func (w *Wheel) Close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.mu.Unlock()
	close(w.done)
	w.wg.Wait()
}

// AfterFunc schedules fn to run on the wheel's driver goroutine once d
// has elapsed — within one tick after, never before. fn must not block:
// it shares the driver with every other timer on the wheel. d <= 0 fires
// on the next tick.
func (w *Wheel) AfterFunc(d time.Duration, fn func()) *Timer {
	t := &Timer{w: w, fn: fn}
	w.mu.Lock()
	if w.closed {
		// A closed wheel (shutdown) swallows the timer; Stop still works.
		t.fired = true
		w.mu.Unlock()
		return t
	}
	// The deadline is the first tick whose wall time is >= now+d, so a
	// timer never fires early. It is computed from wall time, not w.now:
	// wheel time lags wall time while the driver sleeps idle, and a
	// deadline measured from the stale position would expire instantly
	// in the catch-up sweep.
	if d < 0 {
		d = 0
	}
	t.deadline = uint64((time.Since(w.start) + d + w.tick - 1) / w.tick)
	if t.deadline <= w.now {
		t.deadline = w.now + 1
	}
	w.placeLocked(t)
	w.armed++
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
	return t
}

// placeLocked files t in the coarsest level that resolves its deadline.
// Caller holds mu and has set t.deadline >= w.now+1.
func (w *Wheel) placeLocked(t *Timer) {
	delta := t.deadline - w.now
	span := uint64(wheelSlots)
	for lvl := 0; lvl < wheelLevels; lvl++ {
		if delta < span || lvl == wheelLevels-1 {
			// Beyond the horizon, file into this level's farthest slot
			// without touching the real deadline; the cascade re-places
			// it until the deadline resolves, so it never fires early.
			pos := t.deadline
			if delta >= span {
				pos = w.now + span - 1
			}
			shift := lvl * 8 // log2(wheelSlots) bits per level
			idx := (pos >> shift) & wheelMask
			w.levels[lvl][idx].insert(t)
			return
		}
		span *= wheelSlots
	}
}

// Stop cancels the timer, reporting whether it was still pending (false
// when it already fired or was stopped). It does not wait for a running
// callback.
func (t *Timer) Stop() bool {
	w := t.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if t.fired || t.slot == nil {
		return false
	}
	t.slot.remove(t)
	t.fired = true
	w.armed--
	return true
}

// run is the driver: it advances wheel time to wall time, expiring and
// cascading buckets, then sleeps — one tick when timers are armed, or
// until an AfterFunc wakes it when idle.
func (w *Wheel) run() {
	defer w.wg.Done()
	timer := time.NewTimer(w.tick)
	defer timer.Stop()
	for {
		w.mu.Lock()
		target := uint64(time.Since(w.start) / w.tick)
		if w.armed == 0 && target > w.now {
			// Nothing pending: fast-forward past the idle gap instead of
			// sweeping every empty tick of it.
			w.now = target
		}
		var ready *Timer
		for w.now < target {
			w.now++
			ready = w.collectLocked(w.now, ready)
		}
		idle := w.armed == 0
		w.mu.Unlock()

		// Fire outside the lock: callbacks may schedule or stop timers.
		for ready != nil {
			next := ready.next
			ready.next = nil
			ready.fn()
			ready = next
		}

		if idle {
			select {
			case <-w.wake:
			case <-w.done:
				return
			}
			continue
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(w.tick)
		select {
		case <-timer.C:
		case <-w.done:
			return
		}
	}
}

// collectLocked processes one tick: level 0's bucket expires, and each
// coarser level whose boundary the tick crossed cascades its bucket down.
// Expired timers are chained onto ready (via their next links) for firing
// outside the lock. Caller holds mu.
func (w *Wheel) collectLocked(now uint64, ready *Timer) *Timer {
	// Expire level 0.
	b := &w.levels[0][now&wheelMask]
	for t := b.head; t != nil; {
		next := t.next
		b.remove(t)
		t.fired = true
		w.armed--
		t.next = ready
		ready = t
		t = next
	}
	// Cascade higher levels on their boundaries.
	for lvl := 1; lvl < wheelLevels; lvl++ {
		shift := lvl * 8
		if now&((uint64(1)<<shift)-1) != 0 {
			break
		}
		b := &w.levels[lvl][(now>>shift)&wheelMask]
		for t := b.head; t != nil; {
			next := t.next
			b.remove(t)
			if t.deadline <= now {
				t.fired = true
				w.armed--
				t.next = ready
				ready = t
			} else {
				w.placeLocked(t)
			}
			t = next
		}
	}
	return ready
}
