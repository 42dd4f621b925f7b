package rudp

import (
	"sort"
	"sync"
	"time"
)

// fakeClock is a manually advanced clock for schedule tests.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []*fakeTimer
}

func newFakeClock(start time.Time) *fakeClock { return &fakeClock{now: start} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) NewTimer(d time.Duration) timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &fakeTimer{clk: c, ch: make(chan time.Time, 1), when: c.now.Add(d), armed: true}
	c.timers = append(c.timers, t)
	return t
}

// Advance moves the clock forward, firing due timers in order.
func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	now := c.now
	due := make([]*fakeTimer, 0, len(c.timers))
	for _, t := range c.timers {
		if t.armed && !t.when.After(now) {
			t.armed = false
			due = append(due, t)
		}
	}
	sort.Slice(due, func(i, j int) bool { return due[i].when.Before(due[j].when) })
	c.mu.Unlock()
	for _, t := range due {
		select {
		case t.ch <- now:
		default:
		}
	}
}

type fakeTimer struct {
	clk   *fakeClock
	ch    chan time.Time
	when  time.Time
	armed bool
}

func (t *fakeTimer) C() <-chan time.Time { return t.ch }

func (t *fakeTimer) Reset(d time.Duration) {
	t.clk.mu.Lock()
	t.when = t.clk.now.Add(d)
	t.armed = true
	t.clk.mu.Unlock()
}

func (t *fakeTimer) Stop() bool {
	t.clk.mu.Lock()
	was := t.armed
	t.armed = false
	t.clk.mu.Unlock()
	return was
}
