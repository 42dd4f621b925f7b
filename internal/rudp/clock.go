package rudp

import "time"

// clock abstracts time for the retransmission schedule so tests can step
// it deterministically. The production endpoint uses the system clock.
type clock interface {
	Now() time.Time
	NewTimer(d time.Duration) timer
}

// timer is the subset of *time.Timer the request loop needs.
type timer interface {
	C() <-chan time.Time
	Reset(d time.Duration)
	Stop() bool
}

type realClock struct{}

func (realClock) Now() time.Time                 { return time.Now() }
func (realClock) NewTimer(d time.Duration) timer { return &realTimer{time.NewTimer(d)} }

type realTimer struct{ t *time.Timer }

func (t *realTimer) C() <-chan time.Time   { return t.t.C }
func (t *realTimer) Reset(d time.Duration) { t.t.Reset(d) }
func (t *realTimer) Stop() bool            { return t.t.Stop() }
