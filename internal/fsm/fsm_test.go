package fsm

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// walk applies a sequence of events to a fresh machine, failing the test on
// any illegal step, and returns the final state.
func walk(t *testing.T, start State, events ...Event) State {
	t.Helper()
	m := NewMachine(start)
	for i, e := range events {
		if _, err := m.Step(e); err != nil {
			t.Fatalf("step %d (%s in %s): %v", i, e, m.State(), err)
		}
	}
	return m.State()
}

func TestClientOpenPath(t *testing.T) {
	// Fig 3, solid lines: CLOSED -> CONNECT_SENT -> ESTABLISHED.
	if got := walk(t, Closed, AppOpen, RecvConnectAck); got != Established {
		t.Fatalf("final = %s", got)
	}
}

func TestServerOpenPath(t *testing.T) {
	// Fig 3, dotted lines: CLOSED -> LISTEN -> CONNECT_ACKED -> ESTABLISHED.
	if got := walk(t, Closed, AppListen, RecvConnect, RecvID); got != Established {
		t.Fatalf("final = %s", got)
	}
}

func TestSuspendResumeRoundTrip(t *testing.T) {
	// Initiator: ESTABLISHED -> SUS_SENT -> SUSPENDED -> RES_SENT -> ESTABLISHED.
	if got := walk(t, Established, AppSuspend, RecvSuspendAck, AppResume, RecvResumeAck); got != Established {
		t.Fatalf("initiator final = %s", got)
	}
	// Passive side: ESTABLISHED -> SUS_ACKED -> SUSPENDED -> RES_ACKED -> ESTABLISHED.
	if got := walk(t, Established, RecvSuspend, ExecSuspended, RecvResume, ExecResumed); got != Established {
		t.Fatalf("passive final = %s", got)
	}
}

func TestClosePaths(t *testing.T) {
	if got := walk(t, Established, AppClose, RecvCloseAck); got != Closed {
		t.Fatalf("active close from established: %s", got)
	}
	if got := walk(t, Suspended, AppClose, RecvCloseAck); got != Closed {
		t.Fatalf("active close from suspended: %s", got)
	}
	if got := walk(t, Established, RecvClose, ExecClosed); got != Closed {
		t.Fatalf("passive close: %s", got)
	}
}

func TestOverlappedConcurrentMigration(t *testing.T) {
	// Fig 4(a). Side A (low priority): sends SUS, gets ACK_WAIT, parks in
	// SUSPEND_WAIT, later gets SUS_RES -> SUSPENDED, then migrates and
	// resumes.
	a := walk(t, Established, AppSuspend, RecvAckWait, RecvSusRes, AppResume, RecvResumeAck)
	if a != Established {
		t.Fatalf("side A final = %s", a)
	}
	// Side B (high priority): sends SUS, concurrently receives A's SUS and
	// grants it... in the paper B replies ACK_WAIT to A and A ACKs B's SUS,
	// so B's own path is SUS_SENT -> (recv ACK from A) SUSPENDED.
	b := walk(t, Established, AppSuspend, RecvSuspendAck, AppResume, RecvResumeAck)
	if b != Established {
		t.Fatalf("side B final = %s", b)
	}
	// Low-priority side that had sent SUS and then receives the peer's SUS
	// grants it: SUS_SENT -> SUS_ACKED -> SUSPENDED.
	c := walk(t, Established, AppSuspend, RecvSuspend, ExecSuspended)
	if c != Suspended {
		t.Fatalf("granting side final = %s", c)
	}
}

func TestNonOverlappedConcurrentMigration(t *testing.T) {
	// Fig 4(b). Side B acked A's SUS, is SUSPENDED (remote), then wants to
	// migrate itself: its local suspend blocks (AppSuspendBlocked) in
	// SUSPEND_WAIT. A's RESUME arrives; B answers RESUME_WAIT and its own
	// suspend completes -> SUSPENDED. After B's migration it resumes.
	b := walk(t, Established,
		RecvSuspend, ExecSuspended, // grant A's suspend
		AppSuspendBlocked,        // B's own suspend parks
		RecvResume,               // A resumes; we answer RESUME_WAIT; our suspend completes
		AppResume, RecvResumeAck, // after B's migration
	)
	if b != Established {
		t.Fatalf("side B final = %s", b)
	}
	// Side A: suspends normally, migrates, sends RES, gets RESUME_WAIT,
	// parks in RESUME_WAIT, then B's RESUME arrives -> RES_ACKED -> ESTABLISHED.
	a := walk(t, Established,
		AppSuspend, RecvSuspendAck, // normal suspend
		AppResume, RecvResumeWait, // resume parked by B
		RecvResume, ExecResumed, // B resumes toward us
	)
	if a != Established {
		t.Fatalf("side A final = %s", a)
	}
}

func TestMultiConnectionPrioritySuspendInPlace(t *testing.T) {
	// Section 3.2: a local suspend on a remotely suspended connection when
	// we hold priority returns without further action (stay SUSPENDED).
	if got := walk(t, Suspended, AppSuspend); got != Suspended {
		t.Fatalf("state = %s", got)
	}
	// With low priority it blocks.
	if got := walk(t, Suspended, AppSuspendBlocked); got != SuspendWait {
		t.Fatalf("state = %s", got)
	}
}

func TestFailureDegradesToSuspended(t *testing.T) {
	if got := walk(t, Established, Fail, AppResume, RecvResumeAck); got != Established {
		t.Fatalf("state = %s", got)
	}
}

func TestTimeouts(t *testing.T) {
	if got := walk(t, Closed, AppOpen, Timeout); got != Closed {
		t.Fatalf("connect timeout -> %s", got)
	}
	if got := walk(t, Established, AppSuspend, Timeout); got != Suspended {
		t.Fatalf("suspend timeout -> %s", got)
	}
	if got := walk(t, Suspended, AppResume, Timeout); got != Suspended {
		t.Fatalf("resume timeout -> %s", got)
	}
	if got := walk(t, Suspended, AppResume, RecvResumeWait, Timeout); got != Suspended {
		t.Fatalf("parked resume timeout -> %s", got)
	}
	if got := walk(t, Established, AppClose, Timeout); got != Closed {
		t.Fatalf("close timeout -> %s", got)
	}
}

func TestIllegalTransitionsRejected(t *testing.T) {
	cases := []struct {
		s State
		e Event
	}{
		{Closed, AppSuspend},
		{Closed, RecvSuspend},
		{Established, AppOpen},
		{Established, AppResume},
		{Established, RecvResume},
		{Suspended, AppListen},
		{Listen, AppSuspend},
		{SuspendWait, AppSuspend},
		{ResumeWait, AppResume},
		{CloseSent, AppOpen},
	}
	for _, c := range cases {
		m := NewMachine(c.s)
		if _, err := m.Step(c.e); err == nil {
			t.Errorf("event %s accepted in state %s", c.e, c.s)
		} else {
			var ill *ErrIllegalTransition
			if !errors.As(err, &ill) {
				t.Errorf("error type = %T", err)
			} else if ill.From != c.s || ill.Event != c.e {
				t.Errorf("error details = %+v", ill)
			}
		}
		if m.State() != c.s {
			t.Errorf("illegal event changed state %s -> %s", c.s, m.State())
		}
	}
}

func TestNoDataTransferStatesUnreachableFromClosed(t *testing.T) {
	// From CLOSED, no single receive event may do anything: only the
	// application can start a connection (open/listen). This is the
	// security property that a wire message cannot conjure a connection.
	for _, e := range Events() {
		if e == AppListen || e == AppOpen {
			continue
		}
		if Legal(Closed, e) {
			t.Errorf("event %s legal in CLOSED", e)
		}
	}
}

func TestEveryStateHasNames(t *testing.T) {
	for _, s := range States() {
		if strings.HasPrefix(s.String(), "State(") {
			t.Errorf("state %d has no name", s)
		}
	}
	for _, e := range Events() {
		if strings.HasPrefix(e.String(), "Event(") {
			t.Errorf("event %d has no name", e)
		}
	}
}

func TestTransitionTargetsAreValidStates(t *testing.T) {
	for s, row := range transitions {
		if int(s) >= numStates {
			t.Errorf("transition source %d out of range", s)
		}
		for e, to := range row {
			if int(e) >= numEvents {
				t.Errorf("event %d out of range", e)
			}
			if int(to) >= numStates {
				t.Errorf("transition %s --%s--> %d targets invalid state", s, e, to)
			}
		}
	}
}

// TestEveryNonTerminalStateHasExit ensures the machine cannot wedge: every
// state except CLOSED has at least one outgoing transition.
func TestEveryNonTerminalStateHasExit(t *testing.T) {
	for _, s := range States() {
		if s == Closed {
			continue
		}
		if len(transitions[s]) == 0 {
			t.Errorf("state %s has no outgoing transitions", s)
		}
	}
}

// TestClosedReachableFromEverywhere checks by BFS that CLOSED is reachable
// from every state — connections can always be torn down.
func TestClosedReachableFromEverywhere(t *testing.T) {
	for _, start := range States() {
		visited := map[State]bool{start: true}
		frontier := []State{start}
		found := start == Closed
		for len(frontier) > 0 && !found {
			var next []State
			for _, s := range frontier {
				for _, to := range transitions[s] {
					if to == Closed {
						found = true
					}
					if !visited[to] {
						visited[to] = true
						next = append(next, to)
					}
				}
			}
			frontier = next
		}
		if !found {
			t.Errorf("CLOSED unreachable from %s", start)
		}
	}
}

// TestRandomWalkInvariants drives random legal event sequences and checks
// machine invariants: state always valid, observed transitions continuous.
func TestRandomWalkInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		m := NewMachine(Closed)
		var h []Transition
		m.SetObserver(func(tr Transition) { h = append(h, tr) })
		for step := 0; step < 50; step++ {
			var legal []Event
			for _, e := range Events() {
				if Legal(m.State(), e) {
					legal = append(legal, e)
				}
			}
			if len(legal) == 0 {
				break
			}
			e := legal[rng.Intn(len(legal))]
			prev := m.State()
			got, err := m.Step(e)
			if err != nil {
				t.Fatalf("legal event %s in %s failed: %v", e, prev, err)
			}
			want, _ := Next(prev, e)
			if got != want {
				t.Fatalf("Step disagreed with Next: %s vs %s", got, want)
			}
		}
		for i := 1; i < len(h); i++ {
			if h[i].From != h[i-1].To {
				t.Fatalf("transition discontinuity at %d: %+v -> %+v", i, h[i-1], h[i])
			}
		}
	}
}

// TestStepMatchesNextProperty cross-checks Machine.Step against the pure
// Next for arbitrary state/event pairs.
func TestStepMatchesNextProperty(t *testing.T) {
	f := func(sRaw, eRaw uint8) bool {
		s := State(sRaw % numStates)
		e := Event(eRaw % numEvents)
		m := NewMachine(s)
		got, errStep := m.Step(e)
		want, errNext := Next(s, e)
		if (errStep == nil) != (errNext == nil) {
			return false
		}
		if errStep != nil {
			return m.State() == s
		}
		return got == want && m.State() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestObserverSeesTransitions(t *testing.T) {
	m := NewMachine(Established)
	var got []Transition
	m.SetObserver(func(tr Transition) { got = append(got, tr) })
	m.Step(AppSuspend)     // -> SUS_SENT
	m.Step(RecvSuspendAck) // -> SUSPENDED
	if _, err := m.Step(AppOpen); err == nil {
		t.Fatal("expected illegal transition")
	}
	want := []Transition{
		{From: Established, Event: AppSuspend, To: SusSent},
		{From: SusSent, Event: RecvSuspendAck, To: Suspended},
	}
	if len(got) != len(want) {
		t.Fatalf("observer saw %d transitions, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].At.IsZero() {
			t.Errorf("transition %d has no timestamp", i)
		}
		got[i].At = time.Time{}
		if got[i] != want[i] {
			t.Errorf("transition %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Removing the observer stops the callbacks.
	m.SetObserver(nil)
	m.Step(AppResume)
	if len(got) != 2 {
		t.Fatalf("observer saw %d transitions after removal", len(got))
	}
}

func TestObserverRunsOutsideLock(t *testing.T) {
	// The observer may inspect (but not step) the machine: State() must
	// not deadlock when called from the callback.
	m := NewMachine(Closed)
	var seen State
	m.SetObserver(func(tr Transition) { seen = m.State() })
	m.Step(AppOpen)
	if seen != ConnectSent {
		t.Fatalf("state inside observer = %v", seen)
	}
}
