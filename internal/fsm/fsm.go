// Package fsm implements the NapletSocket connection state machine of
// Section 2.2 of the paper: fourteen states extending the TCP state machine
// with suspend/resume states, including the SUSPEND_WAIT and RESUME_WAIT
// states that serialize concurrent connection migrations.
//
// The machine is a pure transition table — no I/O — so the protocol's
// control flow can be tested exhaustively and the core package cannot make
// an illegal move without an error telling it exactly which one.
package fsm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// State is a NapletSocket connection state (Table 1 of the paper).
type State uint8

// The fourteen connection states. States beyond the TCP-derived set
// (SUS_*, SUSPEND_WAIT, SUSPENDED, RES_*, RESUME_WAIT) are the paper's
// additions for connection migration.
const (
	// Closed: not connected.
	Closed State = iota
	// Listen: ready to accept connections.
	Listen
	// ConnectSent: sent a CONNECT request.
	ConnectSent
	// ConnectAcked: confirmed a CONNECT request.
	ConnectAcked
	// Established: normal state for data transfer.
	Established
	// SusSent: sent a SUSPEND request.
	SusSent
	// SusAcked: confirmed a SUSPEND request.
	SusAcked
	// SuspendWait: a suspend operation is blocked waiting for the peer's
	// migration to finish (concurrent connection migration).
	SuspendWait
	// Suspended: the connection is suspended; no data can be exchanged.
	Suspended
	// ResSent: sent a RESUME request.
	ResSent
	// ResAcked: confirmed a RESUME request.
	ResAcked
	// ResumeWait: a resume operation is blocked because the peer has a
	// pending suspend of its own to finish first.
	ResumeWait
	// CloseSent: sent a CLOSE request.
	CloseSent
	// CloseAcked: confirmed a CLOSE request.
	CloseAcked

	numStates = iota
)

// String returns the paper's name for the state.
func (s State) String() string {
	switch s {
	case Closed:
		return "CLOSED"
	case Listen:
		return "LISTEN"
	case ConnectSent:
		return "CONNECT_SENT"
	case ConnectAcked:
		return "CONNECT_ACKED"
	case Established:
		return "ESTABLISHED"
	case SusSent:
		return "SUS_SENT"
	case SusAcked:
		return "SUS_ACKED"
	case SuspendWait:
		return "SUSPEND_WAIT"
	case Suspended:
		return "SUSPENDED"
	case ResSent:
		return "RES_SENT"
	case ResAcked:
		return "RES_ACKED"
	case ResumeWait:
		return "RESUME_WAIT"
	case CloseSent:
		return "CLOSE_SENT"
	case CloseAcked:
		return "CLOSE_ACKED"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Event is a stimulus driving the machine: an application call (App*), a
// received control message (Recv*), or an internal completion (Exec*).
type Event uint8

// Events of the NapletSocket protocol (Figure 3 of the paper).
const (
	// AppListen: application creates a server socket.
	AppListen Event = iota
	// AppOpen: application actively opens a connection.
	AppOpen
	// AppSuspend: application (or the docking system) suspends the
	// connection ahead of a migration.
	AppSuspend
	// AppSuspendBlocked: a locally issued suspend found the connection
	// already remotely suspended by a higher-priority peer and must wait
	// (Section 3.2, multiple connections).
	AppSuspendBlocked
	// AppResume: application resumes the connection after landing.
	AppResume
	// AppClose: application closes the connection.
	AppClose

	// RecvConnect: a CONNECT request arrived (server side).
	RecvConnect
	// RecvConnectAck: the CONNECT was acknowledged with a socket id.
	RecvConnectAck
	// RecvID: the client's socket id arrived, completing establishment.
	RecvID
	// RecvSuspend: a SUS request arrived and was granted.
	RecvSuspend
	// RecvSuspendAck: our SUS request was acknowledged (ACK).
	RecvSuspendAck
	// RecvAckWait: our SUS request was answered with ACK_WAIT — the
	// higher-priority peer migrates first (overlapped concurrent
	// migration).
	RecvAckWait
	// RecvSusRes: the peer finished its migration; our blocked suspend may
	// complete (SUS_RES).
	RecvSusRes
	// RecvResume: a RES request arrived and was granted.
	RecvResume
	// RecvResumeAck: our RES request was acknowledged.
	RecvResumeAck
	// RecvResumeWait: our RES request was answered with RESUME_WAIT — the
	// peer has a parked suspend to finish before the resume completes
	// (non-overlapped concurrent migration).
	RecvResumeWait
	// RecvClose: a CLS request arrived.
	RecvClose
	// RecvCloseAck: our CLS request was acknowledged.
	RecvCloseAck

	// ExecSuspended: the local teardown after a granted suspend finished
	// (streams drained and data socket closed).
	ExecSuspended
	// ExecResumed: the local setup after a granted resume finished (new
	// data socket installed, streams recreated).
	ExecResumed
	// ExecClosed: the local teardown after a granted close finished.
	ExecClosed

	// Timeout: a protocol exchange timed out.
	Timeout
	// Fail: the data socket broke while established (fault-tolerance
	// extension; the connection degrades to SUSPENDED for re-resume rather
	// than dying).
	Fail

	numEvents = iota
)

// String returns a readable event name.
func (e Event) String() string {
	names := [...]string{
		AppListen: "app:listen", AppOpen: "app:open", AppSuspend: "app:suspend",
		AppSuspendBlocked: "app:suspend-blocked", AppResume: "app:resume", AppClose: "app:close",
		RecvConnect: "recv:CONNECT", RecvConnectAck: "recv:ACK+ID", RecvID: "recv:ID",
		RecvSuspend: "recv:SUS", RecvSuspendAck: "recv:ACK(SUS)", RecvAckWait: "recv:ACK_WAIT",
		RecvSusRes: "recv:SUS_RES", RecvResume: "recv:RES", RecvResumeAck: "recv:ACK(RES)",
		RecvResumeWait: "recv:RESUME_WAIT", RecvClose: "recv:CLS", RecvCloseAck: "recv:ACK(CLS)",
		ExecSuspended: "exec:suspended", ExecResumed: "exec:resumed", ExecClosed: "exec:closed",
		Timeout: "timeout", Fail: "fail",
	}
	if int(e) < len(names) {
		return names[e]
	}
	return fmt.Sprintf("Event(%d)", uint8(e))
}

// transitions is the legal-move table: transitions[state][event] is the
// next state; absence means the event is illegal in that state.
var transitions = map[State]map[Event]State{
	Closed: {
		AppListen: Listen,
		AppOpen:   ConnectSent,
	},
	Listen: {
		RecvConnect: ConnectAcked,
		AppClose:    Closed,
	},
	ConnectSent: {
		RecvConnectAck: Established,
		Timeout:        Closed,
	},
	ConnectAcked: {
		RecvID:  Established,
		Timeout: Closed,
	},
	Established: {
		AppSuspend: SusSent,
		// Section 3.2: a local suspend that must defer to a higher-priority
		// remote suspend parks without sending SUS.
		AppSuspendBlocked: SuspendWait,
		RecvSuspend:       SusAcked,
		AppClose:          CloseSent,
		RecvClose:         CloseAcked,
		// Fault-tolerance extension: a broken data socket degrades the
		// connection to SUSPENDED instead of killing it.
		Fail: Suspended,
	},
	SusSent: {
		RecvSuspendAck: Suspended,
		RecvAckWait:    SuspendWait,
		// Both sides issued SUS and this side has low priority: the peer's
		// SUS also arrives here and is granted.
		RecvSuspend: SusAcked,
		Timeout:     Suspended,
	},
	SusAcked: {
		ExecSuspended: Suspended,
	},
	SuspendWait: {
		// Peer finished migrating; the blocked suspend completes.
		RecvSusRes: Suspended,
		// Peer resumes while we hold a parked suspend: we answer
		// RESUME_WAIT and our suspend completes (Fig 4(b), side B).
		RecvResume: Suspended,
	},
	Suspended: {
		AppResume: ResSent,
		// A locally issued suspend on a remotely suspended connection with
		// a low-priority peer blocks (Section 3.2).
		AppSuspendBlocked: SuspendWait,
		// A locally issued suspend on a remotely suspended connection when
		// we hold priority completes in place; no state change.
		AppSuspend: Suspended,
		RecvResume: ResAcked,
		AppClose:   CloseSent,
		RecvClose:  CloseAcked,
		// A SUS arriving while already suspended is idempotent.
		RecvSuspend: Suspended,
		// Overlapped concurrent migration where the peer's SUS was granted
		// before our own SUS's ACK_WAIT verdict arrived: park from
		// SUSPENDED.
		RecvAckWait: SuspendWait,
	},
	ResSent: {
		RecvResumeAck:  Established,
		RecvResumeWait: ResumeWait,
		// Resume race: both endpoints resumed at once; the low-priority
		// side grants the peer's RES and abandons its own.
		RecvResume: ResAcked,
		Timeout:    Suspended,
	},
	ResAcked: {
		ExecResumed: Established,
		// The mover's handoff never arrived; fall back to SUSPENDED.
		Timeout: Suspended,
	},
	ResumeWait: {
		// The peer finished its parked suspend and migration, and now
		// resumes toward us.
		RecvResume: ResAcked,
	},
	CloseSent: {
		RecvCloseAck: Closed,
		Timeout:      Closed,
	},
	CloseAcked: {
		ExecClosed: Closed,
	},
}

// ErrIllegalTransition reports an event that is not legal in the current
// state.
type ErrIllegalTransition struct {
	From  State
	Event Event
}

// Error implements error.
func (e *ErrIllegalTransition) Error() string {
	return fmt.Sprintf("fsm: event %s illegal in state %s", e.Event, e.From)
}

// Next returns the state reached by applying event in state, or an
// ErrIllegalTransition.
func Next(s State, e Event) (State, error) {
	if to, ok := transitions[s][e]; ok {
		return to, nil
	}
	return s, &ErrIllegalTransition{From: s, Event: e}
}

// Legal reports whether event e is legal in state s.
func Legal(s State, e Event) bool {
	_, ok := transitions[s][e]
	return ok
}

// States returns all states, in declaration order.
func States() []State {
	out := make([]State, numStates)
	for i := range out {
		out[i] = State(i)
	}
	return out
}

// Events returns all events, in declaration order.
func Events() []Event {
	out := make([]Event, numEvents)
	for i := range out {
		out[i] = Event(i)
	}
	return out
}

// Transition is one recorded machine step.
type Transition struct {
	From  State
	Event Event
	To    State
	// At is when the step was applied; observers and the tracing layer
	// use it to attribute lifecycle edges to migration phases.
	At time.Time
}

// Observer receives every successful transition of a Machine, in step
// order — the hook the observability layer uses to count and log
// lifecycle edges. Observers run synchronously on the stepping
// goroutine, outside the machine's lock, and must not call back into
// the machine.
type Observer func(Transition)

// Machine is a concurrency-safe instance of the state machine with history,
// one per connection endpoint.
type Machine struct {
	// state is written under mu (Step) and read without it: State sits on
	// the data path, once per message written.
	state    atomic.Uint32
	mu       sync.Mutex
	history  []Transition
	observer Observer
	// maxHistory bounds the retained history.
	maxHistory int
}

// NewMachine returns a machine starting in the given state (Closed for
// fresh connections).
func NewMachine(start State) *Machine {
	m := &Machine{maxHistory: 128}
	m.state.Store(uint32(start))
	return m
}

// State returns the current state.
func (m *Machine) State() State { return State(m.state.Load()) }

// SetObserver installs the machine's transition observer (nil to
// remove). It only affects subsequent steps.
func (m *Machine) SetObserver(o Observer) {
	m.mu.Lock()
	m.observer = o
	m.mu.Unlock()
}

// Step applies event e, returning the new state or an error leaving the
// state unchanged. On success the observer, if any, is invoked with the
// transition after the state is updated.
func (m *Machine) Step(e Event) (State, error) {
	m.mu.Lock()
	from := m.State()
	to, err := Next(from, e)
	if err != nil {
		m.mu.Unlock()
		return from, err
	}
	tr := Transition{From: from, Event: e, To: to, At: time.Now()}
	m.history = append(m.history, tr)
	if len(m.history) > m.maxHistory {
		m.history = m.history[len(m.history)-m.maxHistory:]
	}
	m.state.Store(uint32(to))
	obs := m.observer
	m.mu.Unlock()
	if obs != nil {
		obs(tr)
	}
	return to, nil
}

// In reports whether the current state is one of the given states.
func (m *Machine) In(states ...State) bool {
	cur := m.State()
	for _, s := range states {
		if cur == s {
			return true
		}
	}
	return false
}

// History returns a copy of the recorded transitions, oldest first.
func (m *Machine) History() []Transition {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Transition, len(m.history))
	copy(out, m.history)
	return out
}
