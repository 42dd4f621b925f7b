package core

import (
	"naplet/internal/fsm"
	"naplet/internal/wire"
)

// This file is the protocol's reply rule as data: what a peer's SUS,
// SUS_RES, RES or CLS gets in each of the fourteen states (Sections 2.2–3.2,
// Figs 3–5), including both concurrent-migration protocols — overlapped
// (ACK_WAIT + SUS_RES) and non-overlapped (RESUME_WAIT). It decides and
// touches nothing: Socket.serve (ops.go) is the one interpreter, and the
// table in DESIGN.md "Concurrent migration" is rendered from onPeer.

// latch is a set of the connection's concurrent-migration flags a rule
// raises; serve maps the bits onto the Socket fields of the same names.
type latch uint8

const (
	latchRemoteSuspended latch = 1 << iota
	latchOwesSusRes
	latchSusResReceived
	latchPeerResumeParked
	// latchSuspending stops failure detection from misreading a closer's EOF.
	latchSuspending
)

// followUp is the work a rule leaves to be done once the reply is decided.
type followUp uint8

const (
	thenNothing followUp = iota
	// thenSuspended and thenClosed drain in-flight data into the buffer off
	// the control path, then step exec:suspended / exec:closed.
	thenSuspended
	thenClosed
	// thenGrantResume arms the rendezvous the mover's handoff will land on.
	thenGrantResume
	// thenFailZombie fails a shared transport that is stalled mid-resume.
	thenFailZombie
)

// noStep marks a rule that leaves the machine where it is. It borrows the
// one event no peer message can cause (only the application listens), so the
// zero rule steps nothing.
const noStep = fsm.AppListen

// rule is one cell of the reply table.
type rule struct {
	step    fsm.Event
	verdict wire.Verdict
	code    wire.RejectCode // meaningful beside VerdictReject only
	set     latch
	then    followUp
}

func refuse(code wire.RejectCode) rule { return rule{verdict: wire.VerdictReject, code: code} }

// onPeer is the reply table: the rule for message msg meeting state st on an
// endpoint that does or does not hold the migration priority of Section 3.1
// and whose agent is or is not in its suspend phase (migrating).
func onPeer(msg wire.MsgType, st fsm.State, highPriority, migrating bool) rule {
	closing := st == fsm.Closed || st == fsm.CloseSent || st == fsm.CloseAcked
	switch msg {
	case wire.MsgSuspend:
		switch {
		case st == fsm.Established, st == fsm.SusSent && !highPriority:
			// Fig 3, recv:SUS. In SUS_SENT both sides sent SUS (overlapped
			// concurrent migration) and low priority always grants (Fig 4(a),
			// side A).
			return rule{step: fsm.RecvSuspend, verdict: wire.VerdictAck, set: latchRemoteSuspended, then: thenSuspended}
		case st == fsm.SusSent:
			// High priority parks the peer: we migrate first and owe it a
			// SUS_RES from our new host (Fig 4(a), side B).
			return rule{verdict: wire.VerdictAckWait, set: latchOwesSusRes}
		case st == fsm.Suspended, st == fsm.SuspendWait, st == fsm.SusAcked, st == fsm.ResumeWait:
			// Already suspended; granting is idempotent (Section 3.2: "by
			// default a suspend operation needs to do nothing for a suspended
			// connection"). In RESUME_WAIT the peer parked our resume behind
			// the very migration this SUS belongs to (its SUS was held up past
			// our RES): rejecting would leave each side waiting on the other
			// for the whole park window.
			return rule{verdict: wire.VerdictAck, set: latchRemoteSuspended}
		case closing:
			return refuse(wire.RejectUnknownConn)
		}
		return refuse(wire.RejectRetry)

	case wire.MsgSusRes:
		// Our parked suspend may complete (Fig 4(a)). The SUS_RES can arrive
		// at any point of our own suspend, even before we parked, so every
		// suspend-phase state latches it.
		switch st {
		case fsm.SuspendWait:
			return rule{step: fsm.RecvSusRes, verdict: wire.VerdictAck}
		case fsm.Suspended, fsm.SusSent, fsm.SusAcked:
			return rule{verdict: wire.VerdictAck, set: latchSusResReceived}
		}
		return refuse(wire.RejectOther)

	case wire.MsgResume:
		grant := rule{step: fsm.RecvResume, verdict: wire.VerdictAck, then: thenGrantResume}
		switch {
		case st == fsm.Suspended && migrating:
			// We are about to migrate ourselves: park the peer's resume
			// (Fig 5, "side A sends back RESUME_WAIT ... because it is to
			// migrate"). The latch also satisfies our own pending suspend of
			// this connection.
			return rule{verdict: wire.VerdictResumeWait, set: latchPeerResumeParked}
		case st == fsm.SuspendWait:
			// Our suspend is parked; the peer's RES both completes it and is
			// itself parked (Fig 4(b), side B).
			return rule{step: fsm.RecvResume, verdict: wire.VerdictResumeWait, set: latchPeerResumeParked}
		case st == fsm.Suspended, st == fsm.ResumeWait:
			// In RESUME_WAIT our earlier resume was parked; the peer has
			// migrated and now resumes toward us (Fig 4(b), side A).
			return grant
		case st == fsm.ResSent && highPriority:
			// Both sides resumed at once (both migrated, or dueling failure
			// recoveries): the higher priority rejects and lets its own RES
			// win, the lower grants.
			return refuse(wire.RejectResumeRace)
		case st == fsm.ResSent:
			return grant
		case st == fsm.Established:
			// A stale or failure-racing RES; the peer retries, and if our
			// socket is really dead our reader degrades us to SUSPENDED and
			// the retry is granted. One degradation cannot happen on its own:
			// a stream riding a shared transport that is mid-resume stalls
			// instead of failing. The peer's RES is proof that its end of that
			// session is gone for good (a crashed-and-restarted peer
			// re-handshakes the connection, it never resumes the old
			// transport), so the zombie transport is failed now.
			return rule{verdict: wire.VerdictReject, code: wire.RejectRetry, then: thenFailZombie}
		case closing:
			return refuse(wire.RejectUnknownConn)
		}
		return refuse(wire.RejectRetry)

	case wire.MsgClose:
		switch {
		case st == fsm.Established, st == fsm.Suspended:
			// Passive close (Fig 3): the drain lets what the closer wrote
			// reach the buffer before the connection finalizes.
			return rule{step: fsm.RecvClose, verdict: wire.VerdictAck, set: latchSuspending, then: thenClosed}
		case closing:
			return rule{verdict: wire.VerdictAck} // idempotent
		}
		return refuse(wire.RejectRetry)
	}
	return refuse(wire.RejectOther)
}

// settles reports whether msg waits out transient state st instead of being
// answered in it. A resume completion may still be in flight on our side —
// the peer reaches ESTABLISHED from its half of the handoff, and may write
// and close, before we step out of RES_SENT/RES_ACKED; bouncing its SUS
// costs a retry, bouncing its CLS makes it close unilaterally and reset the
// stream under what it just wrote. Likewise a granted suspend still draining
// (SUS_ACKED) is about to be the SUSPENDED a RES or CLS can be served in.
func settles(msg wire.MsgType, st fsm.State) bool {
	switch st {
	case fsm.ResSent, fsm.ResAcked:
		return msg == wire.MsgSuspend || msg == wire.MsgClose
	case fsm.SusAcked:
		return msg == wire.MsgResume || msg == wire.MsgClose
	}
	return false
}
