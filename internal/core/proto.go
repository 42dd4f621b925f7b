package core

import (
	"strings"

	"naplet/internal/fsm"
	"naplet/internal/wire"
)

// This file is the protocol as data, all three of its tables (Sections
// 2.2–3.2, Figs 3–5), including both concurrent-migration protocols —
// overlapped (ACK_WAIT + SUS_RES) and non-overlapped (RESUME_WAIT). onPeer is
// the responder's table: what a peer's SUS, SUS_RES, RES or CLS gets in each
// of the fourteen states. onReply is the requester's: what the sender of each
// of those four, and of an open's CONNECT, does with what became of it.
// onLocal is the endpoint's own: what its application's calls and its own
// events do in each state. All three decide and touch nothing: Socket.serve,
// Socket.ask and Socket.local (ops.go) are their interpreters; DESIGN.md
// "Concurrent migration" prints all three.

// latch is a set of the connection's flags: the tables read them as inputs,
// and their rules raise and lower them. All but owesSusRes, which travels in
// the blob, belong to one generation of the data stream.
type latch uint8

const (
	latchRemoteSuspended latch = 1 << iota
	latchOwesSusRes
	latchSusResReceived   // a SUS_RES came before the local suspend parked
	latchPeerResumeParked // the peer's RES was answered RESUME_WAIT (Fig 5)
	latchSuspending       // a drain is in progress
	latchDrained          // the stream ended as the drain or a close expects
	latchPeerFlushSeen    // the peer's flush marker came after all it covers
	latchFailing          // down by failure, recovery pending

	generationLatches = ^latchOwesSusRes
)

var latchNames = [...]string{"remoteSuspended", "owesSusRes", "susResReceived", "peerResumeParked",
	"suspending", "drained", "peerFlushSeen", "failing"}

// String names the flags raised, comma-separated.
func (l latch) String() string {
	var names []string
	for i, name := range latchNames {
		if l&(1<<i) != 0 {
			names = append(names, name)
		}
	}
	return strings.Join(names, ",")
}

// followUp is the work a rule leaves to be done once the reply is decided.
type followUp uint8

const (
	thenNothing followUp = iota
	// thenSuspended and thenClosed drain in-flight data into the buffer off
	// the control path, then step exec:suspended / exec:closed.
	thenSuspended
	thenClosed
	// thenGrantResume starts the endpoint's wait for the mover's handoff.
	thenGrantResume
	// thenStandDown drops the wait for a handoff that will never land.
	thenStandDown
)

// noStep marks a rule that leaves the machine where it is. It borrows the
// one event no peer message can cause (only the application listens), so the
// zero rule steps nothing.
const noStep = fsm.AppListen

// rule is one cell of the reply table.
type rule struct {
	// degrade drops the stream first (fsm Fail, a failure episode like a
	// break's), so step starts from SUSPENDED.
	degrade bool
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
		case st == fsm.SusSent:
			// The peer resumes while our suspend is on its way to it: park the
			// resume behind the suspend as SUSPEND_WAIT does (Fig 4(b)). The
			// peer's RESUME_WAIT grants our SUS, and our own later RES meets
			// that RESUME_WAIT and is granted. A refusal here deadlocks: the
			// peer holds our SUS while it is in RES_SENT.
			return rule{verdict: wire.VerdictResumeWait, set: latchPeerResumeParked}
		case st == fsm.Suspended, st == fsm.ResumeWait:
			// In RESUME_WAIT our earlier resume was parked; the peer has
			// migrated and now resumes toward us (Fig 4(b), side A).
			return grant
		case st == fsm.Established:
			// A resuming peer has dropped its end of the stream; ours is dead
			// and we have not noticed yet. Degrade as a break would, and answer
			// as SUSPENDED does.
			r := onPeer(msg, fsm.Suspended, highPriority, migrating)
			r.degrade = true
			return r
		case st == fsm.ResSent && highPriority:
			// Both sides resumed at once (both migrated, or dueling failure
			// recoveries): the higher priority rejects and lets its own RES
			// win, the lower grants.
			return refuse(wire.RejectResumeRace)
		case st == fsm.ResSent:
			return grant
		case st == fsm.ResAcked:
			// We granted the peer's resume and wait for its handoff. A new RES
			// proves that handoff will never land — it died with its
			// transport, or the peer gave up on it — so stand down now, as the
			// wait's timeout would later: back to SUSPENDED, where the retry is
			// granted.
			return rule{step: fsm.Timeout, verdict: wire.VerdictReject, code: wire.RejectRetry, then: thenStandDown}
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

// ---- the requester half ----

// outcome is what became of a request: a reply's verdict, by its code if a
// rejection, or one of three things no reply says. Replies are numbered as
// the wire numbers verdicts and codes. An outcome is an error too: a failed
// operation's error wraps the one that failed it.
type outcome uint8

const (
	// unreachable (VerdictInvalid): no verified reply within the operation
	// timeout, or no stream for the handoff a grant calls for.
	unreachable outcome = iota
	ack
	ackWait
	resumeWait
	rejectOther
	rejectUnknownConn
	rejectRetry
	rejectResumeRace
	// expired: the park window ran out, in a parked wait or retrying.
	expired
	// overtaken: before a retry or a grant's handoff, the peer's own
	// message moved the machine off the state the request is sent in.
	overtaken
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"no reply", "ACK", "ACK_WAIT", "RESUME_WAIT", "REJECT other",
	"REJECT unknown-conn", "REJECT retry", "REJECT resume-race", "park window out", "overtaken"}

func (o outcome) String() string { return outcomeNames[o] }
func (o outcome) Error() string  { return outcomeNames[o] }

// outcomeOf is the outcome of a decoded reply: codes but RejectOther come
// only beside VerdictReject.
func outcomeOf(v wire.Verdict, c wire.RejectCode) outcome { return outcome(v) + outcome(c) }

// sentIn is the state a request is sent in; SUS_RES moves no state of its
// sender's.
var sentIn = map[wire.MsgType]fsm.State{wire.MsgConnect: fsm.ConnectSent, wire.MsgSuspend: fsm.SusSent,
	wire.MsgResume: fsm.ResSent, wire.MsgClose: fsm.CloseSent}

// replyRule is one cell of the request table, carried out in field order.
type replyRule struct {
	// handoff dials and installs the resumed stream where step is taken;
	// elsewhere the outcome is overtaken, and a failed dial unreachable.
	handoff bool
	drain   bool
	// early is a latch recording that the peer's release beat this reply:
	// it is lowered, and the reply taken as ACK. clear lowers latches.
	early, clear latch
	// step is taken if the machine is in one of from.
	step  fsm.Event
	from  []fsm.State
	close bool // marks the connection closed and drops it
	// wait waits for one of its states, up to the park window if park is set
	// (running out is then the expired outcome), else up to the operation
	// timeout.
	wait []fsm.State
	park bool
	// retry asks again after a backoff, re-resolving the peer through the
	// location service first if relookup is set. A rule that neither
	// retries nor fails ends the operation successfully; the error of one
	// that fails wraps its outcome.
	retry, relookup, fail bool
}

// onReply is the request table: what the sender of msg does with outcome
// out. An outcome the requester has no other cell for fails the operation;
// onPeer gives no answer that does.
func onReply(msg wire.MsgType, out outcome) replyRule {
	sent := []fsm.State{sentIn[msg]}
	switch msg {
	case wire.MsgConnect:
		switch out {
		case ack:
			// The target opened the data stream before it answered: its
			// landing, maybe already past, establishes (onLocal), and a stream
			// that died at once has the endpoint recovering in SUSPENDED.
			return replyRule{wait: settled}
		case unreachable:
			// The target may have granted, the ACK lost and the stream on its
			// way: the opener's Close gives the open up and tells it (openAs).
			return replyRule{step: fsm.Timeout, from: sent, fail: true}
		}
		// Refused: the target holds nothing for the open.
		return replyRule{step: fsm.Timeout, from: sent, close: true, fail: true}

	case wire.MsgSuspend:
		switch out {
		case ack:
			return replyRule{drain: true, step: fsm.RecvSuspendAck, from: sent}
		case unreachable, rejectUnknownConn:
			// The peer agent is typically mid-migration, its endpoint in a
			// bundle: suspend ungracefully. Our resume chases it through the
			// location service; the send log covers anything lost in flight.
			return replyRule{drain: true, step: fsm.Timeout, from: sent}
		case ackWait:
			// Overlapped concurrent migration, low-priority side (Fig 4(a)):
			// drain now, then park until the peer's SUS_RES or RES releases
			// us. We may have granted the peer's own SUS meanwhile.
			return replyRule{drain: true, early: latchSusResReceived, step: fsm.RecvAckWait,
				from: []fsm.State{fsm.SusSent, fsm.Suspended}, wait: []fsm.State{fsm.Suspended}, park: true}
		case rejectRetry:
			return replyRule{retry: true} // the peer is mid-resume or mid-open
		case overtaken:
			return replyRule{wait: []fsm.State{fsm.Suspended}} // the drain of the peer's SUS we granted
		}
		// Refused or out of the window: suspend ungracefully, and fail.
		return replyRule{drain: true, step: fsm.Timeout, from: sent, fail: true}

	case wire.MsgSusRes:
		// Our migration is done and the parked low-priority peer may go
		// (Fig 4(a)). It is pinned, but its host may be momentarily slow.
		if out == ack {
			return replyRule{clear: latchOwesSusRes}
		}
		if out < expired {
			return replyRule{retry: true}
		}
		// The peer's park window, ours too, ran out: it awaits no release.
		return replyRule{clear: latchOwesSusRes, fail: true}

	case wire.MsgResume:
		switch out {
		case ack:
			return replyRule{handoff: true, step: fsm.RecvResumeAck, from: sent}
		case resumeWait:
			// Non-overlapped concurrent migration (Fig 4(b), side A): the peer
			// has a parked suspend to finish, and our resume parks until its
			// RES reaches us.
			return replyRule{step: fsm.RecvResumeWait, from: sent, wait: []fsm.State{fsm.Established}, park: true}
		case unreachable, rejectUnknownConn, rejectRetry:
			// Chase a peer agent that moved on or has not landed.
			return replyRule{retry: true, relookup: true}
		case rejectResumeRace:
			// Both sides resumed at once and the peer holds priority: its RES
			// completes the connection. That RES may be parked at the host we
			// left (Fig 5), so ask again; one granted here meanwhile makes the
			// next try overtaken.
			return replyRule{retry: true}
		case overtaken:
			return replyRule{wait: []fsm.State{fsm.Established}} // the handoff of the peer's RES we granted
		case expired:
			// Unreachable, unwilling or parked for the whole window: the
			// connection is dead, and blocked readers and writers fail.
			return replyRule{step: fsm.Timeout, from: []fsm.State{fsm.ResSent, fsm.ResumeWait}, close: true, fail: true}
		}
		// Refused (a replayed nonce, say): back to SUSPENDED, where the next
		// Suspend finishes at once and the next Resume asks again.
		return replyRule{step: fsm.Timeout, from: []fsm.State{fsm.ResSent, fsm.ResumeWait}, fail: true}

	case wire.MsgClose:
		if out == ack {
			// The peer is draining too: exactly-once extends through a
			// graceful close.
			return replyRule{drain: true, step: fsm.RecvCloseAck, from: sent, close: true}
		}
		return replyRule{step: fsm.Timeout, from: sent, close: true} // close unilaterally
	}
	return replyRule{fail: true}
}

// ---- the endpoint's own half ----

// localEvent is one of the endpoint's own calls and events.
type localEvent uint8

const (
	callSuspend localEvent = iota
	callResume
	callClose
	streamEnded    // the generation's stream ended, was reset or went bad
	handoffLanded  // the stream a standing wait awaited is installed
	handoffLate    // one whose wait was given up or replaced in the install
	handoffExpired // the wait ran out, or its stream failed to install
	recoveryDue    // the recovery a failure started falls due
	numLocalEvents
)

var localEventNames = [numLocalEvents]string{"suspend", "resume", "close", "stream ended",
	"handoff landed", "handoff late", "handoff expired", "recovery due"}

func (e localEvent) String() string { return localEventNames[e] }

// guard is a set of the facts the local table reads beside the state and
// the flags: not the protocol's, and no rule changes them.
type guard uint8

const (
	// guardClosed: the endpoint is finished here — closed by either side,
	// given up, or gone with its agent.
	guardClosed      guard = 1 << iota
	guardHostClosing       // the host's Close is closing every endpoint
	guardMigrating         // the agent is in its suspend phase
)

// localEnd is what a local rule does last. The first three end the stream's
// generation under mu: failLocked, establishedLocked (then checkpoint),
// dropSockLocked.
type localEnd uint8

const (
	endDone localEnd = iota
	endFail
	endEstablish
	endDropStream
	endCloseHere // close without a CLS, and drop the endpoint
	endGiveUp    // the same, then CLS the peer, which may hold it, in the background
	endForget    // drop a finished endpoint and its unread data
	endResume
	endClosed // the call fails with the reason the endpoint closed
	endRefused
)

// waitBound is the timeout a local wait is bounded by.
type waitBound uint8

const boundOp, boundPark, boundDrain waitBound = 0, 1, 2

var settled = []fsm.State{fsm.Established, fsm.Suspended}

// localRule is one cell of the local table, carried out in field order.
type localRule struct {
	step       fsm.Event
	set, clear latch
	ask        wire.MsgType // a request, carried on by the request table
	// wait waits for one of its states: a failed one fails the call unless
	// the rule has an end. again classifies anew after the step or the wait;
	// a wait the endpoint's close ends is always classified anew.
	wait  []fsm.State
	bound waitBound
	again bool
	end   localEnd
}

// closedEnds is what each event does on an endpoint closed here, where
// nothing is asked of the peer or waited for: a call fails with the reason,
// a Close lets go of what is left unread, a stream that lands anyway is
// dropped.
var closedEnds = [numLocalEvents]localEnd{callSuspend: endClosed, callResume: endClosed, callClose: endForget,
	handoffLanded: endDropStream, handoffLate: endDropStream}

// onLocal is the local table: the rule for the endpoint's own event ev in
// state st, with flags l raised and guards g holding, on an endpoint that
// does or does not hold the migration priority of Section 3.1.
func onLocal(ev localEvent, st fsm.State, l latch, highPriority bool, g guard) localRule {
	if g&guardClosed != 0 {
		return localRule{end: closedEnds[ev]}
	}
	closing := st == fsm.Closed || st == fsm.CloseSent || st == fsm.CloseAcked
	// A remote suspend mid-drain, or a resume in flight, maybe the peer's.
	inFlight := st == fsm.SusAcked || st == fsm.ResSent || st == fsm.ResAcked || st == fsm.ResumeWait
	switch ev {
	case callSuspend:
		switch {
		case st == fsm.Established:
			return localRule{step: fsm.AppSuspend, ask: wire.MsgSuspend}
		case st == fsm.Suspended && l&latchRemoteSuspended == 0:
			return localRule{} // idempotent
		case st == fsm.Suspended && l&(latchPeerResumeParked|latchSusResReceived) != 0:
			// The peer parked its resume behind our migration, or released
			// us: the suspend is satisfied, the peer pinned until we land.
			return localRule{clear: latchSusResReceived}
		case st == fsm.Suspended && highPriority:
			// Section 3.2, suspending a remotely suspended connection: the
			// peer's RES will find us gone and chase us.
			return localRule{}
		case st == fsm.Suspended:
			// Low priority: park until the peer's RES or SUS_RES.
			return localRule{step: fsm.AppSuspendBlocked, again: true}
		case st == fsm.SuspendWait:
			return localRule{wait: []fsm.State{fsm.Suspended}, bound: boundPark}
		case inFlight:
			// Dropping the connection here would strand the peer.
			return localRule{wait: settled, bound: boundPark, again: true}
		case st == fsm.CloseAcked:
			// The caller sees everything the closing peer wrote.
			return localRule{wait: []fsm.State{fsm.Closed}, bound: boundDrain, end: endClosed}
		case closing:
			return localRule{end: endClosed}
		}

	case callResume:
		switch {
		case st == fsm.Established, st == fsm.ResAcked:
			return localRule{wait: []fsm.State{fsm.Established}} // or the peer's is mid-handoff
		case st == fsm.Suspended && l&latchOwesSusRes != 0:
			// Landed after a migration that parked the low-priority peer
			// (Fig 4(a)): release it; it migrates next and resumes toward us.
			return localRule{ask: wire.MsgSusRes}
		case st == fsm.Suspended:
			return localRule{step: fsm.AppResume, ask: wire.MsgResume}
		case closing:
			return localRule{end: endClosed}
		}

	case callClose:
		switch {
		case st == fsm.Established, st == fsm.Suspended:
			return localRule{step: fsm.AppClose, ask: wire.MsgClose} // Fig 3
		case st == fsm.Listen:
			return localRule{step: fsm.AppClose, end: endCloseHere}
		case st == fsm.ConnectSent:
			return localRule{step: fsm.Timeout, end: endGiveUp}
		case st == fsm.Closed:
			// Only an open whose CONNECT went unanswered is here unclosed: the
			// target may have granted it.
			return localRule{end: endGiveUp}
		case inFlight, st == fsm.SusSent, st == fsm.SuspendWait:
			// The peer gets a CLS, not a dead endpoint, if the operation
			// settles in time.
			return localRule{wait: settled, again: true, end: endCloseHere}
		}
		return localRule{end: endCloseHere}

	case streamEnded:
		// The peer's flush marker then half-close, in a suspend or close of
		// either side's, is a completed drain, even before ours has started
		// (its ACK may be in flight); so is any end in a close. Any other end
		// fails the stream: degrade to SUSPENDED and recover.
		if closing || l&latchPeerFlushSeen != 0 && (l&latchSuspending != 0 || st != fsm.Established) {
			return localRule{set: latchDrained}
		}
		return localRule{end: endFail}

	case handoffLanded, handoffLate:
		switch {
		case g&guardHostClosing != 0:
			return localRule{end: endDropStream} // the host is tearing every endpoint down
		case ev == handoffLanded && st == fsm.ResAcked:
			return localRule{step: fsm.ExecResumed, end: endEstablish}
		case ev == handoffLanded && st == fsm.ConnectSent:
			return localRule{step: fsm.RecvConnectAck, end: endEstablish}
		case st == fsm.Established:
			// A later grant's stream established the connection under the
			// install, and the install made this stream its own.
			return localRule{end: endEstablish}
		}
		return localRule{end: endDropStream}

	case handoffExpired:
		switch {
		case st == fsm.ResAcked:
			return localRule{step: fsm.Timeout} // where the mover's retry is granted
		case st == fsm.ConnectSent && g&guardHostClosing == 0:
			return localRule{step: fsm.Timeout, end: endGiveUp} // the open fails
		}

	case recoveryDue:
		// Left undone while the agent migrates (its landing resumes) or the
		// host closes.
		if st == fsm.Suspended && l&latchFailing != 0 && g&(guardHostClosing|guardMigrating) == 0 {
			return localRule{end: endResume}
		}
	}
	if ev <= callResume {
		return localRule{end: endRefused}
	}
	return localRule{}
}
