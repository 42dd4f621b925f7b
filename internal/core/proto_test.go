package core

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"naplet/internal/fsm"
	"naplet/internal/wire"
)

// The reply table is small enough to check whole: 4 messages x 14 states x
// priority x migrating = 224 cells.

var peerMsgs = []wire.MsgType{wire.MsgSuspend, wire.MsgSusRes, wire.MsgResume, wire.MsgClose}

func isClosing(st fsm.State) bool {
	return st == fsm.Closed || st == fsm.CloseSent || st == fsm.CloseAcked
}

// eachCell calls fn once per cell of the table.
func eachCell(fn func(msg wire.MsgType, st fsm.State, high, migrating bool, r rule)) {
	for _, msg := range peerMsgs {
		for _, st := range fsm.States() {
			for _, high := range []bool{false, true} {
				for _, migrating := range []bool{false, true} {
					fn(msg, st, high, migrating, onPeer(msg, st, high, migrating))
				}
			}
		}
	}
}

func TestReplyTableRequestsOnlyLegalSteps(t *testing.T) {
	cells := 0
	eachCell(func(msg wire.MsgType, st fsm.State, high, migrating bool, r rule) {
		cells++
		cell := fmt.Sprintf("%s in %s (high=%v migrating=%v)", msg, st, high, migrating)
		if r.verdict == wire.VerdictInvalid || r.verdict > wire.VerdictReject {
			t.Errorf("%s: verdict %s", cell, r.verdict)
		}
		if r.verdict != wire.VerdictReject && r.code != wire.RejectOther {
			t.Errorf("%s: code %d beside %s would not decode", cell, r.code, r.verdict)
		}
		if isClosing(st) && (r.step != noStep || r.then != thenNothing || r.set != 0) {
			t.Errorf("%s: a closing state steps %s, sets %b, follows up %d", cell, r.step, r.set, r.then)
		}
		if (r.then == thenSuspended || r.then == thenClosed || r.then == thenGrantResume) && r.step == noStep {
			t.Errorf("%s: follow-up %d without the step it completes", cell, r.then)
		}
		if r.step == noStep {
			return
		}
		next, err := fsm.Next(st, r.step)
		if err != nil {
			t.Errorf("%s: %v", cell, err)
			return
		}
		// RUDP may hand the handler a retransmission after the reply cache
		// lets go of the first: the same message in the state it produced
		// must itself be answerable.
		if again := onPeer(msg, next, high, migrating); again.step != noStep && !fsm.Legal(next, again.step) {
			t.Errorf("%s: redelivered in %s requests illegal %s", cell, next, again.step)
		}
	})
	if cells != 224 {
		t.Fatalf("walked %d cells, want 224", cells)
	}
}

// The priority of Section 3.1 breaks both symmetric races one way: of two
// endpoints that each sent SUS (or RES), exactly one yields.
func TestReplyTablePriorityBreaksTies(t *testing.T) {
	for _, migrating := range []bool{false, true} {
		hi, lo := onPeer(wire.MsgSuspend, fsm.SusSent, true, migrating), onPeer(wire.MsgSuspend, fsm.SusSent, false, migrating)
		if hi.verdict != wire.VerdictAckWait || hi.step != noStep || hi.set != latchOwesSusRes {
			t.Errorf("SUS meets SUS_SENT, high priority: %+v, want ACK_WAIT, no step, owes SUS_RES", hi)
		}
		if lo.verdict != wire.VerdictAck || lo.then != thenSuspended {
			t.Errorf("SUS meets SUS_SENT, low priority: %+v, want ACK and a drain", lo)
		}
		hi, lo = onPeer(wire.MsgResume, fsm.ResSent, true, migrating), onPeer(wire.MsgResume, fsm.ResSent, false, migrating)
		if hi.verdict != wire.VerdictReject || hi.code != wire.RejectResumeRace || hi.step != noStep {
			t.Errorf("RES meets RES_SENT, high priority: %+v, want the resume-race rejection", hi)
		}
		if lo.verdict != wire.VerdictAck || lo.then != thenGrantResume {
			t.Errorf("RES meets RES_SENT, low priority: %+v, want a grant", lo)
		}
	}
}

type answer struct {
	verdict wire.Verdict
	code    wire.RejectCode
}

// The responder can say only what the requester has a branch for: the
// verdict switches of suspendHandshake, resumeAttempt, sendSusRes and Close
// are the other half of this table.
func TestReplyTableIsClosedOverRequesterBranches(t *testing.T) {
	understood := map[wire.MsgType][]answer{
		// suspendHandshake: ACK, ACK_WAIT, unknown-conn (suspend ungracefully), retry.
		wire.MsgSuspend: {{wire.VerdictAck, 0}, {wire.VerdictAckWait, 0},
			{wire.VerdictReject, wire.RejectUnknownConn}, {wire.VerdictReject, wire.RejectRetry}},
		// sendSusRes: ACK or try again.
		wire.MsgSusRes: {{wire.VerdictAck, 0}, {wire.VerdictReject, wire.RejectOther}},
		// resumeAttempt: ACK, RESUME_WAIT, resume-race (wait for the peer's RES), unknown-conn / retry (chase the peer).
		wire.MsgResume: {{wire.VerdictAck, 0}, {wire.VerdictResumeWait, 0}, {wire.VerdictReject, wire.RejectResumeRace},
			{wire.VerdictReject, wire.RejectUnknownConn}, {wire.VerdictReject, wire.RejectRetry}},
		// Close: ACK or close unilaterally.
		wire.MsgClose: {{wire.VerdictAck, 0}, {wire.VerdictReject, wire.RejectRetry}},
	}
	// SUS_RES is refused exactly where no suspend of ours can be waiting
	// for it.
	susResRefused := []fsm.State{fsm.Closed, fsm.Listen, fsm.ConnectSent, fsm.ConnectAcked, fsm.Established,
		fsm.ResSent, fsm.ResAcked, fsm.ResumeWait, fsm.CloseSent, fsm.CloseAcked}
	eachCell(func(msg wire.MsgType, st fsm.State, high, migrating bool, r rule) {
		if !slices.Contains(understood[msg], answer{r.verdict, r.code}) {
			t.Errorf("%s in %s: reply %s/%d has no branch at the requester", msg, st, r.verdict, r.code)
		}
		if msg == wire.MsgSusRes && (r.verdict == wire.VerdictReject) != slices.Contains(susResRefused, st) {
			t.Errorf("SUS_RES in %s: %s", st, r.verdict)
		}
		// A message waits a transient state out only in place of being
		// bounced from it.
		if settles(msg, st) && (r.verdict != wire.VerdictReject || r.code != wire.RejectRetry) {
			t.Errorf("%s waits out %s, where it would be answered %s/%d", msg, st, r.verdict, r.code)
		}
	})
}

// ---- the table as DESIGN.md prints it ----

var (
	codeNames  = map[wire.RejectCode]string{wire.RejectOther: "other", wire.RejectUnknownConn: "unknown-conn", wire.RejectRetry: "retry", wire.RejectResumeRace: "resume-race"}
	latchNames = []string{"remoteSuspended", "owesSusRes", "susResReceived", "peerResumeParked", "suspending"}
	thenNames  = map[followUp]string{thenNothing: "—", thenSuspended: "drain, `exec:suspended`", thenClosed: "drain, `exec:closed`",
		thenGrantResume: "arm rendezvous (grant resume)", thenFailZombie: "fail transport if mid-resume"}
)

func (r rule) columns() string {
	step, reply, sets := "—", r.verdict.String(), "—"
	if r.step != noStep {
		step = "`" + r.step.String() + "`"
	}
	if r.verdict == wire.VerdictReject {
		reply += " " + codeNames[r.code]
	}
	var set []string
	for i, name := range latchNames {
		if r.set&(1<<i) != 0 {
			set = append(set, "`"+name+"`")
		}
	}
	if len(set) > 0 {
		sets = strings.Join(set, ", ")
	}
	return fmt.Sprintf("%s | %s | %s | %s", step, reply, sets, thenNames[r.then])
}

// renderReplyTable prints onPeer one row per distinct answer to a message:
// the states that get it share the row, and a state is qualified by priority
// or by migrating only where that changes its answer.
func renderReplyTable() string {
	var b strings.Builder
	b.WriteString("| Message | Meets state | Step | Reply | Sets | Then |\n|---|---|---|---|---|---|\n")
	for _, msg := range peerMsgs {
		var order []string // answers, in order of first state
		states := map[string][]string{}
		add := func(st, answer string) {
			if _, seen := states[answer]; !seen {
				order = append(order, answer)
			}
			states[answer] = append(states[answer], st)
		}
		for _, st := range fsm.States() {
			at := func(high, migrating bool) string { return onPeer(msg, st, high, migrating).columns() }
			byPriority := at(true, false) != at(false, false) || at(true, true) != at(false, true)
			byMigrating := at(false, true) != at(false, false) || at(true, true) != at(true, false)
			switch {
			case byPriority && byMigrating:
				panic("a cell depends on both priority and migrating: teach the renderer")
			case byPriority:
				add(st.String()+" (high priority)", at(true, false))
				add(st.String()+" (low priority)", at(false, false))
			case byMigrating:
				add(st.String()+" (agent migrating)", at(false, true))
				add(st.String()+" (agent staying)", at(false, false))
			default:
				add(st.String(), at(false, false))
			}
		}
		for _, answer := range order {
			fmt.Fprintf(&b, "| %s | %s | %s |\n", msg, strings.Join(states[answer], ", "), answer)
		}
	}
	b.WriteString("\nAnswered only once the state settles (or the drain timeout passes):")
	for _, msg := range peerMsgs {
		var waits []string
		for _, st := range fsm.States() {
			if settles(msg, st) {
				waits = append(waits, st.String())
			}
		}
		if len(waits) > 0 {
			fmt.Fprintf(&b, " %s in %s;", msg, strings.Join(waits, "/"))
		}
	}
	return strings.TrimSuffix(b.String(), ";") + ".\n"
}

// DESIGN.md carries the table between two markers; it is this rendering, so
// a row of onPeer cannot change without the document.
func TestReplyTableMatchesDesignDoc(t *testing.T) {
	const begin, end = "<!-- reply-table:begin (rendered from onPeer by internal/core/proto_test.go; do not edit) -->\n", "<!-- reply-table:end -->"
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(raw), begin)
	doc, _, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatalf("DESIGN.md lacks the reply-table markers %q ... %q", begin, end)
	}
	if want := renderReplyTable(); doc != want {
		t.Errorf("DESIGN.md's reply table is not what onPeer says; replace it with:\n%s", want)
	}
}
