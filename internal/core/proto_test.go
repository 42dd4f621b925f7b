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
		if isClosing(st) && (r.degrade || r.step != noStep || r.then != thenNothing || r.set != 0) {
			t.Errorf("%s: a closing state degrades %v, steps %s, sets %b, follows up %d", cell, r.degrade, r.step, r.set, r.then)
		}
		if (r.then == thenSuspended || r.then == thenClosed || r.then == thenGrantResume) && r.step == noStep {
			t.Errorf("%s: follow-up %d without the step it completes", cell, r.then)
		}
		from := st
		if r.degrade {
			var err error
			if from, err = fsm.Next(st, fsm.Fail); err != nil {
				t.Errorf("%s: degrade: %v", cell, err)
				return
			}
		}
		if r.step == noStep {
			return
		}
		next, err := fsm.Next(from, r.step)
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

// A peer's RES that meets a state the break has not reached yet: a
// connection still ESTABLISHED over the stream the resumer has dropped is
// degraded and answered as SUSPENDED (granted, or parked by a migrating
// agent), and one whose own suspend is on its way parks the resume behind it
// (Fig 4(b)) rather than refuse it while the resumer holds that SUS.
func TestReplyTableResumeBeforeTheBreakIsNoticed(t *testing.T) {
	for _, high := range []bool{false, true} {
		for _, migrating := range []bool{false, true} {
			r, asSuspended := onPeer(wire.MsgResume, fsm.Established, high, migrating), onPeer(wire.MsgResume, fsm.Suspended, high, migrating)
			want := asSuspended
			want.degrade = true
			if r != want {
				t.Errorf("RES meets ESTABLISHED (high=%v migrating=%v): %+v, want a degrade, then %+v", high, migrating, r, asSuspended)
			}
			r = onPeer(wire.MsgResume, fsm.SusSent, high, migrating)
			if r.verdict != wire.VerdictResumeWait || r.step != noStep || r.set != latchPeerResumeParked || r.degrade {
				t.Errorf("RES meets SUS_SENT (high=%v migrating=%v): %+v, want RESUME_WAIT, no step, peerResumeParked", high, migrating, r)
			}
		}
	}
}

// The responder can say only what the requester has a cell for: no answer
// onPeer gives fails the requester's operation.
func TestReplyTableIsClosedOverRequesterBranches(t *testing.T) {
	// SUS_RES is refused exactly where no suspend of ours can be waiting
	// for it.
	susResRefused := []fsm.State{fsm.Closed, fsm.Listen, fsm.ConnectSent, fsm.ConnectAcked, fsm.Established,
		fsm.ResSent, fsm.ResAcked, fsm.ResumeWait, fsm.CloseSent, fsm.CloseAcked}
	eachCell(func(msg wire.MsgType, st fsm.State, high, migrating bool, r rule) {
		out, want := outcomeOf(r.verdict, r.code), r.verdict.String()
		if r.verdict == wire.VerdictReject {
			want += " " + codeNames[r.code]
		}
		if out.String() != want {
			t.Errorf("%s in %s: reply %s read as %s", msg, st, want, out)
		}
		if onReply(msg, out).fail {
			t.Errorf("%s in %s: reply %s has no cell at the requester", msg, st, out)
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

// requestMsgs are the requests of the request table: an open's CONNECT, and
// the four a peer's reply table answers.
var requestMsgs = append([]wire.MsgType{wire.MsgConnect}, peerMsgs...)

// eachRequestCell calls fn once per cell of the request table.
func eachRequestCell(fn func(msg wire.MsgType, out outcome, r replyRule)) {
	for _, msg := range requestMsgs {
		for out := outcome(0); out < numOutcomes; out++ {
			fn(msg, out, onReply(msg, out))
		}
	}
}

func TestRequestTableRequestsOnlyLegalSteps(t *testing.T) {
	cells := 0
	eachRequestCell(func(msg wire.MsgType, out outcome, r replyRule) {
		cells++
		cell := fmt.Sprintf("%s answered %s", msg, out)
		sent, sends := sentIn[msg]
		if r.step != noStep {
			// The step is taken in the state the request was sent in, and in
			// the others the requester can be in when the outcome lands.
			if !sends || !slices.Contains(r.from, sent) {
				t.Errorf("%s: %s is not taken in the state the request is sent in", cell, r.step)
			}
			for _, st := range r.from {
				if !fsm.Legal(st, r.step) {
					t.Errorf("%s: %s is illegal in %s", cell, r.step, st)
				}
			}
		}
		if r.early != 0 {
			// The early release turns the reply into ACK, stepped from the
			// same states.
			a := onReply(msg, ack)
			if a.retry || a.fail || slices.ContainsFunc(a.from, func(st fsm.State) bool { return !slices.Contains(r.from, st) }) {
				t.Errorf("%s: an early release has no ACK to turn into: %+v", cell, a)
			}
		}
		if r.handoff && r.step == noStep {
			t.Errorf("%s: a handoff without the step it completes", cell)
		}
		if r.relookup && !r.retry {
			t.Errorf("%s: re-resolves the peer for no retry", cell)
		}
		if sends && r.fail && !r.close && (r.step == noStep || !slices.Contains(r.from, sent)) {
			// Nothing else steps the sender out of the state it asked in.
			t.Errorf("%s: fails the operation and leaves its sender in %s", cell, sent)
		}
		if r.retry && (r.fail || r.close || r.wait != nil || r.step != noStep) {
			t.Errorf("%s: a retry also steps, waits or ends the operation: %+v", cell, r)
		}
		if (out == expired || out == overtaken) && r.retry {
			t.Errorf("%s: retries past the window or a settled machine", cell)
		}
		if r.step != noStep {
			// What the requester waits for is reachable from where the step
			// leaves it.
			next, _ := fsm.Next(sent, r.step)
			for _, w := range r.wait {
				if !reachable(next, w) {
					t.Errorf("%s: waits for %s, unreachable from %s", cell, w, next)
				}
			}
		}
	})
	if cells != len(requestMsgs)*int(numOutcomes) {
		t.Fatalf("walked %d cells, want %d", cells, len(requestMsgs)*int(numOutcomes))
	}
}

// reachable reports whether some sequence of events leads from a to b.
func reachable(a, b fsm.State) bool {
	seen := map[fsm.State]bool{a: true}
	for frontier := []fsm.State{a}; len(frontier) > 0; frontier = frontier[1:] {
		if frontier[0] == b {
			return true
		}
		for _, e := range fsm.Events() {
			if next, err := fsm.Next(frontier[0], e); err == nil && !seen[next] {
				seen[next] = true
				frontier = append(frontier, next)
			}
		}
	}
	return false
}

// ---- the tables as DESIGN.md prints them ----

var (
	codeNames = map[wire.RejectCode]string{wire.RejectOther: "other", wire.RejectUnknownConn: "unknown-conn", wire.RejectRetry: "retry", wire.RejectResumeRace: "resume-race"}
	thenNames = map[followUp]string{thenNothing: "—", thenSuspended: "drain, `exec:suspended`", thenClosed: "drain, `exec:closed`",
		thenGrantResume: "await handoff", thenStandDown: "drop awaited handoff"}
)

func (r rule) columns() string {
	step, reply, sets := "—", r.verdict.String(), "—"
	var steps []string
	if r.degrade {
		steps = append(steps, "`"+fsm.Fail.String()+"`")
	}
	if r.step != noStep {
		steps = append(steps, "`"+r.step.String()+"`")
	}
	if len(steps) > 0 {
		step = strings.Join(steps, ", ")
	}
	if r.verdict == wire.VerdictReject {
		reply += " " + codeNames[r.code]
	}
	if r.set != 0 {
		sets = latchList(r.set)
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

func (r replyRule) columns() string {
	var before, step, wait, ends []string
	if r.handoff {
		before = append(before, "dial handoff")
	}
	if r.drain {
		before = append(before, "drain")
	}
	if r.early != 0 {
		step = append(step, "as ACK if "+latchList(r.early)+";")
	}
	if r.step != noStep {
		var from []string
		for _, st := range r.from {
			from = append(from, st.String())
		}
		step = append(step, "`"+r.step.String()+"` in "+strings.Join(from, "/"))
	}
	for _, w := range r.wait {
		wait = append(wait, w.String())
	}
	if r.wait != nil {
		wait = []string{strings.Join(wait, "/") + map[bool]string{false: " ≤ op", true: " ≤ park"}[r.park]}
	}
	if r.clear != 0 {
		ends = append(ends, "clear "+latchList(r.clear))
	}
	if r.close {
		ends = append(ends, "close")
	}
	switch {
	case r.retry && r.relookup:
		ends = append(ends, "retry, re-resolve peer")
	case r.retry:
		ends = append(ends, "retry")
	case r.fail:
		ends = append(ends, "fail")
	default:
		ends = append(ends, "done")
	}
	col := func(parts []string) string {
		if len(parts) == 0 {
			return "—"
		}
		return strings.Join(parts, " ")
	}
	return fmt.Sprintf("%s | %s | %s | %s", col(before), col(step), col(wait), strings.Join(ends, ", "))
}

// latchList prints a latch set as DESIGN.md does: each flag quoted.
func latchList(l latch) string { return "`" + strings.ReplaceAll(l.String(), ",", "`, `") + "`" }

// renderRequestTable prints onReply one row per distinct cell of a message:
// the outcomes that get it share the row.
func renderRequestTable() string {
	var b strings.Builder
	b.WriteString("| Request | Outcome | First | Step | Wait | Then |\n|---|---|---|---|---|---|\n")
	for _, msg := range requestMsgs {
		var order []string // cells, in order of first outcome
		outs := map[string][]string{}
		for out := outcome(0); out < numOutcomes; out++ {
			cell := onReply(msg, out).columns()
			if _, seen := outs[cell]; !seen {
				order = append(order, cell)
			}
			outs[cell] = append(outs[cell], out.String())
		}
		req := msg.String()
		if sent, ok := sentIn[msg]; ok {
			req += " (from " + sent.String() + ")"
		}
		for _, cell := range order {
			fmt.Fprintf(&b, "| %s | %s | %s |\n", req, strings.Join(outs[cell], ", "), cell)
		}
	}
	b.WriteString("\nA handoff is dialled only where the step is taken;" +
		" elsewhere the outcome is taken as *overtaken*. A retry backs off from 10 ms, doubling to 200 ms; when the park window" +
		" runs out, retrying or in a wait bounded by it, the outcome is *park window out*. A wait bounded by the operation timeout" +
		" that runs out fails the operation.\n")
	return b.String()
}

// DESIGN.md carries the request table between two markers too.
func TestRequestTableMatchesDesignDoc(t *testing.T) {
	const begin, end = "<!-- request-table:begin (rendered from onReply by internal/core/proto_test.go; do not edit) -->\n", "<!-- request-table:end -->"
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(raw), begin)
	doc, _, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatalf("DESIGN.md lacks the request-table markers %q ... %q", begin, end)
	}
	if want := renderRequestTable(); doc != want {
		t.Errorf("DESIGN.md's request table is not what onReply says; replace it with:\n%s", want)
	}
}

// ---- the local table ----

var (
	localEnds = map[localEnd]string{endDone: "done", endFail: "fail the stream", endEstablish: "establish",
		endDropStream: "drop the stream", endCloseHere: "close here",
		endGiveUp: "close here, CLS in the background", endForget: "drop the endpoint", endResume: "`Resume`",
		endClosed: "fail: closed", endRefused: "fail: refused"}
	boundNames = map[waitBound]string{boundOp: "op", boundPark: "park", boundDrain: "drain"}
	guardNames = [...]string{"closed", "hostClosing", "migrating"} // in bit order
)

// eachLocalCell calls fn once per cell of the local table: every event in
// every state under every set of flags and guards, so every reachable one,
// on either side of the priority.
func eachLocalCell(fn func(ev localEvent, st fsm.State, l latch, high bool, g guard, r localRule)) {
	for ev := localEvent(0); ev < numLocalEvents; ev++ {
		for _, st := range fsm.States() {
			for l := 0; l < 1<<len(latchNames); l++ {
				for _, high := range []bool{false, true} {
					for g := guard(0); g < 1<<len(guardNames); g++ {
						fn(ev, st, latch(l), high, g, onLocal(ev, st, latch(l), high, g))
					}
				}
			}
		}
	}
}

func TestLocalTableRequestsOnlyLegalSteps(t *testing.T) {
	cells := 0
	eachLocalCell(func(ev localEvent, st fsm.State, l latch, high bool, g guard, r localRule) {
		cells++
		cell := fmt.Sprintf("%s in %s (flags %q, high=%v, guards %03b)", ev, st, l, high, g)
		if g&guardClosed != 0 && (r.step != noStep || r.ask != wire.MsgInvalid || r.wait != nil || r.again || r.end == endGiveUp) {
			t.Errorf("%s: a closed endpoint steps, asks or waits: %+v", cell, r)
		}
		if ev == recoveryDue && g&guardMigrating != 0 && r.end == endResume {
			t.Errorf("%s: resumes while the agent migrates, ahead of its landing", cell)
		}
		if ev == handoffExpired && st == fsm.ConnectSent && g&guardHostClosing != 0 && (r.step != noStep || r.end != endDone) {
			t.Errorf("%s: gives an open up while the host closes", cell)
		}
		next := st
		if r.step != noStep {
			var err error
			if next, err = fsm.Next(st, r.step); err != nil {
				t.Errorf("%s: %v", cell, err)
				return
			}
			if r.wait != nil {
				t.Errorf("%s: steps %s and waits", cell, r.step)
			}
		}
		if ev > callClose && (r.ask != wire.MsgInvalid || r.wait != nil) {
			t.Errorf("%s: only the application's calls send requests or wait", cell)
		}
		if (r.end == endClosed || r.end == endRefused) && ev > callResume {
			t.Errorf("%s: %s ends what is no Suspend or Resume", cell, localEnds[r.end])
		}
		if sent, ok := sentIn[r.ask]; r.ask != wire.MsgInvalid && (ok && next != sent || !ok && next != st || r.again || r.end != endDone) {
			t.Errorf("%s: sends %s from %s, not from the state the request table has it sent in, or does more", cell, r.ask, next)
		}
		for _, w := range r.wait {
			if !reachable(next, w) {
				t.Errorf("%s: waits for %s, unreachable from %s", cell, w, next)
			}
		}
		if msg := againSettles(ev, st, l, high, g, false, 0); msg != "" {
			t.Errorf("%s: %s", cell, msg)
		}
	})
	if want := int(numLocalEvents) * len(fsm.States()) * (1 << len(latchNames)) * 2 * (1 << len(guardNames)); cells != want {
		t.Fatalf("walked %d cells, want %d", cells, want)
	}
}

// againSettles follows the cells an event is classified in again, after a step
// (under the same hold of mu, so with the flags and guards the rule left) or
// after a wait (in a state the wait ends in, with whatever flags the peer
// raised and guards came to hold meanwhile; a wait the close ends is
// classified again as closed, whose cells ask nothing and wait for nothing).
// It reports how the chain fails to settle: a cell that classifies again in
// itself, or a second wait.
func againSettles(ev localEvent, st fsm.State, l latch, high bool, g guard, waited bool, depth int) string {
	r := onLocal(ev, st, l, high, g)
	switch {
	case !r.again:
		return ""
	case depth > 3:
		return "does not settle"
	case r.wait == nil && r.step == noStep:
		return "classifies again in the same cell"
	case r.wait == nil:
		next, _ := fsm.Next(st, r.step)
		return againSettles(ev, next, l&^r.clear|r.set, high, g, waited, depth+1)
	case waited:
		return fmt.Sprintf("waits again in %s", st)
	}
	for _, w := range r.wait {
		for l2 := 0; l2 < 1<<len(latchNames); l2++ {
			for g2 := guard(0); g2 < 1<<len(guardNames); g2 += 2 * guardClosed { // closed is the lowest bit
				if msg := againSettles(ev, w, latch(l2), high, g2, true, depth+1); msg != "" {
					return fmt.Sprintf("waits for %s, then %s", w, msg)
				}
			}
		}
	}
	return ""
}

func (r localRule) columns() string {
	col := func(s string, ok bool) string {
		if !ok {
			return "—"
		}
		return s
	}
	var flags []string
	if r.set != 0 {
		flags = append(flags, "set "+latchList(r.set))
	}
	if r.clear != 0 {
		flags = append(flags, "clear "+latchList(r.clear))
	}
	var wait []string
	for _, w := range r.wait {
		wait = append(wait, w.String())
	}
	then := localEnds[r.end]
	if r.again && r.end != endDone {
		then = "again; if the wait fails, " + then
	} else if r.again {
		then = "again"
	}
	return fmt.Sprintf("%s | %s | %s | %s | %s", col("`"+r.step.String()+"`", r.step != noStep), col(strings.Join(flags, ", "), len(flags) > 0),
		col(r.ask.String(), r.ask != wire.MsgInvalid), col(strings.Join(wait, "/")+" ≤ "+boundNames[r.bound], r.wait != nil), then)
}

// conditions describes, per distinct cell of ev in st on an endpoint not
// closed, the inputs that get it: a list of cubes over the inputs the cells
// depend on (each flag, the priority as one more bit, then the guards but
// closed), each cube the literals it fixes ("" where the cells depend on no
// input).
func conditions(ev localEvent, st fsm.State) (order []string, conds map[string][]string) {
	const inputs = len(latchNames) + len(guardNames)
	cols := make([]string, 1<<inputs)
	for in := range cols {
		cols[in] = onLocal(ev, st, latch(in), in>>len(latchNames)&1 != 0, guard(in>>(len(latchNames)+1))<<1).columns()
	}
	var relevant []int
	for b := 0; b < inputs; b++ {
		for in := range cols {
			if cols[in] != cols[in^1<<b] {
				relevant = append(relevant, b)
				break
			}
		}
	}
	name := func(b int, on bool) string {
		switch {
		case b == len(latchNames):
			return map[bool]string{true: "high priority", false: "low priority"}[on]
		case b > len(latchNames):
			return map[bool]string{true: "", false: "no "}[on] + "`" + guardNames[b-len(latchNames)] + "`"
		}
		return map[bool]string{true: "", false: "no "}[on] + "`" + latchNames[b] + "`"
	}
	// A cube fixes each relevant input to 0 or 1, or leaves it free (2);
	// assignment n gives relevant input i the value n>>i&1.
	k := len(relevant)
	in := func(cube []int, n int) bool {
		for i, v := range cube {
			if v != 2 && v != n>>i&1 {
				return false
			}
		}
		return true
	}
	cell := func(n int) string {
		input := 0
		for i, b := range relevant {
			input |= n >> i & 1 << b
		}
		return cols[input]
	}
	cubes := make([][]int, pow3(k))
	for n := range cubes {
		cubes[n] = make([]int, k)
		for i, m := 0, n; i < k; i, m = i+1, m/3 {
			cubes[n][i] = m % 3
		}
	}
	// Widest cubes first: each describes as much as it can.
	slices.SortStableFunc(cubes, func(a, b []int) int { return strings.Count(fmt.Sprint(b), "2") - strings.Count(fmt.Sprint(a), "2") })
	conds = map[string][]string{}
	covered := map[int]bool{}
	for _, cube := range cubes {
		c, uniform, fresh := "", true, false
		for n := 0; n < 1<<k; n++ {
			if !in(cube, n) {
				continue
			}
			if c == "" {
				c = cell(n)
			}
			uniform = uniform && cell(n) == c
			fresh = fresh || !covered[n]
		}
		if !uniform || !fresh {
			continue
		}
		var lits []string
		for i, v := range cube {
			if v != 2 {
				lits = append(lits, name(relevant[i], v == 1))
			}
		}
		for n := 0; n < 1<<k; n++ {
			covered[n] = covered[n] || in(cube, n)
		}
		if _, seen := conds[c]; !seen {
			order = append(order, c)
		}
		conds[c] = append(conds[c], strings.Join(lits, " and "))
	}
	return order, conds
}

func pow3(k int) int {
	n := 1
	for ; k > 0; k-- {
		n *= 3
	}
	return n
}

// renderLocalTable prints onLocal one row per distinct cell of an event:
// first the one a closed endpoint gets in every state, then the others, the
// states that get one sharing its row, each qualified by the flags, the
// priority and the guards that get it there where those matter.
func renderLocalTable() string {
	var b strings.Builder
	b.WriteString("| Event | Meets | Step | Flags | Request | Wait | Then |\n|---|---|---|---|---|---|---|\n")
	for ev := localEvent(0); ev < numLocalEvents; ev++ {
		closed := onLocal(ev, fsm.Closed, 0, false, guardClosed).columns()
		for _, st := range fsm.States() {
			for in := 0; in < 1<<(len(latchNames)+len(guardNames)); in++ {
				g := guard(in>>(len(latchNames)+1))<<1 | guardClosed
				if onLocal(ev, st, latch(in), in>>len(latchNames)&1 != 0, g).columns() != closed {
					panic("a closed endpoint's cell depends on more than the event: teach the renderer")
				}
			}
		}
		fmt.Fprintf(&b, "| %s | any state (`closed`) | %s |\n", ev, closed)
		var order []string                         // cells, in order of first state
		groups := map[string]map[string][]string{} // cell -> condition -> states
		conds := map[string][]string{}             // cell -> conditions, in order of first state
		for _, st := range fsm.States() {
			cells, byCell := conditions(ev, st)
			for _, c := range cells {
				if _, seen := groups[c]; !seen {
					order = append(order, c)
					groups[c] = map[string][]string{}
				}
				for _, cond := range byCell[c] {
					if _, seen := groups[c][cond]; !seen {
						conds[c] = append(conds[c], cond)
					}
					groups[c][cond] = append(groups[c][cond], st.String())
				}
			}
		}
		for _, c := range order {
			var meets []string
			for _, cond := range conds[c] {
				states := strings.Join(groups[c][cond], ", ")
				if cond != "" {
					states += " (" + cond + ")"
				}
				meets = append(meets, states)
			}
			fmt.Fprintf(&b, "| %s | %s | %s |\n", ev, strings.Join(meets, "; "), c)
		}
	}
	b.WriteString("\nThe event is classified, and its step, flags and wait taken, under one hold of `mu`: a wait lets go of it only" +
		" while it blocks, so *again* classifies the event anew in the state the step or the wait ended in, and so does a wait" +
		" the endpoint's close ends. An end's work on the stream and on the endpoint (closing it here) is done under that hold" +
		" too; the request, and the rest of the end, after it. A wait that fails fails the call, unless the cell names what a" +
		" failed wait does.\n")
	return b.String()
}

// DESIGN.md carries the local table between two markers too.
func TestLocalTableMatchesDesignDoc(t *testing.T) {
	const begin, end = "<!-- local-table:begin (rendered from onLocal by internal/core/proto_test.go; do not edit) -->\n", "<!-- local-table:end -->"
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(raw), begin)
	doc, _, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatalf("DESIGN.md lacks the local-table markers %q ... %q", begin, end)
	}
	if want := renderLocalTable(); doc != want {
		t.Errorf("DESIGN.md's local table is not what onLocal says; replace it with:\n%s", want)
	}
}
