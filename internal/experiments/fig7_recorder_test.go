package experiments

import (
	"strings"
	"testing"
)

func TestRecorderBasics(t *testing.T) {
	r := NewDeliveryRecorder()
	r.Record(1, 1, FromSocket)
	r.Record(2, 2, FromBuffer)
	r.Record(3, 3, FromSocket)
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[1].Source != FromBuffer || evs[1].Counter != 2 {
		t.Fatalf("event[1] = %+v", evs[1])
	}
	if got := r.Buffered(); len(got) != 1 || got[0].Seq != 2 {
		t.Fatalf("buffered = %+v", got)
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *DeliveryRecorder
	r.Record(1, 1, FromSocket)
	if r.Events() != nil || r.Buffered() != nil {
		t.Fatal("nil recorder returned events")
	}
	if err := r.VerifyExactlyOnceInOrder(); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyExactlyOnceInOrder(t *testing.T) {
	ok := NewDeliveryRecorder()
	for i := uint64(5); i <= 10; i++ {
		ok.Record(i, i, FromSocket)
	}
	if err := ok.VerifyExactlyOnceInOrder(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}

	gap := NewDeliveryRecorder()
	gap.Record(1, 1, FromSocket)
	gap.Record(3, 3, FromSocket)
	if err := gap.VerifyExactlyOnceInOrder(); err == nil {
		t.Fatal("gap accepted")
	}

	dup := NewDeliveryRecorder()
	dup.Record(1, 1, FromSocket)
	dup.Record(1, 1, FromBuffer)
	if err := dup.VerifyExactlyOnceInOrder(); err == nil {
		t.Fatal("duplicate accepted")
	}

	reorder := NewDeliveryRecorder()
	reorder.Record(2, 2, FromSocket)
	reorder.Record(1, 1, FromSocket)
	if err := reorder.VerifyExactlyOnceInOrder(); err == nil {
		t.Fatal("reordering accepted")
	}
}

func TestVerifySingleEvent(t *testing.T) {
	r := NewDeliveryRecorder()
	r.Record(42, 42, FromBuffer)
	if err := r.VerifyExactlyOnceInOrder(); err != nil {
		t.Fatalf("single-event trace rejected: %v", err)
	}
}

func TestVerifyNonZeroStart(t *testing.T) {
	// Counters need not start at 0 or 1 — a trace recorded mid-stream (for
	// example after an agent reattaches) is judged from its first counter.
	r := NewDeliveryRecorder()
	for i := uint64(1000); i < 1005; i++ {
		r.Record(i, i, FromSocket)
	}
	if err := r.VerifyExactlyOnceInOrder(); err != nil {
		t.Fatalf("non-zero-start trace rejected: %v", err)
	}
}

func TestVerifyGapAfterDuplicate(t *testing.T) {
	// 1, 1, 3: the duplicate is hit first and must be reported even though
	// a gap follows it.
	r := NewDeliveryRecorder()
	r.Record(1, 1, FromSocket)
	r.Record(1, 1, FromBuffer)
	r.Record(3, 3, FromSocket)
	err := r.VerifyExactlyOnceInOrder()
	if err == nil {
		t.Fatal("duplicate-then-gap accepted")
	}
	if !strings.Contains(err.Error(), "counter 1 followed 1") {
		t.Fatalf("error blames the wrong event: %v", err)
	}
}

func TestEmptyTraceValid(t *testing.T) {
	if err := NewDeliveryRecorder().VerifyExactlyOnceInOrder(); err != nil {
		t.Fatal(err)
	}
}

func TestRender(t *testing.T) {
	r := NewDeliveryRecorder()
	r.Record(1, 7, FromSocket)
	r.Record(2, 8, FromBuffer)
	out := r.Render()
	if !strings.Contains(out, "counter") {
		t.Fatalf("missing header: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.Contains(lines[1], "7\tsocket") || !strings.Contains(lines[2], "8\tbuffer") {
		t.Fatalf("rows = %v", lines[1:])
	}
}

func TestSourceString(t *testing.T) {
	if FromSocket.String() != "socket" || FromBuffer.String() != "buffer" {
		t.Fatal("source names wrong")
	}
	if !strings.HasPrefix(DeliverySource(9).String(), "DeliverySource(") {
		t.Fatal("unknown source name wrong")
	}
}
