package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestAblationHandoffSavesRoundTrip(t *testing.T) {
	res, err := RunAblationHandoff(15)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's claim (§3.4): the handoff saves one control round trip
	// per setup. Structure only: both quantities must be real; how the
	// round trip compares to the whole setup is a wall-clock quantity.
	if res.SavedRTTMs <= 0 || res.OpenMs <= 0 {
		t.Fatalf("saved RTT = %v ms, open = %v ms", res.SavedRTTMs, res.OpenMs)
	}
	if share := res.SavedShare(); share <= 0 || share >= 1 {
		t.Fatalf("saved share = %v", share)
	}
	if !strings.Contains(res.Table(), "socket handoff") {
		t.Fatal("table rendering broken")
	}
}

func TestAblationControlChannel(t *testing.T) {
	res, err := RunAblationControl(50)
	if err != nil {
		t.Fatal(err)
	}
	// Structure only: which channel is faster (the paper chose UDP "from a
	// performance perspective", §3.5) is a wall-clock quantity; the
	// benchmark gates the control round trip (open_close_p50_rel).
	if res.RUDPMs <= 0 || res.TCPDialMs <= 0 {
		t.Fatalf("non-positive latency: rudp %.3f ms, tcp %.3f ms", res.RUDPMs, res.TCPDialMs)
	}
	if !strings.Contains(res.Table(), "reliable UDP") {
		t.Fatal("table rendering broken")
	}
}

func TestAblationFailureResume(t *testing.T) {
	res, err := RunAblationFailure(3)
	if err != nil {
		t.Fatal(err)
	}
	if res.RecoveryMs <= 0 || res.RecoveryMs > 5000 {
		t.Fatalf("recovery time = %v ms", res.RecoveryMs)
	}
	if res.RecoveredWithOff {
		t.Fatal("connection recovered with failure-resume disabled")
	}
	if !strings.Contains(res.Table(), "failure-resume on") {
		t.Fatal("table rendering broken")
	}
}

func TestMotivationSocketBeatsMailbox(t *testing.T) {
	res, err := RunMotivation(50)
	if err != nil {
		t.Fatal(err)
	}
	// Structure only: the paper's motivating claim — the synchronous
	// transient channel is markedly faster per interaction than the mailbox
	// path, which pays a location lookup and office-to-office delivery each
	// way — compares two wall-clock quantities (rtt_p50_rel gates ours).
	if res.NapletRTTMs <= 0 || res.MailboxRTTMs <= 0 {
		t.Fatalf("rtts = %v / %v", res.NapletRTTMs, res.MailboxRTTMs)
	}
	if !strings.Contains(res.Table(), "NapletSocket") {
		t.Fatal("table rendering broken")
	}
}

func TestWANApproximatesPaperRegime(t *testing.T) {
	res, err := RunWAN(5*time.Millisecond, 5)
	if err != nil {
		t.Fatal(err)
	}
	rttMs := 10.0 // 5ms one-way
	// Suspend is a control exchange plus the drain: at least one RTT.
	if res.SuspendMs < rttMs {
		t.Fatalf("suspend %v ms under one RTT %v ms", res.SuspendMs, rttMs)
	}
	// Resume adds the handoff dial: at least one RTT too.
	if res.ResumeMs < rttMs {
		t.Fatalf("resume %v ms under one RTT %v ms", res.ResumeMs, rttMs)
	}
	// Open performs multiple exchanges (CONNECT, handoff, ID): at least
	// one RTT as well. (These are floors the injected delay guarantees; no
	// ceiling and no ordering between the three is asserted.)
	if res.OpenSecureMs < rttMs {
		t.Fatalf("open %v ms under one RTT %v ms", res.OpenSecureMs, rttMs)
	}
	if !strings.Contains(res.Table(), "paper (ms)") {
		t.Fatal("table rendering broken")
	}
}
