package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"naplet"
	"naplet/internal/behaviors"
	"naplet/internal/experiments"
	"naplet/internal/naming/cluster"
)

// freePort reserves an ephemeral port and releases it for the daemon.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// freeUDPAddr does the same for a location service node, whose address the
// layout must name before the node binds it.
func freeUDPAddr(t *testing.T) string {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := pc.LocalAddr().String()
	pc.Close()
	return addr
}

// logBuf is a concurrency-safe output sink.
type logBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *logBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// buildDaemon compiles the napletd binary into a temp dir once per test.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "napletd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building napletd: %v\n%s", err, out)
	}
	return bin
}

// TestIntegrationTwoProcessDeployment builds the daemon and runs a real
// two-process deployment: host h1 carries the location service (started
// with -naming-listen alone, so it is the one-node layout) and an echo
// agent; host h2 launches a roaming agent that migrates h2 → h1 → h2 while
// keeping its connection to the echo agent — the full cross-process gob +
// docking + connection-migration path. Either host may start first.
func TestIntegrationTwoProcessDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	bin := buildDaemon(t)
	t.Run("h1-first", func(t *testing.T) { twoProcessDeployment(t, bin, false) })
	t.Run("h2-first", func(t *testing.T) { twoProcessDeployment(t, bin, true) })
}

func twoProcessDeployment(t *testing.T, bin string, h2First bool) {
	ns := freeUDPAddr(t)
	dock1 := freePort(t)
	dock2 := freePort(t)
	debug1 := freePort(t)

	var out1, out2 logBuf
	h1 := exec.Command(bin,
		"-name", "h1", "-naming-listen", ns, "-dock", dock1,
		"-debug-addr", debug1,
		"-launch", "echoer:echo",
	)
	h1.Stdout, h1.Stderr = &out1, &out1
	h2 := exec.Command(bin,
		"-name", "h2", "-naming-peers", ns, "-dock", dock2,
		"-launch", fmt.Sprintf("walker:roamer:target=echoer,docks=%s;%s,msgs=2", dock1, dock2),
	)
	h2.Stdout, h2.Stderr = &out2, &out2

	// The second host starts once the first has reached the location
	// service step: serving it (h1) or looking for it (h2).
	first, firstOut, firstUp := h1, &out1, "location service listening"
	second := h2
	if h2First {
		first, firstOut, firstUp = h2, &out2, "connecting to location service"
		second = h1
	}
	if err := first.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		first.Process.Kill()
		first.Wait()
	}()
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(firstOut.String(), firstUp) {
		if time.Now().After(deadline) {
			t.Fatalf("first host never logged %q:\n%s", firstUp, firstOut.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := second.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		second.Process.Kill()
		second.Wait()
	}()

	// The walker starts on h2, migrates to h1 (appearing in h1's log), then
	// back to h2 where it finishes.
	deadline = time.Now().Add(30 * time.Second)
	for !strings.Contains(out2.String(), "itinerary done") {
		if time.Now().After(deadline) {
			t.Fatalf("walker never finished.\n--- h1 ---\n%s\n--- h2 ---\n%s", out1.String(), out2.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !strings.Contains(out1.String(), "[walker@h1] roamer: echo") {
		t.Fatalf("walker never ran on h1:\n%s", out1.String())
	}
	if !strings.Contains(out2.String(), "[walker@h2] roamer: echo") {
		t.Fatalf("walker never ran on h2:\n%s", out2.String())
	}

	// The daemon's debug surface must reflect the migration that just ran:
	// h1 accepted the walker's connection, saw it arrive and depart, and
	// recorded per-phase suspend timings.
	snap := fetchMetrics(t, debug1)
	if snap.Counters["conn.accepts"] == 0 {
		t.Errorf("h1 /metrics conn.accepts = 0; counters = %v", snap.Counters)
	}
	if snap.Counters["migrate.arrivals"] == 0 || snap.Counters["migrate.departs"] == 0 {
		t.Errorf("h1 /metrics missing migration counters: %v", snap.Counters)
	}
	if snap.Counters["fsm.transitions"] == 0 {
		t.Error("h1 /metrics fsm.transitions = 0")
	}
	if snap.Gauges["phase.suspend.handshaking_ms"] <= 0 {
		t.Errorf("h1 /metrics phase.suspend.handshaking_ms = %v", snap.Gauges["phase.suspend.handshaking_ms"])
	}

	// -naming-listen alone is a layout of one node: the default replication
	// of 2 is clamped to it, and /namez shows h1 leading every default
	// shard, the resident echoer's record in one of them.
	if want := "3 shards x 1 replicas over 1 nodes"; !strings.Contains(out1.String(), want) {
		t.Errorf("h1 log missing the effective layout %q:\n%s", want, out1.String())
	}
	resp, err := http.Get("http://" + debug1 + "/namez?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var namez struct {
		Shards []cluster.ShardInfo `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&namez); err != nil {
		t.Fatalf("decoding /namez: %v", err)
	}
	if len(namez.Shards) != 3 {
		t.Fatalf("/namez lists %d shards, want 3: %+v", len(namez.Shards), namez.Shards)
	}
	records := 0
	for _, sh := range namez.Shards {
		if sh.Role != "leader" || sh.Leader != ns || len(sh.Replicas) != 1 {
			t.Errorf("/namez shard %d = %+v, want led by %s alone", sh.Shard, sh, ns)
		}
		records += sh.Records
	}
	if records == 0 {
		t.Error("/namez holds no records; echoer is registered")
	}
}

// TestIntegrationCrashRecovery is the fault-tolerance acceptance test: a
// napletd process streaming numbered messages is SIGKILLed mid-transfer and
// restarted with the same journal directory. Recovery must re-register the
// streaming agent, restore its connection from the journal, and drive it
// through resume so the receiver — which survives in the test process —
// observes every message exactly once, in order, across the crash.
func TestIntegrationCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	bin := buildDaemon(t)

	const total = 200

	// The surviving half of the deployment runs in this process: the
	// location service node and the sink agent, whose trace recorder checks
	// exactly-once.
	ns := freeUDPAddr(t)
	layout, err := cluster.BuildLayout([]string{ns}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	nsNode, err := cluster.NewNode(cluster.NodeConfig{Addr: ns, Layout: layout})
	if err != nil {
		t.Fatal(err)
	}
	defer nsNode.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	dir, err := cluster.NewClient(ctx, cluster.ClientConfig{Seeds: []string{ns}})
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()

	reg := naplet.NewRegistry()
	behaviors.RegisterAll(reg)
	rec := experiments.NewDeliveryRecorder()
	sink := &behaviors.Sink{Expect: total}
	sink.SetObserver(func(seq uint64, payload []byte, fromBuffer bool) {
		counter := uint64(0)
		if len(payload) >= 8 {
			counter = binary.BigEndian.Uint64(payload)
		}
		src := experiments.FromSocket
		if fromBuffer {
			src = experiments.FromBuffer
		}
		rec.Record(seq, counter, src)
	})
	node, err := naplet.NewNode(naplet.Config{
		Name:      "sinkhost",
		Directory: dir,
		Registry:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err := node.Launch("sink", sink); err != nil {
		t.Fatal(err)
	}

	jdir := t.TempDir()
	dock := freePort(t)
	debug1 := freePort(t)
	debug2 := freePort(t)
	args := func(dbg string) []string {
		return []string{
			"-name", "h1", "-naming-peers", ns, "-dock", dock,
			"-journal-dir", jdir, "-heartbeat-interval", "50ms",
			"-postoffice=false", "-debug-addr", dbg,
			"-launch", fmt.Sprintf("streamer:streamer:target=sink,count=%d,interval=5,size=32", total),
		}
	}

	var out1, out2 logBuf
	dump := func() string {
		return fmt.Sprintf("--- first run ---\n%s\n--- restart ---\n%s\n--- trace ---\n%s",
			out1.String(), out2.String(), rec.Render())
	}
	waitFor := func(cond func() bool, d time.Duration, what string) {
		t.Helper()
		deadline := time.Now().Add(d)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("%s never happened\n%s", what, dump())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	h1 := exec.Command(bin, args(debug1)...)
	h1.Stdout, h1.Stderr = &out1, &out1
	if err := h1.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	defer func() {
		if !killed {
			h1.Process.Kill()
			h1.Wait()
		}
	}()

	// Let the stream get well underway, then SIGKILL the sender mid-flight.
	waitFor(func() bool { return len(rec.Events()) >= total/4 }, 30*time.Second, "first quarter of the stream")
	if err := h1.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	h1.Wait()
	killed = true
	if n := len(rec.Events()); n >= total {
		t.Fatalf("stream already complete (%d messages) before the crash landed", n)
	}

	// Restart with the same journal directory (and, deliberately, the same
	// -launch flag: the recovered agent must make it a logged no-op).
	h2 := exec.Command(bin, args(debug2)...)
	h2.Stdout, h2.Stderr = &out2, &out2
	if err := h2.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		h2.Process.Kill()
		h2.Wait()
	}()

	waitFor(func() bool { return len(rec.Events()) >= total }, 60*time.Second, "rest of the stream after restart")

	if err := rec.VerifyExactlyOnceInOrder(); err != nil {
		t.Fatalf("reliability property violated across the crash: %v\n%s", err, dump())
	}
	if n := len(rec.Events()); n != total {
		t.Fatalf("delivered %d messages, want exactly %d\n%s", n, total, dump())
	}
	if !strings.Contains(out2.String(), "recovered 1 agent(s)") {
		t.Errorf("restart log missing journal recovery:\n%s", out2.String())
	}
	if !strings.Contains(out2.String(), "already recovered from journal") {
		t.Errorf("restart log missing redundant-launch skip:\n%s", out2.String())
	}

	// The restarted daemon's metrics must show the recovery happened: the
	// journal replayed records, the agent and its connection were restored,
	// and the failure episode's duration was measured.
	snap := fetchMetrics(t, debug2)
	if snap.Counters["journal.replayed_records"] == 0 {
		t.Errorf("/metrics journal.replayed_records = 0; counters = %v", snap.Counters)
	}
	if snap.Counters["journal.appends"] == 0 {
		t.Errorf("/metrics journal.appends = 0")
	}
	if snap.Counters["agent.recoveries"] == 0 {
		t.Errorf("/metrics agent.recoveries = 0; counters = %v", snap.Counters)
	}
	if snap.Counters["fault.conn_recoveries"] == 0 {
		t.Errorf("/metrics fault.conn_recoveries = 0; counters = %v", snap.Counters)
	}
	if h := snap.Histograms["fault.recovery_ms"]; h.Count == 0 {
		t.Errorf("/metrics fault.recovery_ms has no samples; histograms = %v", snap.Histograms)
	}
}
