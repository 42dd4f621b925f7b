package core

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"naplet/internal/obs"
)

// settledGoroutines samples runtime.NumGoroutine until it reaches target
// (when target > 0) or holds steady across consecutive samples, bounded by
// a deadline. Connection teardown is asynchronous (drainAndClose
// goroutines, redirector handshakes), so a single instantaneous sample
// would race with in-flight cleanup.
func settledGoroutines(t *testing.T, target int) int {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	last := runtime.NumGoroutine()
	for {
		time.Sleep(100 * time.Millisecond)
		n := runtime.NumGoroutine()
		if target > 0 && n <= target {
			return n
		}
		if time.Now().After(deadline) {
			return n
		}
		if target == 0 && n == last {
			return n
		}
		last = n
	}
}

// TestGoroutineCountFlatAcrossConns guards the goroutine collapse behind
// the 100k-connection target: opening and closing many connections must
// not leave per-connection goroutines behind. Steady state is
// O(transports), not O(conns) — a pass goroutine lives only while its
// connection has work — so after a churn of N connections the count must return to the post-warmup
// baseline (slack covers runtime and test-harness noise).
func TestGoroutineCountFlatAcrossConns(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"})

	churn := func(i int) {
		t.Helper()
		client, server := env.pair(fmt.Sprintf("leak-c%d", i), "h1", fmt.Sprintf("leak-s%d", i), "h2")
		if _, err := client.Write([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4)
		if _, err := io.ReadFull(server, buf); err != nil {
			t.Fatal(err)
		}
		if err := client.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Warm up the shared machinery (host-pair transports) so it lands in
	// the baseline, not in the churn delta.
	churn(-1)
	base := settledGoroutines(t, 0)

	const conns = 48
	for i := 0; i < conns; i++ {
		churn(i)
	}

	const slack = 8
	after := settledGoroutines(t, base+slack)
	if after > base+slack {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutines grew from %d to %d after churning %d conns (slack %d)\n%s",
			base, after, conns, slack, buf[:n])
	}
	t.Logf("goroutines: baseline %d, after %d conns: %d", base, conns, after)
}

// TestCloseInterruptsRetryingDial: the retry loops of Dial, suspend, resume
// and SUS_RES sleep between attempts, and a sleep Close cannot interrupt
// keeps its goroutine (and the caller blocked in it) alive for the rest of
// the park window. Close must end a Dial that is retrying against an agent
// nobody registered.
func TestCloseInterruptsRetryingDial(t *testing.T) {
	base := settledGoroutines(t, 0)
	met := obs.NewRegistry()
	env := newEnv(t, []string{"h1"}, func(c *Config) { c.Metrics = met })
	h := env.hosts["h1"]
	env.place("caller", "h1")

	dialed := make(chan error, 1)
	go func() {
		_, err := h.ctrl.DialAs("caller", h.cred("caller"), "nobody")
		dialed <- err
	}()
	// Five failed attempts in, the backoff between them is 160 ms and up:
	// Close all but certainly lands while the dial is asleep.
	retrying := time.After(10 * time.Second)
	for met.Snapshot().Counters["conn.open_errors"] < 5 {
		select {
		case err := <-dialed:
			t.Fatalf("dial to an unregistered agent gave up early: %v", err)
		case <-retrying:
			t.Fatal("dial never started retrying")
		case <-time.After(5 * time.Millisecond):
		}
	}
	h.ctrl.Close()
	closedAt := time.Now()
	select {
	case err := <-dialed:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("dial returned %v, want ErrClosed", err)
		}
		if late := time.Since(closedAt); late > 50*time.Millisecond {
			t.Fatalf("dial returned %v after Close", late)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dial still retrying 5 s after Close")
	}
	const slack = 2
	if after := settledGoroutines(t, base+slack); after > base+slack {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutines grew from %d to %d\n%s", base, after, buf[:n])
	}
}

// TestCloseDuringResumeDialLogsNothingAfter: a broken connection resumes at
// once, so a host that closes soon after a break closes on a recovery in
// flight — here its resume is dialing the fresh transport. Once Close has
// returned nothing of the host may write to its log: the line could land in
// a test that has already ended. The low-priority side's backstop fires
// inside the window watched, too.
func TestCloseDuringResumeDialLogsNothingAfter(t *testing.T) {
	var mu sync.Mutex
	var late []string
	closed := map[string]*atomic.Bool{"h1": {}, "h2": {}}
	tap := &connTap{}
	var blocked atomic.Bool
	dialing, release := make(chan struct{}, 1), make(chan struct{})
	defer close(release)
	env := newEnv(t, []string{"h1", "h2"},
		func(c *Config) {
			host, done := c.HostName, closed[c.HostName]
			c.Logger = obs.NewLogger(func(format string, args ...any) {
				if done.Load() {
					mu.Lock()
					late = append(late, host+": "+fmt.Sprintf(format, args...))
					mu.Unlock()
				}
			}, obs.LevelDebug)
		},
		onHost("h1", func(c *Config) {
			c.WrapData = tap.wrap
			c.DialData = func(addr string, timeout time.Duration) (net.Conn, error) {
				if !blocked.Load() {
					return net.DialTimeout("tcp", addr, timeout)
				}
				select {
				case dialing <- struct{}{}:
				default:
				}
				<-release
				return nil, net.ErrClosed
			}
		}))
	client, server := env.pair("cli", "h1", "srv", "h2") // cli holds the priority: it resumes at once
	if err := client.WriteMsg([]byte("before")); err != nil {
		t.Fatal(err)
	}
	if _, err := server.ReadMsg(); err != nil {
		t.Fatal(err)
	}

	blocked.Store(true)
	tap.killLatest()
	select {
	case <-dialing:
	case <-time.After(10 * time.Second):
		t.Fatal("the recovery never dialed a fresh transport")
	}
	for _, h := range []string{"h1", "h2"} {
		env.hosts[h].ctrl.Close()
		closed[h].Store(true)
	}
	time.Sleep(lowPriorityBackstop + 200*time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if len(late) > 0 {
		t.Fatalf("%d lines logged after Close returned:\n%s", len(late), strings.Join(late, "\n"))
	}
}
