package agent

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"testing"
	"time"

	"naplet/internal/naming"
	"naplet/internal/obs"
	"naplet/internal/security"
)

// testEnv bundles the shared services of a simulated deployment.
type testEnv struct {
	svc      *naming.Service
	registry *Registry
	hosts    []*Host
	carrier  *carrier
}

// carrier moves bundles between the hosts of one test deployment in
// process: a bundle for dest goes straight to the arrive func docked under
// that data address.
type carrier struct {
	mu     sync.Mutex
	docked map[string]func([]byte) error
}

// hostCarrier is one host's Carrier hook onto the deployment's carrier.
type hostCarrier struct {
	c    *carrier
	addr string
}

func (hostCarrier) HookName() string                 { return "carrier" }
func (hostCarrier) PreDepart(string) ([]byte, error) { return nil, nil }
func (hostCarrier) PostArrive(string, []byte) error  { return nil }
func (hostCarrier) OnTerminate(string)               {}
func (hc hostCarrier) Dock(arrive func(bundle []byte) error) {
	hc.c.mu.Lock()
	defer hc.c.mu.Unlock()
	hc.c.docked[hc.addr] = arrive
}

func (hc hostCarrier) Carry(_, dest string, bundle []byte) error {
	hc.c.mu.Lock()
	arrive := hc.c.docked[dest]
	hc.c.mu.Unlock()
	if arrive == nil {
		return fmt.Errorf("no host at %s", dest)
	}
	return arrive(bundle)
}

func newEnv(t *testing.T, hostNames ...string) *testEnv {
	t.Helper()
	return newEnvLogging(t, obs.NewLogger(t.Logf, obs.LevelDebug), hostNames...)
}

// newEnvLogging is newEnv with every host logging to logger.
func newEnvLogging(t *testing.T, logger *obs.Logger, hostNames ...string) *testEnv {
	t.Helper()
	env := &testEnv{svc: naming.NewService(), registry: NewRegistry(),
		carrier: &carrier{docked: make(map[string]func([]byte) error)}}
	registerTestBehaviors(env.registry)
	for _, name := range hostNames {
		guard, err := security.NewGuard(security.NewStore(security.AllowAgentAll()...))
		if err != nil {
			t.Fatal(err)
		}
		h, err := NewHost(Config{
			Name:        name,
			ControlAddr: name + "/control",
			DataAddr:    name + "/data",
			Directory:   naming.Local{Svc: env.svc},
			Registry:    env.registry,
			Guard:       guard,
			Logger:      logger,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { h.Close() })
		h.AddHook(hostCarrier{c: env.carrier, addr: h.Location().DataAddr})
		env.hosts = append(env.hosts, h)
	}
	return env
}

func (e *testEnv) host(name string) *Host {
	for _, h := range e.hosts {
		if h.Name() == name {
			return h
		}
	}
	return nil
}

// dest returns the address agents migrate to the named host by.
func (e *testEnv) dest(name string) string { return e.host(name).Location().DataAddr }

// awaitGone polls the directory until the agent is deregistered.
func (e *testEnv) awaitGone(t *testing.T, agentID string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := e.svc.Lookup(context.Background(), agentID); errors.Is(err, naming.ErrNotFound) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("agent %s never deregistered", agentID)
}

// ---- test behaviours ----

// results collects behaviour outputs across hops; keyed by agent id.
var results = struct {
	sync.Mutex
	visited map[string][]string
}{visited: make(map[string][]string)}

func recordVisit(agentID, host string) {
	results.Lock()
	defer results.Unlock()
	results.visited[agentID] = append(results.visited[agentID], host)
}

func visits(agentID string) []string {
	results.Lock()
	defer results.Unlock()
	return append([]string(nil), results.visited[agentID]...)
}

// hopper walks a fixed itinerary of host addresses, then terminates.
type hopper struct {
	Docks []string
}

func (hp *hopper) Run(ctx *Context) error {
	recordVisit(ctx.AgentID(), fmt.Sprintf("%s#%d", ctx.HostName(), ctx.Epoch()))
	if len(hp.Docks) == 0 {
		return nil
	}
	next := hp.Docks[0]
	hp.Docks = hp.Docks[1:]
	return ctx.MigrateTo(next)
}

// chattyHopper is a hopper that also logs through its Context on every host.
type chattyHopper struct {
	Docks []string
}

func (c *chattyHopper) Run(ctx *Context) error {
	ctx.Logf("visiting %s", ctx.HostName())
	recordVisit(ctx.AgentID(), ctx.HostName())
	if len(c.Docks) == 0 {
		return nil
	}
	next := c.Docks[0]
	c.Docks = c.Docks[1:]
	return ctx.MigrateTo(next)
}

// failer fails immediately with a recognizable error.
type failer struct{}

var errBoom = errors.New("boom")

func (failer) Run(*Context) error { return errBoom }

// badHopper tries to migrate to an unreachable host once, then terminates.
type badHopper struct {
	Tried bool
}

func (b *badHopper) Run(ctx *Context) error {
	recordVisit(ctx.AgentID(), ctx.HostName())
	if !b.Tried {
		b.Tried = true
		return ctx.MigrateTo("127.0.0.1:1") // nothing listens here
	}
	return nil
}

// sleeper runs until its context is cancelled.
type sleeper struct{}

func (sleeper) Run(ctx *Context) error {
	<-ctx.Done()
	return nil
}

func registerTestBehaviors(r *Registry) {
	r.Register("test.hopper", &hopper{})
	r.Register("test.chattyHopper", &chattyHopper{})
	r.Register("test.failer", failer{})
	r.Register("test.badHopper", &badHopper{})
	r.Register("test.sleeper", sleeper{})
}

// ---- tests ----

func TestLaunchAndTerminate(t *testing.T) {
	env := newEnv(t, "h1")
	if err := env.host("h1").Launch("a1", &hopper{}); err != nil {
		t.Fatal(err)
	}
	env.awaitGone(t, "a1")
	got := visits("a1")
	if len(got) != 1 || got[0] != "h1#1" {
		t.Fatalf("visits = %v", got)
	}
}

func TestLaunchRegistersLocation(t *testing.T) {
	env := newEnv(t, "h1")
	if err := env.host("h1").Launch("a2", sleeper{}); err != nil {
		t.Fatal(err)
	}
	rec, err := env.svc.Lookup(context.Background(), "a2")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Loc.Host != "h1" || rec.Epoch != 1 {
		t.Fatalf("record = %+v", rec)
	}
	if rec.Loc.DataAddr != env.dest("h1") {
		t.Fatalf("data addr = %q, want %q", rec.Loc.DataAddr, env.dest("h1"))
	}
}

func TestMigrationAcrossThreeHosts(t *testing.T) {
	env := newEnv(t, "h1", "h2", "h3")
	itinerary := []string{env.dest("h2"), env.dest("h3")}
	if err := env.host("h1").Launch("walker", &hopper{Docks: itinerary}); err != nil {
		t.Fatal(err)
	}
	env.awaitGone(t, "walker")
	got := visits("walker")
	want := []string{"h1#1", "h2#2", "h3#3"}
	if len(got) != len(want) {
		t.Fatalf("visits = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("visits = %v, want %v", got, want)
		}
	}
	// The trace in the directory recorded every hop with growing epochs.
	tr := env.svc.Trace("walker")
	if len(tr) != 3 {
		t.Fatalf("trace = %+v", tr)
	}
	for i, m := range tr {
		if m.Epoch != uint64(i+1) {
			t.Fatalf("trace epoch[%d] = %d", i, m.Epoch)
		}
	}
}

func TestWaitLocalReportsMigration(t *testing.T) {
	env := newEnv(t, "h1", "h2")
	dest := env.dest("h2")
	if err := env.host("h1").Launch("w", &hopper{Docks: []string{dest}}); err != nil {
		t.Fatal(err)
	}
	exit, err := env.host("h1").WaitLocal(context.Background(), "w")
	if err != nil {
		// The agent may already have left; that's a test race, not a bug.
		t.Skipf("agent already departed: %v", err)
	}
	if exit.Status != StatusMigrating || exit.Dest != dest {
		t.Fatalf("exit = %+v", exit)
	}
	env.awaitGone(t, "w")
}

func TestDuplicateLaunchRejected(t *testing.T) {
	env := newEnv(t, "h1")
	if err := env.host("h1").Launch("dup", sleeper{}); err != nil {
		t.Fatal(err)
	}
	if err := env.host("h1").Launch("dup", sleeper{}); err == nil {
		t.Fatal("duplicate launch accepted")
	}
}

func TestFailedAgentDeregisters(t *testing.T) {
	env := newEnv(t, "h1")
	if err := env.host("h1").Launch("f", failer{}); err != nil {
		t.Fatal(err)
	}
	env.awaitGone(t, "f")
}

func TestMigrationFailureReArrivesLocally(t *testing.T) {
	env := newEnv(t, "h1")
	if err := env.host("h1").Launch("bad", &badHopper{}); err != nil {
		t.Fatal(err)
	}
	env.awaitGone(t, "bad")
	got := visits("bad")
	// Ran once, failed to migrate, re-entered locally, terminated.
	if len(got) != 2 || got[0] != "h1" || got[1] != "h1" {
		t.Fatalf("visits = %v", got)
	}
}

func TestKill(t *testing.T) {
	env := newEnv(t, "h1")
	if err := env.host("h1").Launch("sl", sleeper{}); err != nil {
		t.Fatal(err)
	}
	if err := env.host("h1").Kill("sl"); err != nil {
		t.Fatal(err)
	}
	env.awaitGone(t, "sl")
	if err := env.host("h1").Kill("sl"); err == nil {
		t.Fatal("kill of absent agent succeeded")
	}
}

// recorderHook checks hook plumbing: the blob produced on departure arrives
// intact at the destination.
type recorderHook struct {
	name string
	mu   sync.Mutex
	log  []string
}

func (r *recorderHook) HookName() string { return r.name }

func (r *recorderHook) PreDepart(agentID string) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.log = append(r.log, "depart:"+agentID)
	return []byte("state-of-" + agentID), nil
}

func (r *recorderHook) PostArrive(agentID string, blob []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.log = append(r.log, fmt.Sprintf("arrive:%s:%s", agentID, blob))
	return nil
}

func (r *recorderHook) OnTerminate(agentID string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.log = append(r.log, "terminate:"+agentID)
}

func (r *recorderHook) entries() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.log...)
}

func TestHooksRunAroundMigration(t *testing.T) {
	env := newEnv(t, "h1", "h2")
	hook := &recorderHook{name: "rec"}
	env.host("h1").AddHook(hook)
	env.host("h2").AddHook(hook) // same recorder on both hosts

	if err := env.host("h1").Launch("hk", &hopper{Docks: []string{env.dest("h2")}}); err != nil {
		t.Fatal(err)
	}
	env.awaitGone(t, "hk")
	got := hook.entries()
	want := []string{"depart:hk", "arrive:hk:state-of-hk", "terminate:hk"}
	if len(got) != len(want) {
		t.Fatalf("hook log = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hook log = %v, want %v", got, want)
		}
	}
}

// blockingHook fails PreDepart, forcing local re-arrival.
type blockingHook struct {
	recorderHook
	failDepart bool
}

func (b *blockingHook) PreDepart(agentID string) ([]byte, error) {
	if b.failDepart {
		b.failDepart = false
		return nil, errors.New("injected depart failure")
	}
	return b.recorderHook.PreDepart(agentID)
}

func TestHookDepartFailureKeepsAgentRunning(t *testing.T) {
	env := newEnv(t, "h1", "h2")
	hook := &blockingHook{recorderHook: recorderHook{name: "blk"}, failDepart: true}
	env.host("h1").AddHook(hook)

	// The hopper will try to migrate; the first PreDepart fails, the agent
	// re-runs locally and tries again, which succeeds. The itinerary is
	// consumed before PreDepart runs, so Run retries with an empty
	// itinerary and terminates on h1.
	if err := env.host("h1").Launch("hb", &hopper{Docks: []string{env.dest("h2")}}); err != nil {
		t.Fatal(err)
	}
	env.awaitGone(t, "hb")
	got := visits("hb")
	if len(got) < 2 {
		t.Fatalf("visits = %v, want at least 2 local runs", got)
	}
}

func TestExtensions(t *testing.T) {
	env := newEnv(t, "h1")
	type svc struct{ n int }
	env.host("h1").SetExtension("x", &svc{n: 7})
	got, ok := env.host("h1").Extension("x").(*svc)
	if !ok || got.n != 7 {
		t.Fatalf("extension = %v", env.host("h1").Extension("x"))
	}
	if env.host("h1").Extension("missing") != nil {
		t.Fatal("missing extension non-nil")
	}
}

func TestHostCloseStopsAgents(t *testing.T) {
	env := newEnv(t, "h1")
	h := env.host("h1")
	if err := h.Launch("s1", sleeper{}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		h.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return; agent goroutine leaked")
	}
	if err := h.Launch("s2", sleeper{}); err == nil {
		t.Fatal("launch on closed host accepted")
	}
}

// lockedBuffer is an io.Writer safe for the standard logger's concurrent
// writers.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestNoLoggerIsSilent: a host built without a Logger writes nothing to the
// standard logger across an agent's launch, its migration (logging through
// its Context on both hosts), its finish and the hosts' close.
func TestNoLoggerIsSilent(t *testing.T) {
	var out lockedBuffer
	prev := log.Writer()
	log.SetOutput(&out)
	defer log.SetOutput(prev)

	env := newEnvLogging(t, nil, "h1", "h2")
	if err := env.host("h1").Launch("quiet", &chattyHopper{Docks: []string{env.dest("h2")}}); err != nil {
		t.Fatal(err)
	}
	env.awaitGone(t, "quiet")
	if got := visits("quiet"); len(got) != 2 {
		t.Fatalf("visits = %v, want h1 then h2", got)
	}
	for _, h := range env.hosts {
		h.Close()
	}
	if s := out.String(); s != "" {
		t.Fatalf("a host without a logger wrote to the standard logger:\n%s", s)
	}
}

func TestConfigValidation(t *testing.T) {
	guard, _ := security.NewGuard(security.NewStore())
	svc := naming.NewService()
	cases := []Config{
		{},
		{Name: "h", Registry: NewRegistry(), Guard: guard},                         // no directory
		{Name: "h", Directory: naming.Local{Svc: svc}, Guard: guard},               // no registry
		{Name: "h", Directory: naming.Local{Svc: svc}, Registry: NewRegistry()},    // no guard
		{Directory: naming.Local{Svc: svc}, Registry: NewRegistry(), Guard: guard}, // no name
	}
	for i, cfg := range cases {
		if _, err := NewHost(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestResidents(t *testing.T) {
	env := newEnv(t, "h1")
	env.host("h1").Launch("r1", sleeper{})
	env.host("h1").Launch("r2", sleeper{})
	res := env.host("h1").Residents()
	if len(res) != 2 {
		t.Fatalf("residents = %v", res)
	}
}

func TestConcurrentMigrationsBetweenHosts(t *testing.T) {
	env := newEnv(t, "h1", "h2")
	d1, d2 := env.dest("h1"), env.dest("h2")
	const n = 16
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("swarm-%d", i)
		// Each agent ping-pongs h1 -> h2 -> h1 -> h2 then exits.
		if err := env.host("h1").Launch(id, &hopper{Docks: []string{d2, d1, d2}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		env.awaitGone(t, fmt.Sprintf("swarm-%d", i))
	}
	for i := 0; i < n; i++ {
		got := visits(fmt.Sprintf("swarm-%d", i))
		if len(got) != 4 {
			t.Fatalf("agent %d visits = %v", i, got)
		}
	}
}

// contextProbe checks every Context accessor from inside a behaviour.
type contextProbe struct{}

func (contextProbe) Run(ctx *Context) error {
	recordVisit(ctx.AgentID(), ctx.HostName())
	if ctx.StdContext() == nil || ctx.StdContext().Err() != nil {
		return errBoom
	}
	var zero [32]byte
	if ctx.Credential() == zero {
		return errBoom
	}
	if ctx.Host() == nil {
		return errBoom
	}
	if ctx.Extension("probe-svc") == nil {
		return errBoom
	}
	ctx.Logf("probe on %s epoch %d", ctx.HostName(), ctx.Epoch())
	return nil
}

func TestContextAccessors(t *testing.T) {
	env := newEnv(t, "h1")
	env.registry.Register("test.contextProbe", contextProbe{})
	env.host("h1").SetExtension("probe-svc", struct{}{})
	if err := env.host("h1").Launch("probe", contextProbe{}); err != nil {
		t.Fatal(err)
	}
	env.awaitGone(t, "probe")
	if got := visits("probe"); len(got) != 1 {
		t.Fatalf("probe never ran: %v", got)
	}
}

// regProbe is a dedicated type so registry tests do not collide with the
// process-global gob registrations of the other test behaviours.
type regProbe struct{ sleeper }

func TestRegistryRegistered(t *testing.T) {
	r := NewRegistry()
	if r.Registered("test.regProbe") {
		t.Fatal("empty registry claims registration")
	}
	r.Register("test.regProbe", regProbe{})
	if !r.Registered("test.regProbe") {
		t.Fatal("registration not recorded")
	}
	r.Register("test.regProbe", regProbe{}) // same name: no-op
	// Same type under another name must not panic (gob keeps the first).
	r.Register("test.regProbe.alias", regProbe{})
	if !r.Registered("test.regProbe.alias") {
		t.Fatal("alias registration not recorded")
	}
}

func TestStatusStrings(t *testing.T) {
	names := map[Status]string{
		StatusRunning: "running", StatusMigrating: "migrating",
		StatusDone: "done", StatusFailed: "failed",
	}
	for st, want := range names {
		if st.String() != want {
			t.Errorf("%d.String() = %q", st, st.String())
		}
	}
	if Status(99).String() == "" {
		t.Error("unknown status has empty name")
	}
}

func TestAgentStatusAndAccessors(t *testing.T) {
	env := newEnv(t, "h1")
	h := env.host("h1")
	if h.Guard() == nil || h.Directory() == nil {
		t.Fatal("accessors returned nil")
	}
	if _, ok := h.AgentStatus("nobody"); ok {
		t.Fatal("status for absent agent")
	}
	if err := h.Launch("st", sleeper{}); err != nil {
		t.Fatal(err)
	}
	if st, ok := h.AgentStatus("st"); !ok || st != StatusRunning {
		t.Fatalf("status = %v, %v", st, ok)
	}
	h.Kill("st")
	env.awaitGone(t, "st")
}
