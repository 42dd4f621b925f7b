package core

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"naplet/internal/obs"
)

// bundleSink is a docked receiver that records what it is handed and
// refuses one recognisable bundle.
type bundleSink struct {
	mu  sync.Mutex
	got [][]byte
}

func (b *bundleSink) arrive(bundle []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.got = append(b.got, bundle)
	if string(bundle) == "refuse me" {
		return errors.New("not resident material")
	}
	return nil
}

func (b *bundleSink) received() [][]byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([][]byte(nil), b.got...)
}

// A carried bundle reaches the destination's docked receiver byte for
// byte, a refusal comes back as Carry's error, and the dial the first hop
// pays for lands in the migration trace published under the agent id.
func TestCarryDeliversToDockedReceiver(t *testing.T) {
	tr := obs.NewTracer("h1")
	env := newEnv(t, []string{"h1", "h2"}, onHost("h1", func(c *Config) { c.Tracer = tr }))
	h1, h2 := env.hosts["h1"].ctrl, env.hosts["h2"].ctrl
	sink := &bundleSink{}
	h2.Dock(sink.arrive)

	root := tr.StartTrace("migrate mover")
	tr.SetActive("mover", root.Context())
	bundle := bytes.Repeat([]byte("agent state "), 20000) // spans many mux frames
	if err := h1.Carry("mover", h2.DataAddr(), bundle); err != nil {
		t.Fatalf("carry: %v", err)
	}
	tr.ClearActive("mover")
	root.End()
	if got := sink.received(); len(got) != 1 || !bytes.Equal(got[0], bundle) {
		t.Fatalf("receiver got %d bundles (want 1 of %d bytes)", len(got), len(bundle))
	}

	err := h1.Carry("mover", h2.DataAddr(), []byte("refuse me"))
	if err == nil || !strings.Contains(err.Error(), "not resident material") {
		t.Fatalf("refused carry returned %v, want the receiver's error text", err)
	}

	dialed := false
	for _, snap := range tr.Snapshot() {
		if snap.ID != root.Context().Trace.String() {
			continue
		}
		for _, sp := range snap.Spans {
			dialed = dialed || sp.Name == "transport.dial"
		}
	}
	if !dialed {
		t.Fatal("the hop's transport dial is not in the migration trace")
	}
}

// Hops to a host this one already shares a warm transport with make no new
// kernel dial, however many run at once: each bundle is one more stream.
func TestCarryRidesWarmTransport(t *testing.T) {
	const hops = 8
	var dials atomic.Int64
	env := newEnv(t, []string{"h1", "h2"}, countingDialer(&dials))
	client, _ := env.pair("a", "h1", "b", "h2")
	defer client.Close()
	sink := &bundleSink{}
	env.hosts["h2"].ctrl.Dock(sink.arrive)
	before := dials.Load()
	var wg sync.WaitGroup
	for i := 0; i < hops; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := env.hosts["h1"].ctrl.Carry("mover", env.hosts["h2"].ctrl.DataAddr(), []byte("hop")); err != nil {
				t.Errorf("carry %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if got := dials.Load(); got != before || before != 1 {
		t.Fatalf("kernel dials %d before the hops, %d after; want 1 and 1", before, got)
	}
	if n := len(sink.received()); n != hops {
		t.Fatalf("receiver got %d bundles, want %d", n, hops)
	}
}

// With no agent runtime docked at the destination the open is refused at
// the handoff, and Carry says so at once rather than at the deadline.
func TestCarryWithoutDockFailsPromptly(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"})
	start := time.Now()
	err := env.hosts["h1"].ctrl.Carry("mover", env.hosts["h2"].ctrl.DataAddr(), []byte("bundle"))
	if err == nil {
		t.Fatal("carry to a host with nothing docked succeeded")
	}
	if elapsed := time.Since(start); elapsed > carryTimeout/10 {
		t.Fatalf("refusal took %v (%v)", elapsed, err)
	}
}

// A bundle one byte past maxCarryBytes is refused once that many bytes are
// read — never handed to the receiver — and the transport it rode keeps
// serving the established connection beside it.
func TestCarryRefusesOversizeBundle(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2"})
	client, server := env.pair("a", "h1", "b", "h2")
	defer client.Close()
	sink := &bundleSink{}
	env.hosts["h2"].ctrl.Dock(sink.arrive)

	err := env.hosts["h1"].ctrl.Carry("mover", env.hosts["h2"].ctrl.DataAddr(), make([]byte, maxCarryBytes+1))
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversize carry returned %v, want a size refusal", err)
	}
	if n := len(sink.received()); n != 0 {
		t.Fatalf("receiver was handed %d oversize bundles", n)
	}
	if err := client.WriteMsg([]byte("still here")); err != nil {
		t.Fatal(err)
	}
	if m, err := server.ReadMsg(); err != nil || string(m) != "still here" {
		t.Fatalf("read %q, %v after the refused bundle", m, err)
	}
}
