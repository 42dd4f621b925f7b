package core

import (
	"context"
	"testing"
	"time"
)

// These tests cover the controller's migration-aware location cache: the
// Locator wrapper that serves repeat lookups locally and is kept coherent
// by the SUS/SUS_RES/RES control messages instead of TTL expiry.

func (e *testEnv) lookupVia(host, agentID string) (string, uint64) {
	e.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rec, err := e.hosts[host].ctrl.loc.Lookup(ctx, agentID)
	if err != nil {
		e.t.Fatalf("lookup %s via %s: %v", agentID, host, err)
	}
	return rec.Loc.ControlAddr, rec.Epoch
}

func TestLocationCacheAdvancedByResume(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2", "h3"})
	client, server := env.pair("mover", "h1", "anchor", "h2")
	defer client.Close()

	// Suspend first (the SUS lands at h2 before its cache holds the
	// mover), then let h2 cache the mover's now-stale pre-migration
	// record — the window a slow lookup response naturally creates.
	blob, err := env.hosts["h1"].ctrl.PreDepart("mover")
	if err != nil {
		t.Fatal(err)
	}
	if addr, epoch := env.lookupVia("h2", "mover"); epoch != 1 || addr != env.hosts["h1"].ctrl.ControlAddr() {
		t.Fatalf("pre-migration record: %s @%d", addr, epoch)
	}

	// The mover lands on h3 at epoch 2; its RES toward h2 carries the new
	// addresses and the stamped epoch, which must advance h2's stale entry
	// without a registry round trip.
	if err := env.svc.Update("mover", env.hosts["h3"].loc(), 2); err != nil {
		t.Fatal(err)
	}
	env.hosts["h3"].ctrl.NoteLocationEpoch("mover", 2)
	if err := env.hosts["h3"].ctrl.PostArrive("mover", blob); err != nil {
		t.Fatal(err)
	}
	moved, err := env.hosts["h3"].ctrl.AgentSocket("mover", client.ID())
	if err != nil {
		t.Fatal(err)
	}
	waitEstablished(t, moved, server)

	st, ok := env.hosts["h2"].ctrl.LocationCacheStats()
	if !ok {
		t.Fatal("location cache unexpectedly disabled")
	}
	if st.Advances == 0 {
		t.Fatalf("RES did not advance the cache: %+v", st)
	}
	hitsBefore := st.Hits
	addr, epoch := env.lookupVia("h2", "mover")
	if epoch != 2 || addr != env.hosts["h3"].ctrl.ControlAddr() {
		t.Fatalf("post-advance record: %s @%d, want h3 @2", addr, epoch)
	}
	if st, _ = env.hosts["h2"].ctrl.LocationCacheStats(); st.Hits != hitsBefore+1 {
		t.Fatalf("advanced entry not served from cache: %+v", st)
	}
}

func TestLocationCacheInvalidatedBySuspend(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2", "h3"})
	client, _ := env.pair("mover", "h1", "anchor", "h2")
	defer client.Close()

	// h2 caches the mover's location while the connection is live.
	env.lookupVia("h2", "mover")
	if st, _ := env.hosts["h2"].ctrl.LocationCacheStats(); st.Invalidations != 0 {
		t.Fatalf("premature invalidation: %+v", st)
	}

	// The mover's suspend reaches h2 as part of PreDepart; the cached
	// entry must be evicted proactively — not by waiting out a TTL.
	blob, err := env.hosts["h1"].ctrl.PreDepart("mover")
	if err != nil {
		t.Fatal(err)
	}
	st, _ := env.hosts["h2"].ctrl.LocationCacheStats()
	if st.Invalidations == 0 {
		t.Fatalf("SUS did not invalidate the cached location: %+v", st)
	}

	// Finish the migration so the teardown is orderly.
	if err := env.svc.Update("mover", env.hosts["h3"].loc(), 2); err != nil {
		t.Fatal(err)
	}
	if err := env.hosts["h3"].ctrl.PostArrive("mover", blob); err != nil {
		t.Fatal(err)
	}
	if addr, epoch := env.lookupVia("h2", "mover"); epoch != 2 || addr != env.hosts["h3"].ctrl.ControlAddr() {
		t.Fatalf("post-migration record: %s @%d, want h3 @2", addr, epoch)
	}
}

func TestLocationCacheUnstampedResumeInvalidates(t *testing.T) {
	// A mover whose host never noted an epoch stamps LocEpoch 0; the
	// receiver must treat that as "invalidate unconditionally" so the
	// stale entry cannot outlive the RES.
	env := newEnv(t, []string{"h1", "h2", "h3"})
	client, server := env.pair("mover", "h1", "anchor", "h2")
	defer client.Close()

	blob, err := env.hosts["h1"].ctrl.PreDepart("mover")
	if err != nil {
		t.Fatal(err)
	}
	env.lookupVia("h2", "mover") // stale fill at epoch 1
	if err := env.svc.Update("mover", env.hosts["h3"].loc(), 2); err != nil {
		t.Fatal(err)
	}
	// Deliberately no NoteLocationEpoch on h3.
	if err := env.hosts["h3"].ctrl.PostArrive("mover", blob); err != nil {
		t.Fatal(err)
	}
	moved, err := env.hosts["h3"].ctrl.AgentSocket("mover", client.ID())
	if err != nil {
		t.Fatal(err)
	}
	waitEstablished(t, moved, server)

	if addr, epoch := env.lookupVia("h2", "mover"); epoch != 2 || addr != env.hosts["h3"].ctrl.ControlAddr() {
		t.Fatalf("stale entry survived unstamped RES: %s @%d", addr, epoch)
	}
}

func TestNoteLocationEpochMonotonic(t *testing.T) {
	env := newEnv(t, []string{"h1"})
	ctrl := env.hosts["h1"].ctrl
	ctrl.NoteLocationEpoch("a", 3)
	ctrl.NoteLocationEpoch("a", 2) // out-of-order note must not regress
	if got := ctrl.locationEpoch("a"); got != 3 {
		t.Fatalf("epoch regressed to %d", got)
	}
	ctrl.NoteLocationEpoch("a", 0) // forget
	if got := ctrl.locationEpoch("a"); got != 0 {
		t.Fatalf("epoch not forgotten: %d", got)
	}
}
