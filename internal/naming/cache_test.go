package naming

import (
	"context"
	"errors"
	"testing"
	"time"

	"naplet/internal/obs"
)

// countingResolver counts how often the authoritative resolver is hit.
type countingResolver struct {
	svc   *Service
	calls int
}

func (c *countingResolver) Lookup(ctx context.Context, id string) (Record, error) {
	c.calls++
	return c.svc.Lookup(ctx, id)
}

func cacheLoc(host string) Location {
	return Location{Host: host, ControlAddr: host + ":1", DataAddr: host + ":2", MailAddr: host + ":3"}
}

func TestCacheHitsAndMetrics(t *testing.T) {
	svc := NewService()
	if err := svc.Register("a", cacheLoc("h1")); err != nil {
		t.Fatal(err)
	}
	cr := &countingResolver{svc: svc}
	reg := obs.NewRegistry()
	c := NewCache(cr, CacheConfig{Metrics: reg})
	ctx := context.Background()

	for i := 0; i < 5; i++ {
		rec, err := c.Lookup(ctx, "a")
		if err != nil || rec.Loc.Host != "h1" {
			t.Fatalf("lookup %d: %+v, %v", i, rec, err)
		}
	}
	if cr.calls != 1 {
		t.Fatalf("resolver hit %d times for 5 lookups, want 1", cr.calls)
	}
	if got := reg.Counter("naming.cache_hits").Value(); got != 4 {
		t.Fatalf("cache_hits = %d, want 4", got)
	}
	if got := reg.Counter("naming.cache_misses").Value(); got != 1 {
		t.Fatalf("cache_misses = %d, want 1", got)
	}
	st := c.Stats()
	if st.HitRate < 0.79 || st.HitRate > 0.81 {
		t.Fatalf("hit rate = %v, want 0.8", st.HitRate)
	}

	// Misses for unknown agents do not poison the cache.
	if _, err := c.Lookup(ctx, "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ghost lookup: %v", err)
	}
}

func TestCacheInvalidation(t *testing.T) {
	svc := NewService()
	svc.Register("a", cacheLoc("h1"))
	cr := &countingResolver{svc: svc}
	c := NewCache(cr, CacheConfig{})
	ctx := context.Background()

	c.Lookup(ctx, "a") // fill at epoch 1

	// The agent migrates; until invalidated, the cache serves the old
	// location (that is the deal — invalidation is proactive, not TTL).
	svc.Update("a", cacheLoc("h2"), 2)
	rec, _ := c.Lookup(ctx, "a")
	if rec.Loc.Host != "h1" {
		t.Fatalf("expected cached (stale) h1 before invalidation, got %s", rec.Loc.Host)
	}

	// Invalidation evicts: the next lookup asks the registry again.
	before := cr.calls
	c.Invalidate("a")
	rec, err := c.Lookup(ctx, "a")
	if err != nil || rec.Loc.Host != "h2" || rec.Epoch != 2 || cr.calls != before+1 {
		t.Fatalf("after invalidation: %+v, %v (%d resolver calls, want %d)", rec, err, cr.calls, before+1)
	}
}

func TestCacheEpochGuardAgainstStaleFill(t *testing.T) {
	// A migration notification (Advance) lands while a slower lookup
	// response from before the migration is still in flight; the stale
	// fill must not overwrite the fresher cached epoch.
	svc := NewService()
	svc.Register("a", cacheLoc("h1"))
	c := NewCache(&countingResolver{svc: svc}, CacheConfig{})
	ctx := context.Background()
	c.Lookup(ctx, "a") // epoch 1 cached

	c.Advance("a", Location{ControlAddr: "h2:1", DataAddr: "h2:2"}, 2)
	rec, _ := c.Lookup(ctx, "a")
	if rec.Epoch != 2 || rec.Loc.DataAddr != "h2:2" {
		t.Fatalf("advance did not take: %+v", rec)
	}
	if rec.Loc.MailAddr != "h1:3" {
		t.Fatalf("advance must keep unannounced fields: %+v", rec)
	}

	// The stale (epoch 1) fill arrives late.
	stale := Record{AgentID: "a", Loc: cacheLoc("h1"), Epoch: 1}
	if got := c.fill(stale); got.Epoch != 2 {
		t.Fatalf("stale fill won: %+v", got)
	}
	rec, _ = c.Lookup(ctx, "a")
	if rec.Epoch != 2 {
		t.Fatalf("stale fill evicted fresher entry: %+v", rec)
	}

	// Advance at or below the cached epoch is ignored.
	c.Advance("a", Location{DataAddr: "old:9"}, 2)
	rec, _ = c.Lookup(ctx, "a")
	if rec.Loc.DataAddr != "h2:2" {
		t.Fatalf("stale advance took effect: %+v", rec)
	}
	// Advance for an uncached agent fabricates nothing.
	c.Advance("b", Location{DataAddr: "x:1"}, 5)
	if c.Stats().Entries != 1 {
		t.Fatalf("advance fabricated an entry: %+v", c.Stats())
	}
	// Epoch-0 advance degrades to unconditional invalidation.
	c.Advance("a", Location{}, 0)
	if c.Stats().Entries != 0 {
		t.Fatal("epoch-0 advance must invalidate")
	}
}

func TestCacheTTLSafetyNet(t *testing.T) {
	svc := NewService()
	svc.Register("a", cacheLoc("h1"))
	cr := &countingResolver{svc: svc}
	c := NewCache(cr, CacheConfig{TTL: 10 * time.Millisecond})
	now := time.Now()
	c.now = func() time.Time { return now }
	ctx := context.Background()

	c.Lookup(ctx, "a")
	c.Lookup(ctx, "a")
	if cr.calls != 1 {
		t.Fatalf("resolver calls = %d, want 1", cr.calls)
	}
	now = now.Add(20 * time.Millisecond)
	c.Lookup(ctx, "a")
	if cr.calls != 2 {
		t.Fatalf("TTL-expired entry served from cache (calls=%d)", cr.calls)
	}
}

func TestCacheBoundedSize(t *testing.T) {
	svc := NewService()
	c := NewCache(&countingResolver{svc: svc}, CacheConfig{MaxEntries: 8})
	ctx := context.Background()
	for i := 0; i < 32; i++ {
		id := string(rune('a' + i))
		svc.Register(id, cacheLoc("h"))
		c.Lookup(ctx, id)
	}
	if got := c.Stats().Entries; got > 8 {
		t.Fatalf("cache grew to %d entries past bound 8", got)
	}
}
