package naming

import (
	"context"
	"sync"
	"time"

	"naplet/internal/obs"
)

// Cache is a client-side location cache in front of a Resolver, keyed by
// agent id and guarded by Record.Epoch. The design assumption (the paper's
// Section 2.1 consult-at-setup model) is that a location only changes when
// the agent migrates — and the controller already hears about every
// migration of a peer it talks to, through the SUS/SUS_RES/RES exchanges
// the redirector path handles. Invalidation therefore piggybacks on those
// messages (Invalidate / Advance) instead of relying on
// TTL expiry; the TTL here is only a safety net for peers the controller
// has no connection to.
//
// Epochs make every mutation monotonic: a fill or advance never replaces a
// cached record with one of a lower epoch, so a slow lookup response
// racing a migration notification cannot reinstall the stale location.
type Cache struct {
	r   Resolver
	ttl time.Duration
	max int

	mu      sync.Mutex
	entries map[string]*cacheEntry

	hits, misses, invalidations, advances *obs.Counter
	// Totals back Stats and the hit-rate gauge; kept separately from the
	// obs counters so they work without a registry.
	hitsTotal, lookupsTotal, invalsTotal, advancesTotal uint64

	// now is a test seam.
	now func() time.Time
}

type cacheEntry struct {
	rec    Record
	filled time.Time
}

// CacheConfig tunes a Cache. The zero value selects the defaults.
type CacheConfig struct {
	// TTL is the safety-net expiry for entries no migration notification
	// refreshes. Default 30s; negative disables expiry entirely.
	TTL time.Duration
	// MaxEntries bounds the cache; a random entry is evicted at the bound.
	// Default 65536.
	MaxEntries int
	// Metrics, when non-nil, receives the naming.cache_* counter family
	// and a naming.cache_hit_rate gauge.
	Metrics *obs.Registry
}

// NewCache wraps r in a cache.
func NewCache(r Resolver, cfg CacheConfig) *Cache {
	if cfg.TTL == 0 {
		cfg.TTL = 30 * time.Second
	}
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = 65536
	}
	c := &Cache{
		r:             r,
		ttl:           cfg.TTL,
		max:           cfg.MaxEntries,
		entries:       make(map[string]*cacheEntry),
		hits:          cfg.Metrics.Counter("naming.cache_hits"),
		misses:        cfg.Metrics.Counter("naming.cache_misses"),
		invalidations: cfg.Metrics.Counter("naming.cache_invalidations"),
		advances:      cfg.Metrics.Counter("naming.cache_advances"),
		now:           time.Now,
	}
	cfg.Metrics.Func("naming.cache_size", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.entries))
	})
	cfg.Metrics.Func("naming.cache_hit_rate", func() float64 {
		return c.Stats().HitRate
	})
	return c
}

// Lookup implements Resolver: it serves from the cache when it can and
// fills from the underlying resolver when it must.
func (c *Cache) Lookup(ctx context.Context, agentID string) (Record, error) {
	c.mu.Lock()
	c.lookupsTotal++
	if e, ok := c.entries[agentID]; ok && !c.expiredLocked(e) {
		rec := e.rec
		c.hitsTotal++
		c.mu.Unlock()
		c.hits.Inc()
		return rec, nil
	}
	c.mu.Unlock()
	c.misses.Inc()

	rec, err := c.r.Lookup(ctx, agentID)
	if err != nil {
		return Record{}, err
	}
	return c.fill(rec), nil
}

// fill installs a freshly resolved record, unless a strictly newer epoch
// is already cached (a migration notification beat the lookup response);
// it returns whichever record is authoritative.
func (c *Cache) fill(rec Record) Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[rec.AgentID]; ok && !c.expiredLocked(e) && e.rec.Epoch > rec.Epoch {
		return e.rec
	}
	c.evictForSpaceLocked(rec.AgentID)
	c.entries[rec.AgentID] = &cacheEntry{rec: rec, filled: c.now()}
	return rec
}

// Invalidate drops the agent's entry unconditionally. Used when the
// controller learns a location is wrong but not what replaced it (a SUS
// announcing an imminent migration, a connect that failed against the
// cached address).
func (c *Cache) Invalidate(agentID string) {
	c.mu.Lock()
	_, had := c.entries[agentID]
	delete(c.entries, agentID)
	if had {
		c.invalsTotal++
	}
	c.mu.Unlock()
	if had {
		c.invalidations.Inc()
	}
}

// Advance moves a cached entry forward to the mover's announced location
// at the given epoch — the piggyback optimisation: a RES/SUS_RES already
// carries the mover's new control and data addresses, so the peer can
// keep serving opens from cache without ever re-asking the registry.
// Address fields left empty by the announcement keep their cached values
// (a control message does not carry the mail address). Nothing is
// fabricated for agents not already cached, and entries at or past epoch
// are left alone.
func (c *Cache) Advance(agentID string, loc Location, epoch uint64) {
	if epoch == 0 {
		c.Invalidate(agentID)
		return
	}
	c.mu.Lock()
	e, ok := c.entries[agentID]
	if !ok || e.rec.Epoch >= epoch {
		c.mu.Unlock()
		return
	}
	merged := e.rec.Loc
	if loc.Host != "" {
		merged.Host = loc.Host
	}
	if loc.ControlAddr != "" {
		merged.ControlAddr = loc.ControlAddr
	}
	if loc.DataAddr != "" {
		merged.DataAddr = loc.DataAddr
	}
	if loc.MailAddr != "" {
		merged.MailAddr = loc.MailAddr
	}
	e.rec.Loc = merged
	e.rec.Epoch = epoch
	e.rec.UpdatedAt = c.now()
	e.filled = c.now()
	c.advancesTotal++
	c.mu.Unlock()
	c.advances.Inc()
}

// CacheStats is a point-in-time summary of cache effectiveness.
type CacheStats struct {
	Entries       int     `json:"entries"`
	Hits          uint64  `json:"hits"`
	Misses        uint64  `json:"misses"`
	Invalidations uint64  `json:"invalidations"`
	Advances      uint64  `json:"advances"`
	HitRate       float64 `json:"hit_rate"`
}

// Stats reports cumulative hit/miss accounting.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CacheStats{
		Entries:       len(c.entries),
		Hits:          c.hitsTotal,
		Misses:        c.lookupsTotal - c.hitsTotal,
		Invalidations: c.invalsTotal,
		Advances:      c.advancesTotal,
	}
	if c.lookupsTotal > 0 {
		st.HitRate = float64(c.hitsTotal) / float64(c.lookupsTotal)
	}
	return st
}

func (c *Cache) expiredLocked(e *cacheEntry) bool {
	return c.ttl > 0 && c.now().Sub(e.filled) > c.ttl
}

// evictForSpaceLocked makes room for one more entry. Map iteration order
// is effectively random, which is eviction policy enough for a safety
// bound that steady state never reaches.
func (c *Cache) evictForSpaceLocked(adding string) {
	if len(c.entries) < c.max {
		return
	}
	if _, ok := c.entries[adding]; ok {
		return
	}
	for id := range c.entries {
		delete(c.entries, id)
		return
	}
}
