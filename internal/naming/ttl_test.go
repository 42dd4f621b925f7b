package naming

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestStaleEntryExpires(t *testing.T) {
	s := NewService()
	now := time.Unix(1000, 0)
	s.now = func() time.Time { return now }
	s.SetTTL(time.Second)

	loc := Location{Host: "h1", ControlAddr: "127.0.0.1:1"}
	if err := s.Register("a", loc); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Lookup(context.Background(), "a"); err != nil {
		t.Fatalf("fresh lookup: %v", err)
	}

	// The hosting napletd crashes and never refreshes: past the TTL the
	// stale location must stop resolving.
	now = now.Add(1500 * time.Millisecond)
	if _, err := s.Lookup(context.Background(), "a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stale lookup = %v, want ErrNotFound", err)
	}

	// A recovered host re-registers over the expired entry; the epoch
	// sequence continues so pre-crash stale updates stay rejected.
	loc2 := Location{Host: "h2", ControlAddr: "127.0.0.1:2"}
	if err := s.Register("a", loc2); err != nil {
		t.Fatalf("re-register over expired: %v", err)
	}
	rec, err := s.Lookup(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Epoch != 2 || rec.Loc.Host != "h2" {
		t.Fatalf("re-registered record = %+v, want epoch 2 at h2", rec)
	}
	if err := s.Update("a", loc, 1); !errors.Is(err, ErrStale) {
		t.Fatalf("pre-crash update = %v, want ErrStale", err)
	}
}

func TestTTLRefreshByUpdate(t *testing.T) {
	s := NewService()
	now := time.Unix(1000, 0)
	s.now = func() time.Time { return now }
	s.SetTTL(time.Second)
	if err := s.Register("a", Location{Host: "h1"}); err != nil {
		t.Fatal(err)
	}
	// Keep updating within the TTL: the entry must never expire.
	for epoch := uint64(2); epoch < 5; epoch++ {
		now = now.Add(800 * time.Millisecond)
		if err := s.Update("a", Location{Host: "h1"}, epoch); err != nil {
			t.Fatalf("update at epoch %d: %v", epoch, err)
		}
	}
	if _, err := s.Lookup(context.Background(), "a"); err != nil {
		t.Fatalf("refreshed entry expired: %v", err)
	}
	// Live (non-expired) entries still reject duplicate registration.
	if err := s.Register("a", Location{Host: "h3"}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate register = %v, want ErrExists", err)
	}
}

func TestZeroTTLNeverExpires(t *testing.T) {
	s := NewService()
	now := time.Unix(1000, 0)
	s.now = func() time.Time { return now }
	if err := s.Register("a", Location{Host: "h1"}); err != nil {
		t.Fatal(err)
	}
	now = now.Add(1000 * time.Hour)
	if _, err := s.Lookup(context.Background(), "a"); err != nil {
		t.Fatalf("entry expired with TTL disabled: %v", err)
	}
}
