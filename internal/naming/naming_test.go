package naming

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

func loc(host string) Location {
	return Location{
		Host:        host,
		ControlAddr: host + ":7001",
		DataAddr:    host + ":7002",
		MailAddr:    host + ":7003",
	}
}

func TestRegisterLookup(t *testing.T) {
	s := NewService()
	if err := s.Register("a", loc("h1")); err != nil {
		t.Fatal(err)
	}
	rec, err := s.Lookup(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Loc.Host != "h1" || rec.Epoch != 1 {
		t.Fatalf("record = %+v", rec)
	}
}

func TestLookupUnknown(t *testing.T) {
	s := NewService()
	if _, err := s.Lookup(context.Background(), "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestDuplicateRegister(t *testing.T) {
	s := NewService()
	if err := s.Register("a", loc("h1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("a", loc("h2")); !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v, want ErrExists", err)
	}
}

func TestEmptyAgentIDRejected(t *testing.T) {
	s := NewService()
	if err := s.Register("", loc("h1")); err == nil {
		t.Fatal("empty id accepted")
	}
}

func TestUpdateEpochOrdering(t *testing.T) {
	s := NewService()
	if err := s.Register("a", loc("h1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Update("a", loc("h2"), 2); err != nil {
		t.Fatal(err)
	}
	// A stale update from the old host must be rejected.
	if err := s.Update("a", loc("h1"), 2); !errors.Is(err, ErrStale) {
		t.Fatalf("err = %v, want ErrStale", err)
	}
	if err := s.Update("a", loc("h1"), 1); !errors.Is(err, ErrStale) {
		t.Fatalf("err = %v, want ErrStale", err)
	}
	rec, _ := s.Lookup(context.Background(), "a")
	if rec.Loc.Host != "h2" || rec.Epoch != 2 {
		t.Fatalf("record after stale updates = %+v", rec)
	}
}

func TestUpdateUnknown(t *testing.T) {
	s := NewService()
	if err := s.Update("ghost", loc("h1"), 2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestDeregister(t *testing.T) {
	s := NewService()
	s.Register("a", loc("h1"))
	if err := s.Deregister("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Lookup(context.Background(), "a"); !errors.Is(err, ErrNotFound) {
		t.Fatal("agent still resolvable after deregister")
	}
	if err := s.Deregister("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double deregister: err = %v", err)
	}
	// Trace survives deregistration.
	if tr := s.Trace("a"); len(tr) != 1 {
		t.Fatalf("trace = %v", tr)
	}
}

func TestTraceAccumulates(t *testing.T) {
	s := NewService()
	s.Register("a", loc("h1"))
	for i := 2; i <= 5; i++ {
		if err := s.Update("a", loc(fmt.Sprintf("h%d", i)), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr := s.Trace("a")
	if len(tr) != 5 {
		t.Fatalf("trace length = %d, want 5", len(tr))
	}
	for i, m := range tr {
		want := fmt.Sprintf("h%d", i+1)
		if m.Loc.Host != want || m.Epoch != uint64(i+1) {
			t.Fatalf("trace[%d] = %+v, want host %s epoch %d", i, m, want, i+1)
		}
	}
}

func TestTraceBounded(t *testing.T) {
	s := NewService()
	s.Register("a", loc("h0"))
	for i := 2; i <= maxTrace+50; i++ {
		if err := s.Update("a", loc("h"), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(s.Trace("a")); n != maxTrace {
		t.Fatalf("trace length = %d, want %d", n, maxTrace)
	}
}

func TestAgentsSorted(t *testing.T) {
	s := NewService()
	for _, id := range []string{"c", "a", "b"} {
		s.Register(id, loc("h"))
	}
	got := s.Agents()
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Agents() = %v, want %v", got, want)
		}
	}
}

func TestConcurrentRegistryAccess(t *testing.T) {
	s := NewService()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("agent-%d", i)
			if err := s.Register(id, loc("h1")); err != nil {
				t.Error(err)
				return
			}
			for e := uint64(2); e <= 10; e++ {
				if err := s.Update(id, loc("h2"), e); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Lookup(context.Background(), id); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if len(s.Agents()) != 32 {
		t.Fatalf("agents = %d, want 32", len(s.Agents()))
	}
}
