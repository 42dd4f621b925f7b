package core

import (
	"sync"
	"testing"

	"naplet/internal/journal"
	"naplet/internal/naming"
	"naplet/internal/wire"
)

// The journal is latest-wins per key, so a connection's checkpoints must
// land in the order their snapshots were taken, and none after the
// connection has left the journal.

// journaledConn opens a pair whose server side ("right", on h2) is
// journaled, and returns the journal with the server's key in it.
func journaledConn(t *testing.T) (client, server *Socket, h2 *testHost, j *journal.Journal, key string) {
	t.Helper()
	svc := naming.NewService()
	j, err := journal.Open(t.TempDir(), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	h1 := newFaultHost(t, "h1", svc, nil)
	h2 = newFaultHost(t, "h2", svc, func(c *Config) { c.Journal = j })
	client, server = faultPair(t, svc, h1, h2, "left", "right")
	return client, server, h2, j, connJournalKey("right", server.ID())
}

// A receiver checkpoints each message it consumes while other writers of the
// same key (a resume's trailing checkpoint, a grant callback) checkpoint
// concurrently. Whatever the interleaving, the entry left behind must not
// hold the consumed message — recovery would deliver it a second time — and
// the delivery cursor must never move backwards.
func TestCheckpointsLandInSnapshotOrder(t *testing.T) {
	client, server, h2, j, key := journaledConn(t)
	const rounds, writers, each = 300, 4, 6
	var high uint64
	for i := 1; i <= rounds; i++ {
		writeCounter(t, client, i) // frame seq == i
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < each; n++ {
					h2.ctrl.checkpointConn(server)
				}
			}()
		}
		if _, err := server.ReadMsg(); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		h2.ctrl.checkpointConn(server) // consuming is progress: journal it
		wg.Wait()

		data, ok := j.Get(journal.KindConn, key)
		if !ok {
			t.Fatalf("round %d: no journal entry", i)
		}
		st, err := decodeConnState(data)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if st.LastEnqueued < high || st.LastEnqueued < uint64(i) {
			t.Fatalf("round %d: journaled LastEnqueued %d after %d", i, st.LastEnqueued, high)
		}
		high = st.LastEnqueued
		if len(st.Leftover) > 0 {
			t.Fatalf("round %d: journaled a half-read tail of message %d", i, st.LeftoverSeq)
		}
		for _, run := range st.RecvBuf {
			eachDataFrame(run, func(f wire.Frame) {
				if f.Seq <= uint64(i) {
					t.Fatalf("round %d: consumed message %d is in the journaled receive run: a stale checkpoint won the key", i, f.Seq)
				}
			})
		}
	}
}

// A checkpoint that finishes after the connection left the journal — the
// granted-suspend goroutine's against PreDepart's dropConn — is skipped: a
// restart must not resurrect a connection that migrated away.
func TestCheckpointAfterDropIsSkipped(t *testing.T) {
	_, server, h2, j, key := journaledConn(t)
	if _, ok := j.Get(journal.KindConn, key); !ok {
		t.Fatal("established connection has no journal entry")
	}
	h2.ctrl.dropConn(server)
	h2.ctrl.checkpointConn(server)
	if _, ok := j.Get(journal.KindConn, key); ok {
		t.Fatal("a checkpoint after dropConn put the connection back in the journal")
	}
}
