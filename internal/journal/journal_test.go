package journal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"naplet/internal/obs"
)

func open(t *testing.T, dir string, opts Options) *Journal {
	t.Helper()
	j, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return j
}

func TestPutGetReplay(t *testing.T) {
	dir := t.TempDir()
	j := open(t, dir, Options{Sync: SyncAlways})
	if err := j.Put(KindAgent, "a1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := j.Put(KindAgent, "a1", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := j.Put(KindConn, "c1", []byte("conn")); err != nil {
		t.Fatal(err)
	}
	if err := j.Delete(KindConn, "c1"); err != nil {
		t.Fatal(err)
	}
	if got, ok := j.Get(KindAgent, "a1"); !ok || string(got) != "v2" {
		t.Fatalf("Get = %q, %v; want v2", got, ok)
	}
	if _, ok := j.Get(KindConn, "c1"); ok {
		t.Fatal("tombstoned record still live")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the replica must rebuild from disk, latest record winning
	// and the tombstone applied.
	j2 := open(t, dir, Options{})
	defer j2.Close()
	if j2.Replayed() != 4 {
		t.Fatalf("Replayed = %d, want 4", j2.Replayed())
	}
	if got, ok := j2.Get(KindAgent, "a1"); !ok || string(got) != "v2" {
		t.Fatalf("after replay Get = %q, %v; want v2", got, ok)
	}
	if _, ok := j2.Get(KindConn, "c1"); ok {
		t.Fatal("tombstone lost across replay")
	}
}

func TestAppendBatchAtomic(t *testing.T) {
	dir := t.TempDir()
	j := open(t, dir, Options{Sync: SyncAlways})
	err := j.Append(
		Record{Kind: KindAgent, Key: "a", Data: []byte("behavior")},
		Record{Kind: KindConn, Key: "a/c1", Data: []byte("state")},
	)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Corrupt the last byte of the file: the whole batch must be dropped
	// on replay — never just its second record.
	path := filepath.Join(dir, fileName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j2 := open(t, dir, Options{})
	defer j2.Close()
	if j2.Replayed() != 0 {
		t.Fatalf("Replayed = %d after corrupt batch, want 0", j2.Replayed())
	}
	if _, ok := j2.Get(KindAgent, "a"); ok {
		t.Fatal("first record of corrupt batch survived")
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	j := open(t, dir, Options{Sync: SyncAlways})
	if err := j.Put(KindAgent, "a", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Simulate a torn write: a partial batch frame at the tail.
	path := filepath.Join(dir, fileName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x00, 0x00, 0x01, 0x00, 0xde, 0xad}) // header fragment
	f.Close()
	before, _ := os.Stat(path)

	j2 := open(t, dir, Options{Sync: SyncAlways})
	if got, ok := j2.Get(KindAgent, "a"); !ok || string(got) != "ok" {
		t.Fatalf("good prefix lost: %q, %v", got, ok)
	}
	after, _ := os.Stat(path)
	if after.Size() != before.Size()-6 {
		t.Fatalf("torn tail not truncated: %d -> %d", before.Size(), after.Size())
	}
	// Appending after truncation must produce a readable journal.
	if err := j2.Put(KindAgent, "b", []byte("new")); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	j3 := open(t, dir, Options{})
	defer j3.Close()
	if _, ok := j3.Get(KindAgent, "b"); !ok {
		t.Fatal("post-truncation append lost")
	}
}

func TestCompact(t *testing.T) {
	dir := t.TempDir()
	met := obs.NewRegistry()
	j := open(t, dir, Options{Sync: SyncAlways, Metrics: met})
	for i := 0; i < 50; i++ {
		if err := j.Put(KindConn, "c", bytes.Repeat([]byte{byte(i)}, 128)); err != nil {
			t.Fatal(err)
		}
	}
	j.Put(KindConn, "gone", []byte("x"))
	j.Delete(KindConn, "gone")
	path := filepath.Join(dir, fileName)
	before, _ := os.Stat(path)
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink: %d -> %d", before.Size(), after.Size())
	}
	// Journal stays appendable and correct after compaction.
	if err := j.Put(KindAgent, "a", []byte("post")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2 := open(t, dir, Options{})
	defer j2.Close()
	if got, _ := j2.Get(KindConn, "c"); !bytes.Equal(got, bytes.Repeat([]byte{49}, 128)) {
		t.Fatalf("latest value lost across compaction: %v", got[:4])
	}
	if _, ok := j2.Get(KindConn, "gone"); ok {
		t.Fatal("tombstoned key resurrected by compaction")
	}
	if _, ok := j2.Get(KindAgent, "a"); !ok {
		t.Fatal("post-compaction append lost")
	}
	snap := met.Snapshot()
	if snap.Counters["journal.compactions"] != 1 {
		t.Fatalf("journal.compactions = %d", snap.Counters["journal.compactions"])
	}
	if snap.Counters["journal.appends"] == 0 || snap.Counters["journal.fsyncs"] == 0 {
		t.Fatalf("journal metrics missing: %v", snap.Counters)
	}
}

// A long-lived journal overwrites the same few keys for ever (one
// checkpoint per lifecycle edge of a connection); nothing but Append runs in
// production, so Append has to keep the file near its live records.
func TestAppendKeepsFileBounded(t *testing.T) {
	dir := t.TempDir()
	met := obs.NewRegistry()
	j := open(t, dir, Options{Sync: SyncNever, Metrics: met})
	path := filepath.Join(dir, fileName)
	val := make([]byte, 1024)
	const bound = compactFloor + 2*1024 // the floor plus the batch that crossed it
	for i := 0; i < 10000; i++ {
		val[0], val[1] = byte(i), byte(i>>8)
		if err := j.Put(KindConn, "c", val); err != nil {
			t.Fatal(err)
		}
		if i%500 == 499 {
			if st, _ := os.Stat(path); st.Size() > bound {
				t.Fatalf("after %d overwrites of one 1 KiB record the file is %d bytes (bound %d)", i+1, st.Size(), bound)
			}
		}
	}
	if n := met.Snapshot().Counters["journal.compactions"]; n == 0 {
		t.Fatal("journal.compactions = 0 after 10 MB of overwrites")
	}
	j.Close()

	j2 := open(t, dir, Options{})
	if got, _ := j2.Get(KindConn, "c"); !bytes.Equal(got, val) {
		t.Fatalf("latest value lost: % x", got[:2])
	}
	j2.Close()

	// A file that was already bloated when the process started (written by
	// a build that never compacted) is rewritten by Open.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2048; i++ {
		frame, err := encodeBatch([]Record{{Kind: KindConn, Key: "c", Data: val}})
		if err != nil {
			t.Fatal(err)
		}
		f.Write(frame)
	}
	f.Close()
	j3 := open(t, dir, Options{})
	defer j3.Close()
	if st, _ := os.Stat(path); st.Size() > bound {
		t.Fatalf("Open left a %d-byte file for one live 1 KiB record", st.Size())
	}
	if got, _ := j3.Get(KindConn, "c"); !bytes.Equal(got, val) {
		t.Fatal("value lost by the compaction in Open")
	}
}

// The rewritten file must replay however large the live state: one batch
// holding everything would pass maxBatch and read back as a corrupt tail.
func TestCompactSplitsLiveStateIntoBatches(t *testing.T) {
	dir := t.TempDir()
	j := open(t, dir, Options{Sync: SyncNever})
	const keys = 40
	for i := 0; i < keys; i++ {
		if err := j.Put(KindConn, fmt.Sprintf("c%d", i), bytes.Repeat([]byte{byte(i)}, 100<<10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	j.Close()

	raw, err := os.ReadFile(filepath.Join(dir, fileName))
	if err != nil {
		t.Fatal(err)
	}
	batches := 0
	for len(raw) >= 8 {
		length := binary.BigEndian.Uint32(raw[:4])
		if length > 2*compactChunk {
			t.Fatalf("batch %d is %d bytes; want about %d", batches, length, compactChunk)
		}
		raw = raw[8+length:]
		batches++
	}
	if batches < 3 {
		t.Fatalf("%d batches for 4 MB of live records", batches)
	}
	j2 := open(t, dir, Options{})
	defer j2.Close()
	if got := len(j2.Entries(KindConn)); got != keys {
		t.Fatalf("%d of %d records survived compaction", got, keys)
	}
}

func TestEntries(t *testing.T) {
	dir := t.TempDir()
	j := open(t, dir, Options{})
	defer j.Close()
	for i := 0; i < 5; i++ {
		j.Put(KindConn, fmt.Sprintf("c%d", i), []byte{byte(i)})
	}
	j.Delete(KindConn, "c3")
	got := j.Entries(KindConn)
	if len(got) != 4 {
		t.Fatalf("Entries = %d keys, want 4", len(got))
	}
	if _, ok := got["c3"]; ok {
		t.Fatal("deleted key listed")
	}
}

func TestClosedErrors(t *testing.T) {
	j := open(t, t.TempDir(), Options{})
	j.Close()
	if err := j.Put(KindAgent, "a", nil); err != ErrClosed {
		t.Fatalf("Put after close = %v, want ErrClosed", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	var nilJ *Journal
	if err := nilJ.Append(Record{Kind: KindAgent, Key: "x"}); err != nil {
		t.Fatalf("nil journal Append: %v", err)
	}
	if nilJ.Replayed() != 0 || nilJ.Entries(KindAgent) != nil {
		t.Fatal("nil journal accessors")
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{"always": SyncAlways, "interval": SyncInterval, "": SyncInterval, "never": SyncNever} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}
