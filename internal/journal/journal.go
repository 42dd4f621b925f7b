// Package journal is the write-ahead journal of the fault-tolerance
// subsystem: an append-only file of gob-encoded records mirrored by an
// in-memory replica. The socket controller and agent host checkpoint
// connection FSM state, unacked send-buffer frames, and agent dock state
// at each lifecycle edge; after a crash, a restarted napletd replays the
// journal to rebuild that state and drive stranded connections through
// the normal resume handshake.
//
// On disk the journal is a sequence of batches. Each batch is framed as
//
//	uint32 length | uint32 CRC-32 (IEEE) of body | body
//
// where body is the gob encoding of a []Record. A batch is appended with
// a single write, so the records of one Append are atomic with respect
// to a process crash: replay either sees all of them or none (a torn
// tail fails the CRC and is truncated away). This matters for callers
// that must persist two facts together — e.g. an agent's progress
// counter and the connection's send-sequence cursor, whose coherence is
// what preserves exactly-once delivery across a restart.
package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"naplet/internal/obs"
)

// Kind partitions the key space of the journal. The well-known kinds are
// defined here so the agent host and the socket controller can share one
// journal without coordinating key formats.
type Kind uint8

const (
	// KindAgent records a docked agent: its behavior gob and epoch.
	KindAgent Kind = 1
	// KindConn records one connection endpoint's serialized state.
	KindConn Kind = 2
	// KindListener records that an agent had a passive (listening) socket.
	KindListener Kind = 3
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindAgent:
		return "agent"
	case KindConn:
		return "conn"
	case KindListener:
		return "listener"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Record is one journal entry: the latest non-tombstone record per
// (Kind, Key) is the live state; a tombstone erases the pair.
type Record struct {
	Kind Kind
	Key  string
	// Data is the opaque (conventionally gob-encoded) payload. Ignored on
	// tombstones.
	Data []byte
	// Tombstone marks the (Kind, Key) pair as deleted.
	Tombstone bool
	// When is the append time, retained for debugging.
	When time.Time
}

// SyncPolicy selects when appended batches are fsynced to disk.
type SyncPolicy int

const (
	// SyncInterval fsyncs dirty data on a background ticker (the default).
	// It bounds the loss window after a machine crash; a plain process
	// crash (SIGKILL) loses nothing under any policy, because written
	// data survives in the OS page cache.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs after every append.
	SyncAlways
	// SyncNever leaves flushing entirely to the OS.
	SyncNever
)

// String names the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncInterval:
		return "interval"
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses "always", "interval", or "never".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval", "":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("journal: unknown sync policy %q (want always, interval, or never)", s)
	}
}

// Options tunes a journal. The zero value selects the defaults.
type Options struct {
	// Sync selects the fsync policy. Default SyncInterval.
	Sync SyncPolicy
	// Metrics receives journal.* instruments when non-nil.
	Metrics *obs.Registry
	// Logger receives replay/compaction events when non-nil.
	Logger *obs.Logger
}

const (
	// fileName is the journal file inside the journal directory.
	fileName = "naplet.journal"
	// syncEvery is the flush period under SyncInterval.
	syncEvery = 100 * time.Millisecond
	// maxBatch bounds one batch body; replay treats anything longer as a
	// corrupt tail.
	maxBatch = 64 << 20
	// The file is rewritten down to the live records once it outgrows both
	// compactFloor and compactRatio times what those records take, so the
	// rewrite costs O(1) per appended byte and a long-lived journal stays
	// within a constant factor of its live state.
	compactFloor = 1 << 20
	compactRatio = 4
	// compactChunk is how many payload bytes one batch of the rewritten file
	// carries (the rename makes the rewrite atomic, not the batch), keeping
	// every batch far below maxBatch however large the live state.
	compactChunk = 1 << 20
	// recordOverhead approximates what gob adds to a record's key and data.
	recordOverhead = 32
)

// ErrClosed reports use of a closed journal.
var ErrClosed = errors.New("journal: closed")

// Journal is an append-only write-ahead log with an in-memory replica of
// the live (latest, non-tombstoned) records. It is safe for concurrent use.
type Journal struct {
	dir  string
	opts Options

	mu   sync.Mutex
	f    *os.File
	size int64 // current file size
	live map[Kind]map[string][]byte
	// liveBytes is what the live records would take on disk, give or take
	// gob's framing: the yardstick size is compacted against.
	liveBytes int64
	dirty     bool // appended since last fsync
	closed    bool

	// replayed is how many records the opening replay recovered.
	replayed int
	// truncated is how many trailing bytes the opening replay discarded.
	truncated int64

	done chan struct{}
	wg   sync.WaitGroup

	ins struct {
		appends     *obs.Counter
		records     *obs.Counter
		fsyncs      *obs.Counter
		replays     *obs.Counter
		replayed    *obs.Counter
		truncations *obs.Counter
		compactions *obs.Counter
		appendMS    *obs.Histogram
	}
}

// Open opens (creating if needed) the journal in dir, replays any
// existing records into the in-memory replica, and truncates a torn tail.
func Open(dir string, opts Options) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: creating %s: %w", dir, err)
	}
	path := filepath.Join(dir, fileName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: opening %s: %w", path, err)
	}
	j := &Journal{
		dir:  dir,
		opts: opts,
		f:    f,
		live: make(map[Kind]map[string][]byte),
		done: make(chan struct{}),
	}
	met := opts.Metrics
	j.ins.appends = met.Counter("journal.appends")
	j.ins.records = met.Counter("journal.records")
	j.ins.fsyncs = met.Counter("journal.fsyncs")
	j.ins.replays = met.Counter("journal.replays")
	j.ins.replayed = met.Counter("journal.replayed_records")
	j.ins.truncations = met.Counter("journal.truncations")
	j.ins.compactions = met.Counter("journal.compactions")
	j.ins.appendMS = met.Histogram("journal.append_ms")
	met.Func("journal.size_bytes", func() float64 {
		j.mu.Lock()
		defer j.mu.Unlock()
		return float64(j.size)
	})
	met.Func("journal.live_records", func() float64 {
		j.mu.Lock()
		defer j.mu.Unlock()
		n := 0
		for _, m := range j.live {
			n += len(m)
		}
		return float64(n)
	})

	if err := j.replay(); err != nil {
		f.Close()
		return nil, err
	}
	j.ins.replays.Inc()
	j.ins.replayed.Add(uint64(j.replayed))
	if j.truncated > 0 {
		j.ins.truncations.Inc()
		opts.Logger.Warnf("journal: truncated %d-byte torn tail", j.truncated)
	}
	if j.replayed > 0 {
		opts.Logger.Infof("journal: replayed %d records (%d bytes)", j.replayed, j.size)
	}
	if err := j.compactIfBloatedLocked(); err != nil {
		opts.Logger.Warnf("%v", err)
	}

	if opts.Sync == SyncInterval {
		j.wg.Add(1)
		go j.flusher()
	}
	return j, nil
}

// replay scans the file, rebuilding the replica and truncating a corrupt
// or torn tail so subsequent appends start from a consistent point.
func (j *Journal) replay() error {
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("journal: seeking: %w", err)
	}
	var (
		offset int64
		hdr    [8]byte
	)
	for {
		if _, err := io.ReadFull(j.f, hdr[:]); err != nil {
			break // clean EOF or short header: tail ends here
		}
		length := binary.BigEndian.Uint32(hdr[0:4])
		sum := binary.BigEndian.Uint32(hdr[4:8])
		if length == 0 || length > maxBatch {
			break // implausible length: corrupt tail
		}
		body := make([]byte, length)
		if _, err := io.ReadFull(j.f, body); err != nil {
			break // torn batch
		}
		if crc32.ChecksumIEEE(body) != sum {
			break // corrupt batch
		}
		var recs []Record
		if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&recs); err != nil {
			break // undecodable batch
		}
		for _, r := range recs {
			j.applyLocked(r)
			j.replayed++
		}
		offset += int64(len(hdr)) + int64(length)
	}
	end, err := j.f.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("journal: seeking end: %w", err)
	}
	if end > offset {
		j.truncated = end - offset
		if err := j.f.Truncate(offset); err != nil {
			return fmt.Errorf("journal: truncating torn tail: %w", err)
		}
		if _, err := j.f.Seek(offset, io.SeekStart); err != nil {
			return fmt.Errorf("journal: seeking: %w", err)
		}
	}
	j.size = offset
	return nil
}

// applyLocked folds one record into the replica.
func (j *Journal) applyLocked(r Record) {
	m := j.live[r.Kind]
	if old, ok := m[r.Key]; ok {
		j.liveBytes -= recordSize(r.Key, old)
	}
	if r.Tombstone {
		delete(m, r.Key)
		return
	}
	if m == nil {
		m = make(map[string][]byte)
		j.live[r.Kind] = m
	}
	m[r.Key] = r.Data
	j.liveBytes += recordSize(r.Key, r.Data)
}

func recordSize(key string, data []byte) int64 {
	return int64(len(key) + len(data) + recordOverhead)
}

// Put appends a single live record.
func (j *Journal) Put(kind Kind, key string, data []byte) error {
	return j.Append(Record{Kind: kind, Key: key, Data: data})
}

// Delete appends a tombstone for (kind, key).
func (j *Journal) Delete(kind Kind, key string) error {
	return j.Append(Record{Kind: kind, Key: key, Tombstone: true})
}

// Append atomically appends a batch of records: after a crash, replay
// sees either all of them or none.
func (j *Journal) Append(recs ...Record) error {
	if j == nil || len(recs) == 0 {
		return nil
	}
	start := time.Now()
	for i := range recs {
		recs[i].When = start
	}
	frame, err := encodeBatch(recs)
	if err != nil {
		return err
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("journal: appending: %w", err)
	}
	j.size += int64(len(frame))
	for _, r := range recs {
		j.applyLocked(r)
	}
	j.dirty = true
	if j.opts.Sync == SyncAlways {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: fsync: %w", err)
		}
		j.dirty = false
		j.ins.fsyncs.Inc()
	}
	j.ins.appends.Inc()
	j.ins.records.Add(uint64(len(recs)))
	// The batch is on disk; a rewrite that fails costs space, not data.
	if err := j.compactIfBloatedLocked(); err != nil {
		j.opts.Logger.Warnf("%v", err)
	}
	j.ins.appendMS.ObserveDuration(time.Since(start))
	return nil
}

// encodeBatch returns recs as one framed batch: length, CRC, gob body.
func encodeBatch(recs []Record) ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(make([]byte, 8))
	if err := gob.NewEncoder(&buf).Encode(recs); err != nil {
		return nil, fmt.Errorf("journal: encoding batch: %w", err)
	}
	frame := buf.Bytes()
	body := frame[8:]
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(body)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(body))
	return frame, nil
}

// Get returns the live record data for (kind, key).
func (j *Journal) Get(kind Kind, key string) ([]byte, bool) {
	if j == nil {
		return nil, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	data, ok := j.live[kind][key]
	return data, ok
}

// Entries returns a copy of all live records of the given kind.
func (j *Journal) Entries(kind Kind) map[string][]byte {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[string][]byte, len(j.live[kind]))
	for k, v := range j.live[kind] {
		out[k] = v
	}
	return out
}

// Replayed returns how many records the opening replay recovered.
func (j *Journal) Replayed() int {
	if j == nil {
		return 0
	}
	return j.replayed
}

// Sync forces dirty appends to disk.
func (j *Journal) Sync() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if j.closed || !j.dirty {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	j.dirty = false
	j.ins.fsyncs.Inc()
	return nil
}

// Compact rewrites the journal to contain exactly the live replica,
// reclaiming space from superseded records and tombstones. The rewrite
// goes through a temp file and an atomic rename. Append does this by itself
// whenever the file outgrows its live records.
func (j *Journal) Compact() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	return j.compactLocked()
}

func (j *Journal) compactIfBloatedLocked() error {
	if j.size <= max(compactFloor, compactRatio*j.liveBytes) {
		return nil
	}
	return j.compactLocked()
}

func (j *Journal) compactLocked() error {
	path := filepath.Join(j.dir, fileName)
	tmp := path + ".compact"
	nf, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: compacting: %w", err)
	}
	size, n, err := j.writeLiveLocked(nf)
	if err == nil {
		err = nf.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		nf.Close()
		os.Remove(tmp)
		return fmt.Errorf("journal: compacting: %w", err)
	}
	old := j.f
	j.f = nf
	j.size = size
	j.dirty = false
	old.Close()
	j.ins.compactions.Inc()
	j.opts.Logger.Infof("journal: compacted to %d records (%d bytes)", n, size)
	return nil
}

// writeLiveLocked writes every live record to w in batches of about
// compactChunk payload bytes, returning the bytes and records written.
func (j *Journal) writeLiveLocked(w io.Writer) (size int64, n int, err error) {
	var (
		recs    []Record
		pending int64
		now     = time.Now()
	)
	flush := func() error {
		if len(recs) == 0 {
			return nil
		}
		frame, err := encodeBatch(recs)
		if err != nil {
			return err
		}
		if _, err := w.Write(frame); err != nil {
			return err
		}
		size += int64(len(frame))
		n += len(recs)
		recs, pending = recs[:0], 0
		return nil
	}
	for kind, m := range j.live {
		for key, data := range m {
			recs = append(recs, Record{Kind: kind, Key: key, Data: data, When: now})
			if pending += recordSize(key, data); pending >= compactChunk {
				if err := flush(); err != nil {
					return size, n, err
				}
			}
		}
	}
	return size, n, flush()
}

// flusher services SyncInterval.
func (j *Journal) flusher() {
	defer j.wg.Done()
	tick := time.NewTicker(syncEvery)
	defer tick.Stop()
	for {
		select {
		case <-j.done:
			return
		case <-tick.C:
			j.mu.Lock()
			j.syncLocked()
			j.mu.Unlock()
		}
	}
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	err := j.syncLocked()
	j.closed = true
	close(j.done)
	cerr := j.f.Close()
	j.mu.Unlock()
	j.wg.Wait()
	if err != nil {
		return err
	}
	return cerr
}
