package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"naplet/internal/journal"
	"naplet/internal/naming"
	"naplet/internal/obs"
	"naplet/internal/wire"
)

// These tests pin the serialized form of a connection (state.go): that it
// round-trips, that one state has one encoding, that a damaged blob restores
// nothing, and that a journal left by a gob-era binary is passed over by
// name.

// flatRuns joins the pieces of a state's runs, so that states compare by
// the frames they hold and not by how many segments held them.
func flatRuns(st connState) connState {
	st.RecvBuf = [][]byte{bytes.Join(st.RecvBuf, nil)}
	st.SendLog = [][]byte{bytes.Join(st.SendLog, nil)}
	return st
}

// sampleState is a state with a half-read message, buffered messages in two
// pieces and a non-empty send log, with frames either side of a segment.
func sampleState(rng *rand.Rand) connState {
	return connState{
		ID: wire.ConnID{1, 2, 3}, LocalAgent: "a", RemoteAgent: "b", SessionKey: seededBytes(rng, 32),
		NextSendSeq: 8, LastEnqueued: 43,
		Leftover: seededBytes(rng, 61), LeftoverSeq: 40, LeftoverBuf: true,
		RecvBuf: [][]byte{
			frameTrain(41, seededBytes(rng, 100), seededBytes(rng, 70<<10)),
			frameTrain(43, seededBytes(rng, 1)),
		},
		SendLog: [][]byte{
			frameTrain(5, seededBytes(rng, 1<<10), seededBytes(rng, 64<<10), seededBytes(rng, 9)),
		},
		PeerControlAddr: "127.0.0.1:1", PeerDataAddr: "127.0.0.1:2",
		SendNonce: 3, LastPeerNonce: 4, Accepted: true,
	}
}

// TestConnStateRoundTrip: a state decodes to what was encoded, restores into
// segments, and serializes back to the same bytes.
func TestConnStateRoundTrip(t *testing.T) {
	env := newEnv(t, []string{"h1"})
	ctrl := env.hosts["h1"].ctrl
	st := sampleState(rand.New(rand.NewSource(5)))

	enc := st.appendTo(nil)
	dec, err := decodeConnState(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(flatRuns(dec), flatRuns(st)) {
		t.Fatalf("decode(encode(st)) differs:\n got %+v\nwant %+v", dec, st)
	}
	s, err := ctrl.buildConn(&dec, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.tab.register(s)
	if info := s.Info(); info.RecvBufferedMsgs != 3 || info.RecvBufferedBytes != 61+100+70<<10+1 ||
		!info.LeftoverFromBuffer || info.SendLogBytes != 1<<10+64<<10+9 {
		t.Errorf("restored endpoint reports %+v", info)
	}
	got, _ := s.serialize(nil)
	ctrl.dropConn(s)
	if !bytes.Equal(got, enc) {
		t.Fatalf("restore then serialize changed the record: %d bytes, were %d", len(got), len(enc))
	}
}

// encodeBlob writes hb the way PreDepart does.
func encodeBlob(hb *hookBlob) []byte {
	b := beginBlob(hb.Trace)
	for i := range hb.Conns {
		b = hb.Conns[i].appendTo(b)
	}
	return sealBlob(b, len(hb.Conns), hb.HasListener, hb.Backlog, hb.DepartedAt)
}

// stateSeeds is the seed corpus of FuzzConnStateDecode: blobs of the shapes
// a migration produces.
func stateSeeds() map[string][]byte {
	rng := rand.New(rand.NewSource(7))
	key := seededBytes(rng, 32)
	empty := connState{ID: wire.ConnID{9}, LocalAgent: "mover", RemoteAgent: "anchor", SessionKey: key, NextSendSeq: 1}
	tail := empty
	tail.Leftover, tail.LeftoverSeq, tail.LastEnqueued = []byte("rest of a message"), 12, 12
	closed := empty
	closed.PeerClosed, closed.LastEnqueued = true, 3
	closed.RecvBuf = [][]byte{frameTrain(2, []byte("unread"), []byte("then EOF"))}
	sizes := empty
	sizes.LastEnqueued, sizes.NextSendSeq = 2, 4
	sizes.RecvBuf = [][]byte{frameTrain(1, seededBytes(rng, 1), seededBytes(rng, 1<<20))}
	sizes.SendLog = [][]byte{frameTrain(2, seededBytes(rng, 1<<20), seededBytes(rng, 1))}
	queued := empty
	queued.ID = wire.ConnID{10}
	return map[string][]byte{
		"empty state":    encodeBlob(&hookBlob{Conns: []connState{empty}}),
		"half-read tail": encodeBlob(&hookBlob{Conns: []connState{tail}, DepartedAt: time.Unix(1_700_000_000, 5)}),
		"peer closed":    encodeBlob(&hookBlob{Conns: []connState{closed}}),
		"1 B and 1 MiB":  encodeBlob(&hookBlob{Conns: []connState{sizes}}),
		"listener + backlog": encodeBlob(&hookBlob{Conns: []connState{empty, queued}, HasListener: true,
			Backlog: [][16]byte{queued.ID}, Trace: seededBytes(rng, 24)}),
		"sample": encodeBlob(&hookBlob{Conns: []connState{sampleState(rng)}}),
	}
}

// FuzzConnStateDecode: the decoder never panics, makes nothing larger than a
// constant multiple of its input, and accepts exactly one encoding per
// state — what it accepts re-encodes to the same bytes and decodes to the
// same state. Every input is tried as a blob and, past the blob header, as
// a bare record.
func FuzzConnStateDecode(f *testing.F) {
	for _, b := range stateSeeds() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		hb, err := decodeHookBlob(b)
		runtime.ReadMemStats(&m1)
		// The counter is the process's: the megabyte is for what the fuzz
		// engine's own goroutines allocate meanwhile.
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 8*uint64(len(b))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(b), grew)
		}
		if err == nil {
			again := encodeBlob(&hb)
			if !bytes.Equal(again, b) {
				t.Fatalf("accepted blob is not canonical: %d bytes re-encode to %d", len(b), len(again))
			}
			hb2, err := decodeHookBlob(again)
			if err != nil || !reflect.DeepEqual(hb, hb2) {
				t.Fatalf("decode(encode(x)) != x (%v)", err)
			}
		} else if !errors.Is(err, errBadState) {
			t.Fatalf("untyped error %v", err)
		}
		if len(b) > blobHeaderSize+1 {
			rec := b[blobHeaderSize+1:]
			if st, rest, err := takeConnState(rec); err == nil {
				if again := st.appendTo(nil); !bytes.Equal(again, rec[:len(rec)-len(rest)]) {
					t.Fatalf("accepted record is not canonical")
				}
			}
		}
	})
}

// TestStateSeedsDecode runs the fuzz corpus' own expectations in tier-1
// without the fuzz engine: every seed decodes, and a length prefix that
// promises more than the input holds is refused.
func TestStateSeedsDecode(t *testing.T) {
	for name, b := range stateSeeds() {
		hb, err := decodeHookBlob(b)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if again := encodeBlob(&hb); !bytes.Equal(again, b) {
			t.Errorf("%s: re-encodes to %d bytes, was %d", name, len(again), len(b))
		}
	}
	huge := beginBlob(nil)
	huge = sealBlob(huge, 1<<31, false, nil, time.Time{})
	if _, err := decodeHookBlob(huge); !errors.Is(err, errBadState) {
		t.Errorf("a blob promising 2^31 connections in %d bytes: %v", len(huge), err)
	}
}

// TestPostArriveIsAllOrNothing: a valid two-connection blob, with listener
// and backlog, truncated at and bit-flipped at every offset either still
// decodes (to a state that re-encodes to the damaged bytes: the damage hit a
// value, not the structure) or makes PostArrive fail with the typed error
// and leave the conn table, the listeners and the goroutine count exactly as
// they were.
func TestPostArriveIsAllOrNothing(t *testing.T) {
	env := newEnv(t, []string{"h1", "h2", "h3"}, quickOps())
	c1, s1 := env.pair("mover", "h1", "anchor1", "h2")
	env.place("anchor2", "h2")
	_, s2 := env.connect("mover", "h1", "anchor2", "h2")
	defer s1.Close()
	defer s2.Close()
	if _, err := env.hosts["h1"].ctrl.ListenAs("mover", env.hosts["h1"].cred("mover")); err != nil {
		t.Fatal(err)
	}
	for i, s := range []*Socket{s1, s2} {
		for j := 0; j < 3; j++ {
			writeCounter(t, s, 10*i+j)
		}
	}
	// Half-read the first message of one connection, so a tail travels; the
	// suspend drain brings in whatever is still in flight.
	if _, err := c1.Read(make([]byte, 3)); err != nil {
		t.Fatal(err)
	}
	blob, err := env.hosts["h1"].ctrl.PreDepart("mover")
	if err != nil {
		t.Fatal(err)
	}
	hb, err := decodeHookBlob(blob)
	if err != nil || len(hb.Conns) != 2 || !hb.HasListener {
		t.Fatalf("blob: %v, %+v", err, hb)
	}

	dst := env.hosts["h3"].ctrl
	base := settledGoroutines(t, 0)
	rejected := 0
	try := func(what string, damaged []byte) {
		t.Helper()
		if got, err := decodeHookBlob(damaged); err == nil {
			if again := encodeBlob(&got); !bytes.Equal(again, damaged) {
				t.Fatalf("%s: accepted, but re-encodes differently", what)
			}
			return
		}
		rejected++
		err := dst.PostArrive("mover", damaged)
		if !errors.Is(err, errBadState) {
			t.Fatalf("%s: PostArrive returned %v", what, err)
		}
		dst.mu.Lock()
		listeners := len(dst.listeners)
		dst.mu.Unlock()
		if n := dst.tab.count(); n != 0 || listeners != 0 {
			t.Fatalf("%s: %d connections and %d listeners registered by a failed arrival", what, n, listeners)
		}
	}
	for n := 1; n < len(blob); n++ {
		try("truncated", blob[:n])
	}
	if rejected != len(blob)-1 {
		t.Errorf("%d of %d truncations rejected", rejected, len(blob)-1)
	}
	for off := range blob {
		for bit := 0; bit < 8; bit++ {
			damaged := bytes.Clone(blob)
			damaged[off] ^= 1 << bit
			try("bit flip", damaged)
		}
	}
	t.Logf("%d-byte blob: %d damaged copies rejected", len(blob), rejected)
	if after := settledGoroutines(t, base); after > base {
		t.Errorf("goroutines grew from %d to %d over failed arrivals", base, after)
	}

	// The undamaged blob still lands whole.
	if err := env.svc.Update("mover", env.hosts["h3"].loc(), 2); err != nil {
		t.Fatal(err)
	}
	if err := dst.PostArrive("mover", blob); err != nil {
		t.Fatal(err)
	}
	if n := len(dst.AgentSockets("mover")); n != 2 {
		t.Fatalf("%d connections arrived, want 2", n)
	}
	for _, s := range dst.AgentSockets("mover") {
		waitEstablished(t, s)
		s.Close()
	}
}

// gobEraConnState and gobEraEntry are the types a pre-v1 binary journaled
// with encoding/gob.
type gobEraEntry struct {
	Seq       uint64
	Payload   []byte
	ViaBuffer bool
}

type gobEraConnState struct {
	ID                        [16]byte
	LocalAgent, RemoteAgent   string
	SessionKey                []byte
	NextSendSeq, LastEnqueued uint64
	RecvBuf                   []gobEraEntry
	Leftover                  []byte
	LeftoverSeq               uint64
	LeftoverBuf               bool
	SendLog                   []gobEraEntry
	PeerControlAddr           string
	PeerDataAddr              string
	SendNonce, LastPeerNonce  uint64
	OwesSusRes, Accepted      bool
	PeerClosed                bool
}

// TestRecoverSkipsPreV1Records: a journal written by a gob-era binary holds
// connection records without the magic; recovery names the cause, restores
// the records it can read, and carries on.
func TestRecoverSkipsPreV1Records(t *testing.T) {
	dir := t.TempDir()
	j, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	rng := rand.New(rand.NewSource(11))
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(&gobEraConnState{
		ID: wire.ConnID{7}, LocalAgent: "old", RemoteAgent: "peer", SessionKey: seededBytes(rng, 32),
		NextSendSeq: 2, RecvBuf: []gobEraEntry{{Seq: 1, Payload: []byte("x"), ViaBuffer: true}},
	}); err != nil {
		t.Fatal(err)
	}
	current := connState{ID: wire.ConnID{8}, LocalAgent: "new", RemoteAgent: "peer",
		SessionKey: seededBytes(rng, 32), NextSendSeq: 1, PeerControlAddr: "127.0.0.1:1"}
	for key, data := range map[string][]byte{
		connJournalKey("old", wire.ConnID{7}): old.Bytes(),
		connJournalKey("new", wire.ConnID{8}): current.appendTo(nil),
	} {
		if err := j.Put(journal.KindConn, key, data); err != nil {
			t.Fatal(err)
		}
	}

	var mu sync.Mutex
	var lines []string
	h := newFaultHost(t, "h1", naming.NewService(), func(c *Config) {
		c.Journal = j
		c.OpTimeout, c.ParkTimeout = 50*time.Millisecond, 100*time.Millisecond
		c.Logger = obs.NewLogger(func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			lines = append(lines, strings.TrimSpace(fmt.Sprintf(format, args...)))
		}, obs.LevelInfo)
	})
	n, err := h.ctrl.RecoverConns()
	if err != nil || n != 1 {
		t.Fatalf("RecoverConns = %d, %v; want the one v1 record", n, err)
	}
	if _, err := h.ctrl.AgentSocket("new", wire.ConnID{8}); err != nil {
		t.Error(err)
	}
	mu.Lock()
	defer mu.Unlock()
	named := 0
	for _, l := range lines {
		if strings.Contains(l, "connection record in pre-v1 format, skipped") {
			named++
		}
		if strings.Contains(l, "undecodable") {
			t.Errorf("pre-v1 record reported as %q", l)
		}
	}
	if named != 1 {
		t.Errorf("%d lines name the pre-v1 record, want 1:\n%s", named, strings.Join(lines, "\n"))
	}
}
