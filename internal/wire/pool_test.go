package wire

import (
	"runtime/debug"
	"testing"
)

// TestPayloadPoolRecyclesWithoutAllocating pins the fix for PutPayload
// boxing its argument on every call: once a class is warm, a buffer goes
// round the pool — Get, Put — without touching the heap.
func TestPayloadPoolRecyclesWithoutAllocating(t *testing.T) {
	if raceDetector() {
		t.Skip("under the race detector sync.Pool drops a quarter of what is put into it, on purpose")
	}
	for _, n := range []int{100, 4 << 10, 64 << 10, MaxFramePayload} {
		PutPayload(GetPayload(n)) // warm the class and the box
		if allocs := testing.AllocsPerRun(200, func() { PutPayload(GetPayload(n)) }); allocs != 0 {
			t.Errorf("a warm GetPayload(%d)+PutPayload pair allocates %.1f times, want 0", n, allocs)
		}
	}
}

// TestPayloadPoolHoldsAtMostTwiceTheRequest: a count of buffer capacities
// bounds the data in them only if no buffer is much larger than what it
// holds. Requests between the last two classes are sized exactly, and such
// a buffer does not come back as a member of a class it dwarfs.
func TestPayloadPoolHoldsAtMostTwiceTheRequest(t *testing.T) {
	for _, n := range []int{MaxMuxPayload + 1, 100 << 10, 512 << 10, 512<<10 + 9, MaxFramePayload + FrameHeaderSize} {
		b := GetPayload(n)
		if len(b) != n || cap(b) > 2*n {
			t.Errorf("GetPayload(%d): len %d cap %d, want cap <= %d", n, len(b), cap(b), 2*n)
		}
		PutPayload(b)
	}
	PutPayload(make([]byte, 300<<10))
	for i := 0; i < 8; i++ {
		if b := GetPayload(64 << 10); cap(b) > 2*(64<<10) {
			t.Fatalf("a %d-byte buffer came back from the 64 KiB class", cap(b))
		}
	}
}

// raceDetector reports whether the test binary was built with -race.
func raceDetector() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
