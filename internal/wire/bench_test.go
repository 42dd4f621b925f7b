package wire

import (
	"bytes"
	"io"
	"testing"
)

// BenchmarkWriteDataCoalesced measures the encode-only cost of the
// coalescing path: frames accumulate in the writer's buffer and reach the
// (discarded) stream in 32 KiB batches, the socket layer's inline-flush
// threshold.
func BenchmarkWriteDataCoalesced(b *testing.B) {
	for _, size := range []int{16, 100, 1000} {
		b.Run(sizeName(size), func(b *testing.B) {
			fw := NewFrameWriter(io.Discard, 1)
			payload := make([]byte, size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fw.WriteDataBuffered(payload); err != nil {
					b.Fatal(err)
				}
				if fw.Buffered() >= 32<<10 {
					if err := fw.Flush(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkFrameDecoder measures decode cost with pooled payload buffers,
// recycling each frame the way the socket's pump does.
func BenchmarkFrameDecoder(b *testing.B) {
	for _, size := range []int{16, 100, 1000} {
		b.Run(sizeName(size), func(b *testing.B) {
			var stream bytes.Buffer
			fw := NewFrameWriter(&stream, 1)
			payload := make([]byte, size)
			for i := 0; i < 64; i++ {
				if _, err := fw.WriteDataBuffered(payload); err != nil {
					b.Fatal(err)
				}
			}
			if err := fw.Flush(); err != nil {
				b.Fatal(err)
			}
			encoded := stream.Bytes()
			var dec FrameDecoder
			b.SetBytes(int64(size))
			b.ResetTimer()
			frames := 0
			for frames < b.N {
				src := trickleSource{buf: encoded, avail: len(encoded)}
				for {
					f, ok, err := dec.Next(&src)
					if err != nil {
						b.Fatal(err)
					}
					if !ok {
						break
					}
					if f.Payload != nil {
						PutPayload(f.Payload)
					}
					frames++
				}
			}
		})
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1000:
		return "1000B"
	case n >= 100:
		return "100B"
	default:
		return "16B"
	}
}
