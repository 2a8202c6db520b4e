package media

import (
	"fmt"
	"testing"
)

// benchFile is the stream benchmark's shape: 256 segments of 4 KiB.
func benchFile() *File {
	f := StandardFile()
	f.Segments = 256
	return f
}

// BenchmarkEncodeAt measures one canonical rendition per quality class.
func BenchmarkEncodeAt(b *testing.B) {
	f := benchFile()
	var c Codec = PerfectCodec{}
	for q := Quality(0); q <= MaxQuality; q++ {
		b.Run(fmt.Sprintf("q%d", q), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if seg := c.EncodeAt(f, SegmentID(i%f.Segments), q); len(seg.Data) != f.SizeAt(q) {
					b.Fatalf("q%d: %d bytes, want %d", q, len(seg.Data), f.SizeAt(q))
				}
			}
		})
	}
}

// BenchmarkVerifyAt measures the receiver's byte-exact check of one
// full-quality segment.
func BenchmarkVerifyAt(b *testing.B) {
	f := benchFile()
	seg := Segment{ID: 7, Data: append([]byte(nil), SegmentContent(f, 7).Data...)}
	var c Codec = PerfectCodec{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := VerifyAt(c, f, seg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewSeededStore measures building one seed's complete store.
func BenchmarkNewSeededStore(b *testing.B) {
	f := benchFile()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewSeededStore(f); err != nil {
			b.Fatal(err)
		}
	}
}
