package media

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// referenceRendition is the synthetic media by its definition: byte i of
// segment id at full quality is (id·131 + i·31) mod 251, and rendition q
// keeps every 2^q-th byte, up to the nominal size. PerfectCodec must match
// it byte for byte.
func referenceRendition(segBytes int, id SegmentID, q Quality) []byte {
	full := make([]byte, segBytes)
	for i := range full {
		full[i] = byte((int(id)*131 + i*31) % 251)
	}
	return strideRendition(full, q)
}

// strideRendition keeps every 2^q-th byte of full, up to the nominal size.
func strideRendition(full []byte, q Quality) []byte {
	if q == 0 {
		return full
	}
	n := max(len(full)>>q, 1)
	out := make([]byte, 0, n)
	for i := 0; i < len(full) && len(out) < n; i += 1 << q {
		out = append(out, full[i])
	}
	return out
}

// TestPerfectCodecMatchesReference is the pinned sweep: sizes around the
// table period (251) and the stream shape, every id below 800, every class.
func TestPerfectCodecMatchesReference(t *testing.T) {
	for _, size := range []int{1, 2, 3, 7, 16, 64, 250, 251, 252, 1000, 4096, 9999} {
		f := &File{Name: "sweep", Segments: 800, SegmentBytes: size, SegmentTime: time.Second}
		for id := SegmentID(0); id < 800; id++ {
			full := referenceRendition(size, id, 0)
			for q := Quality(0); q <= MaxQuality; q++ {
				got := PerfectCodec{}.EncodeAt(f, id, q)
				want := strideRendition(full, q)
				if got.ID != id || got.Quality != q || !bytes.Equal(got.Data, want) {
					t.Fatalf("size %d seg %d q%d: got %d bytes tagged (%d, q%d), want the %d reference bytes",
						size, id, q, len(got.Data), got.ID, got.Quality, len(want))
				}
				if cap(got.Data) != len(got.Data) {
					t.Fatalf("size %d seg %d q%d: cap %d > len %d: an append would write into the shared table",
						size, id, q, cap(got.Data), len(got.Data))
				}
			}
		}
	}
}

// TestSeededStoreWindowsAreCapped: a seed's segments are windows onto the
// shared tables, capped so that an append copies instead of overwriting
// the bytes of the segments that follow.
func TestSeededStoreWindowsAreCapped(t *testing.T) {
	f := codecFile()
	s, err := NewSeededStore(f)
	if err != nil {
		t.Fatal(err)
	}
	for id := SegmentID(0); id < SegmentID(f.Segments); id++ {
		seg, _ := s.Get(id)
		next, _ := s.Get(id + 1)
		if cap(seg.Data) != len(seg.Data) {
			t.Fatalf("seg %d: cap %d > len %d", id, cap(seg.Data), len(seg.Data))
		}
		// Appending to a window must copy, never touch its neighbours.
		before := append([]byte(nil), next.Data...)
		_ = append(seg.Data, 0xff)
		if again, _ := s.Get(id + 1); !bytes.Equal(again.Data, before) {
			t.Fatalf("appending to seg %d changed seg %d", id, id+1)
		}
	}
}

func TestVerifyAtRejectsSegmentsOffTheFile(t *testing.T) {
	f := &File{Name: "short", Segments: 4, SegmentBytes: 64, SegmentTime: time.Second}
	genuine := SegmentContentAt(f, 2, 1)
	for _, tc := range []struct {
		name string
		seg  Segment
		ok   bool
	}{
		{"genuine", genuine, true},
		{"id past the file", Segment{ID: 9, Data: referenceRendition(64, 9, 0)}, false},
		{"id at the file's length", Segment{ID: 4, Data: referenceRendition(64, 4, 0)}, false},
		{"negative id", Segment{ID: -1, Data: make([]byte, 64)}, false},
		{"quality past the ladder", Segment{ID: 2, Quality: 6, Data: referenceRendition(64, 2, 6)}, false},
		{"negative quality", Segment{ID: 2, Quality: -1, Data: make([]byte, 64)}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, c := range []Codec{PerfectCodec{}, StatisticalCodec{Seed: 3}} {
				seg := tc.seg
				if tc.ok {
					seg = c.EncodeAt(f, seg.ID, seg.Quality)
				}
				if err := VerifyAt(c, f, seg); (err == nil) != tc.ok {
					t.Errorf("%s: VerifyAt = %v, want ok=%v", c.Name(), err, tc.ok)
				}
			}
		})
	}
}

// TestRungTablesConcurrentGrowth asks for renditions of many segment sizes
// at once, growing the shared tables, while other goroutines re-read
// windows handed out before the growth. Run it under -race.
func TestRungTablesConcurrentGrowth(t *testing.T) {
	small := codecFile()
	var held []Segment
	for q := Quality(0); q <= MaxQuality; q++ {
		for id := SegmentID(0); id < 8; id++ {
			held = append(held, SegmentContentAt(small, id, q))
		}
	}
	const readers, growers = 4, 4
	var wg sync.WaitGroup
	errs := make(chan error, readers+growers) // each goroutine sends at most once
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, seg := range held {
					if want := referenceRendition(small.SegmentBytes, seg.ID, seg.Quality); !bytes.Equal(seg.Data, want) {
						errs <- fmt.Errorf("held seg %d q%d changed", seg.ID, seg.Quality)
						return
					}
				}
			}
		}()
	}
	for g := 0; g < growers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				size := small.SegmentBytes<<(i+1) + g*97
				f := &File{Name: "grow", Segments: 4, SegmentBytes: size, SegmentTime: time.Second}
				q := Quality((g + i) % int(MaxQuality+1))
				if got := SegmentContentAt(f, 3, q).Data; !bytes.Equal(got, referenceRendition(size, 3, q)) {
					errs <- fmt.Errorf("size %d q%d: rendition differs from the reference", size, q)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func FuzzPerfectCodec(f *testing.F) {
	f.Add(4096, 7, 0)
	f.Add(251, 250, 4)
	f.Add(1, 0, 3)
	f.Add(9999, 799, 2)
	// Segments off the file and qualities off the ladder have no rendition.
	f.Add(64, -1, 1)
	f.Add(64, -5, -5)
	f.Add(64, 1000, 0)
	f.Add(64, 1<<40, 2)
	f.Add(64, 3, 9)
	f.Add(64, 3, -2)
	f.Add(64, 3, 1<<20)
	f.Fuzz(func(t *testing.T, segBytes, id, q int) {
		// Keep the table small: sizes map into [1, 64 KiB].
		if segBytes < 0 {
			segBytes = -(segBytes + 1)
		}
		segBytes = 1 + segBytes%(1<<16)
		file := &File{Name: "fuzz", Segments: 1000, SegmentBytes: segBytes, SegmentTime: time.Second}
		seg := PerfectCodec{}.EncodeAt(file, SegmentID(id), Quality(q))
		if id < 0 || id >= file.Segments || !Quality(q).Valid() {
			if seg.Data != nil {
				t.Fatalf("size %d seg %d q%d: %d bytes for a segment off the file", segBytes, id, q, len(seg.Data))
			}
			return
		}
		if want := referenceRendition(segBytes, SegmentID(id), Quality(q)); !bytes.Equal(seg.Data, want) {
			t.Fatalf("size %d seg %d q%d: rendition differs from the reference", segBytes, id, q)
		}
		if cap(seg.Data) != len(seg.Data) {
			t.Fatalf("size %d seg %d q%d: cap %d > len %d", segBytes, id, q, cap(seg.Data), len(seg.Data))
		}
		if err := VerifyAt(PerfectCodec{}, file, seg); err != nil {
			t.Fatal(err)
		}
	})
}
