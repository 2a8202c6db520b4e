// Package media models the constant-bit-rate (CBR) media file shared by the
// peer-to-peer streaming system.
//
// Following Section 2 of the paper, the media file is partitioned into small
// sequential segments of equal size; the stream is CBR, so every segment has
// the same playback time δt (typically on the order of seconds). A peer that
// plays the file consumes segment s during the interval
// [start + s·δt, start + (s+1)·δt), where start is the playback start time.
//
// The content is synthetic and deterministic, so both ends of a transfer
// can regenerate it. Canonical renditions are windows onto one shared,
// immutable table per quality class: bytes returned by SegmentContent,
// SegmentContentAt, Codec.EncodeAt and Store.Get may be shared across
// segments, stores and goroutines, and must not be modified.
package media

import (
	"errors"
	"fmt"
	"time"
)

// SegmentID identifies a segment by its position in the file (0-based).
type SegmentID int

// File describes a CBR media file.
type File struct {
	// Name identifies the media item (e.g. "popular-video").
	Name string
	// Segments is the total number of equal-size segments.
	Segments int
	// SegmentBytes is the size of each segment in bytes.
	SegmentBytes int
	// SegmentTime is δt: the playback duration of one segment.
	SegmentTime time.Duration
}

// Validate returns an error if the file description is unusable.
func (f *File) Validate() error {
	switch {
	case f.Name == "":
		return errors.New("media: file needs a name")
	case f.Segments <= 0:
		return fmt.Errorf("media: %q has %d segments, want > 0", f.Name, f.Segments)
	case f.SegmentBytes <= 0:
		return fmt.Errorf("media: %q segment size %d, want > 0", f.Name, f.SegmentBytes)
	case f.SegmentTime <= 0:
		return fmt.Errorf("media: %q segment time %v, want > 0", f.Name, f.SegmentTime)
	}
	return nil
}

// Duration is the total playback time of the file ("show time").
func (f *File) Duration() time.Duration {
	return time.Duration(f.Segments) * f.SegmentTime
}

// TotalBytes is the size of the whole file.
func (f *File) TotalBytes() int64 {
	return int64(f.Segments) * int64(f.SegmentBytes)
}

// PlaybackRateBps is R0 expressed in bytes per second.
func (f *File) PlaybackRateBps() float64 {
	return float64(f.SegmentBytes) / f.SegmentTime.Seconds()
}

// StandardFile builds the paper's simulation media item: a 60-minute video
// with 1-second segments. The byte size is arbitrary in the simulator (only
// timing matters) but is set so the live stack can stream real data.
func StandardFile() *File {
	return &File{
		Name:         "popular-video",
		Segments:     3600,
		SegmentBytes: 4096,
		SegmentTime:  time.Second,
	}
}

// Segment is one unit of media data, carrying the quality class it was
// encoded at (0 = full quality; see Quality).
type Segment struct {
	ID      SegmentID
	Quality Quality
	Data    []byte
}

// Store holds the segments of one file that a peer possesses. A requesting
// peer fills its store during a session; a supplying peer serves from a
// complete store. The zero value is an empty store for a nil file; use
// NewStore.
type Store struct {
	file *File
	data [][]byte  // indexed by SegmentID; nil means missing
	qual []Quality // quality class each stored segment arrived at
	have int
	// downgraded counts stored segments whose quality is below full.
	downgraded int
}

// NewStore returns an empty store for the given file.
func NewStore(f *File) (*Store, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &Store{file: f, data: make([][]byte, f.Segments), qual: make([]Quality, f.Segments)}, nil
}

// NewSeededStore returns a store pre-filled with the canonical synthetic
// content of every segment, as held by a "seed" supplying peer, so that
// transfers can be verified end to end. The stored segments are windows
// onto the shared rendition tables: every seed in the process holds the
// same bytes, and building a seeded store copies none of them.
func NewSeededStore(f *File) (*Store, error) {
	s, err := NewStore(f)
	if err != nil {
		return nil, err
	}
	for id := 0; id < f.Segments; id++ {
		if err := s.Put(SegmentContent(f, SegmentID(id))); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// SegmentContent returns the canonical synthetic content of a segment at
// full quality. Both ends of a transfer can regenerate it, which lets tests
// verify byte-exact delivery without shipping a real media file. The
// returned bytes are shared and must not be modified.
func SegmentContent(f *File, id SegmentID) Segment {
	return SegmentContentAt(f, id, 0)
}

// File returns the file description the store belongs to.
func (s *Store) File() *File { return s.file }

// Put stores a segment. It rejects out-of-range IDs; re-putting an
// existing segment is an error (it indicates a protocol bug: no supplier
// should send a segment twice). A full-quality segment must match the
// file's segment size exactly; a downgraded rendition (Quality > 0) only
// has to fit under it — variable-bitrate codecs make low-class sizes
// codec-dependent, and per-quality byte verification is VerifyAt's job.
func (s *Store) Put(seg Segment) error {
	if seg.ID < 0 || int(seg.ID) >= s.file.Segments {
		return fmt.Errorf("media: segment %d out of range [0,%d)", seg.ID, s.file.Segments)
	}
	if !seg.Quality.Valid() {
		return fmt.Errorf("media: segment %d quality %d out of range [0,%d]", seg.ID, seg.Quality, MaxQuality)
	}
	if seg.Quality == 0 && len(seg.Data) != s.file.SegmentBytes {
		return fmt.Errorf("media: segment %d has %d bytes, want %d", seg.ID, len(seg.Data), s.file.SegmentBytes)
	}
	if seg.Quality > 0 && (len(seg.Data) == 0 || len(seg.Data) > s.file.SegmentBytes) {
		return fmt.Errorf("media: segment %d q%d has %d bytes, want 1..%d",
			seg.ID, seg.Quality, len(seg.Data), s.file.SegmentBytes)
	}
	if s.data[seg.ID] != nil {
		return fmt.Errorf("media: segment %d already stored", seg.ID)
	}
	s.data[seg.ID] = seg.Data
	s.qual[seg.ID] = seg.Quality
	if seg.Quality > 0 {
		s.downgraded++
	}
	s.have++
	return nil
}

// Get returns the segment with the given ID, or false if it is missing.
// The returned bytes are the stored ones, possibly shared with other stores
// (a seed's content is), and must not be modified.
func (s *Store) Get(id SegmentID) (Segment, bool) {
	if id < 0 || int(id) >= s.file.Segments || s.data[id] == nil {
		return Segment{}, false
	}
	return Segment{ID: id, Quality: s.qual[id], Data: s.data[id]}, true
}

// QualityOf returns the quality class a stored segment arrived at, or -1 if
// the segment is missing.
func (s *Store) QualityOf(id SegmentID) Quality {
	if id < 0 || int(id) >= s.file.Segments || s.data[id] == nil {
		return -1
	}
	return s.qual[id]
}

// Downgraded returns how many stored segments arrived below full quality —
// the store-level view of a session's ABR activity.
func (s *Store) Downgraded() int { return s.downgraded }

// Has reports whether the segment is present.
func (s *Store) Has(id SegmentID) bool {
	return id >= 0 && int(id) < s.file.Segments && s.data[id] != nil
}

// Count returns how many segments are present.
func (s *Store) Count() int { return s.have }

// Complete reports whether every segment of the file is present.
func (s *Store) Complete() bool { return s.have == s.file.Segments }

// MissingBefore returns the first missing segment ID below limit, or -1 if
// all segments in [0, limit) are present.
func (s *Store) MissingBefore(limit SegmentID) SegmentID {
	if int(limit) > s.file.Segments {
		limit = SegmentID(s.file.Segments)
	}
	for id := SegmentID(0); id < limit; id++ {
		if s.data[id] == nil {
			return id
		}
	}
	return -1
}
