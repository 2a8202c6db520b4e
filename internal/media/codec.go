package media

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
)

// Quality is a bitrate-class index for one segment's encoding: 0 is full
// quality, and each step halves the nominal byte size — the paper's dyadic
// R0/2^c offer ladder applied to the media itself, so a congested session
// can downgrade one class and keep playing instead of stalling.
type Quality int

// MaxQuality bounds the downgrade ladder. Below R0/2^4 the rendition is no
// longer watchable; sessions stall rather than degrade further.
const MaxQuality Quality = 4

// Valid reports whether q is on the ladder.
func (q Quality) Valid() bool { return q >= 0 && q <= MaxQuality }

// SizeAt returns the nominal byte size of one segment encoded at quality q:
// the full segment size halved once per class.
func (f *File) SizeAt(q Quality) int {
	n := f.SegmentBytes >> uint(q)
	if n < 1 {
		n = 1
	}
	return n
}

// Codec produces the rendition of a segment at a given quality class. Both
// ends of a transfer regenerate content deterministically (nothing ships a
// real media file), so a codec is a pure function of (file, id, quality)
// and the receiver can verify delivery byte-exactly at any class.
type Codec interface {
	// Name identifies the codec in reports.
	Name() string
	// EncodeAt returns segment id encoded at quality q. The returned bytes
	// may be shared with every other caller and must not be modified.
	EncodeAt(f *File, id SegmentID, q Quality) Segment
}

// PerfectCodec is an idealized scalable codec: the rendition at quality q
// is exactly the nominal dyadic size, produced by striding the canonical
// full-quality content. Every class of every segment is reproducible from
// (file, id, q) alone, and every rendition is a window onto one shared
// table (see rungTable), so encoding neither allocates nor copies.
type PerfectCodec struct{}

// Name implements Codec.
func (PerfectCodec) Name() string { return "perfect" }

// EncodeAt implements Codec: it keeps every 2^q-th byte of the canonical
// content, so a downgraded rendition is a strict subsample of the full one.
// A segment the file does not have, or a quality off the ladder, has no
// rendition: the result then carries no data. The returned bytes are
// shared and must not be modified.
func (PerfectCodec) EncodeAt(f *File, id SegmentID, q Quality) Segment {
	if id < 0 || int(id) >= f.Segments || !q.Valid() {
		return Segment{ID: id, Quality: q}
	}
	n := f.SizeAt(q)
	o := int(id) % contentPrime * rungOffset[q] % contentPrime
	t := rungTable(q, n+contentPrime-1)
	return Segment{ID: id, Quality: q, Data: t[o : o+n : o+n]}
}

// The synthetic media: byte i of segment id at full quality is
// (id·131 + i·31) mod 251, and rendition q keeps every 2^q-th byte. Byte k
// of rendition q is therefore (c + k·s_q) mod 251, with c = id·131 mod 251
// and s_q = 31·2^q mod 251. Since 251 is prime and s_q ≠ 0, that sequence
// is a rotation of T_q[j] = j·s_q mod 251 starting at o = c·s_q⁻¹ mod 251,
// so every rendition is the window T_q[o : o+n] of one table per rung.
const contentPrime = 251

// rungOffset[q] is 131·s_q⁻¹ mod 251: segment id's window on T_q starts at
// (id mod 251)·rungOffset[q] mod 251.
var rungOffset = func() (off [MaxQuality + 1]int) {
	for q := range off {
		step := 31 << q % contentPrime
		inv := 1
		for step*inv%contentPrime != 1 {
			inv++
		}
		off[q] = 131 * inv % contentPrime
	}
	return off
}()

// rungTables[q] holds T_q. A table is never written after it is published:
// growing one builds a longer table and publishes that, so windows handed
// out earlier stay valid.
var (
	rungTables [MaxQuality + 1]atomic.Pointer[[]byte]
	rungGrow   sync.Mutex
)

// rungTable returns T_q with at least need bytes.
func rungTable(q Quality, need int) []byte {
	if t := rungTables[q].Load(); t != nil && len(*t) >= need {
		return *t
	}
	rungGrow.Lock()
	defer rungGrow.Unlock()
	old := rungTables[q].Load()
	if old != nil && len(*old) >= need {
		return *old
	}
	if old != nil {
		need = max(need, 2*len(*old))
	}
	step := 31 << q % contentPrime
	t := make([]byte, need)
	v := 0
	for j := range t {
		t[j] = byte(v)
		if v += step; v >= contentPrime {
			v -= contentPrime
		}
	}
	rungTables[q].Store(&t)
	return t
}

// StatisticalCodec models a variable-bitrate encoder: segment sizes jitter
// deterministically around the nominal dyadic size (up to ±25%), the way a
// real encoder spends bits unevenly across a scene. Content remains a pure
// function of (seed, id, q), so transfers still verify byte-exactly.
type StatisticalCodec struct {
	// Seed fixes the size jitter and content stream; two suppliers with
	// the same seed hold identical renditions.
	Seed int64
}

// Name implements Codec.
func (c StatisticalCodec) Name() string { return "statistical" }

// EncodeAt implements Codec.
func (c StatisticalCodec) EncodeAt(f *File, id SegmentID, q Quality) Segment {
	nominal := f.SizeAt(q)
	h := splitmix(uint64(c.Seed) ^ uint64(id)*0x9e3779b97f4a7c15 ^ uint64(q)<<56)
	// Jitter in [-25%, +25%] of nominal, but never past the full segment
	// size and never empty.
	jitter := int(h%uint64(nominal/2+1)) - nominal/4
	n := nominal + jitter
	if n > f.SegmentBytes {
		n = f.SegmentBytes
	}
	if n < 1 {
		n = 1
	}
	data := make([]byte, n)
	x := h
	for i := range data {
		x = splitmix(x)
		data[i] = byte(x)
	}
	return Segment{ID: id, Quality: q, Data: data}
}

// splitmix is the SplitMix64 mixing step — a tiny, allocation-free PRNG
// good enough for synthetic media bytes.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SegmentContentAt returns the canonical rendition of a segment at quality
// q using the default (perfect) codec. SegmentContent is the full-quality
// special case. The returned bytes are shared and must not be modified.
func SegmentContentAt(f *File, id SegmentID, q Quality) Segment {
	return PerfectCodec{}.EncodeAt(f, id, q)
}

// VerifyAt checks that a received segment matches the codec's rendition at
// the segment's declared quality. A segment the file does not have, or one
// declared off the quality ladder, is rejected before any comparison.
func VerifyAt(c Codec, f *File, seg Segment) error {
	if seg.ID < 0 || int(seg.ID) >= f.Segments {
		return fmt.Errorf("media: segment %d out of range [0,%d)", seg.ID, f.Segments)
	}
	if !seg.Quality.Valid() {
		return fmt.Errorf("media: segment %d quality %d out of range [0,%d]", seg.ID, seg.Quality, MaxQuality)
	}
	want := c.EncodeAt(f, seg.ID, seg.Quality)
	if len(want.Data) != len(seg.Data) {
		return fmt.Errorf("media: segment %d q%d has %d bytes, want %d",
			seg.ID, seg.Quality, len(seg.Data), len(want.Data))
	}
	if bytes.Equal(seg.Data, want.Data) {
		return nil
	}
	i := 0
	for seg.Data[i] == want.Data[i] {
		i++
	}
	return fmt.Errorf("media: segment %d q%d differs at byte %d", seg.ID, seg.Quality, i)
}
