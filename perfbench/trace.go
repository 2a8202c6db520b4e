package main

import (
	"sort"
	"sync"
	"time"
)

// maxSpans bounds the spans one traced round keeps in memory; spans past
// it are counted but not kept.
const maxSpans = 500_000

// span is one traced interval, stamped in both virtual and wall time as
// nanoseconds since the round's time zero. Spans of one requester share
// Req; Parent is the causing span (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	VStart int64  `json:"v_start_ns"`
	VEnd   int64  `json:"v_end_ns"`
	WStart int64  `json:"w_start_ns"`
	WEnd   int64  `json:"w_end_ns"`
}

// tracer keeps a traced round's spans. Requester loops open an attempt
// span per Request call; spans rebuilt at the network wrapper and from
// observer events attach to the requester's open attempt.
type tracer struct {
	vZero, wZero time.Time

	mu      sync.Mutex
	spans   []span
	dropped int64
	nextID  int64
	open    map[string]int64 // requester → its in-flight attempt span
}

func newTracer(vZero, wZero time.Time) *tracer {
	return &tracer{vZero: vZero, wZero: wZero, open: make(map[string]int64)}
}

// reserve allocates a span ID ahead of the span's end, so children
// finishing first can name it as their parent.
func (t *tracer) reserve() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// finish records a span under a reserved ID.
func (t *tracer) finish(id int64, name, req string, parent int64, v0, w0, v1, w1 time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Req: req,
		VStart: int64(v0.Sub(t.vZero)), VEnd: int64(v1.Sub(t.vZero)),
		WStart: int64(w0.Sub(t.wZero)), WEnd: int64(w1.Sub(t.wZero)),
	})
}

// add records a finished span under a fresh ID.
func (t *tracer) add(name, req string, parent int64, v0, w0, v1, w1 time.Time) {
	t.finish(t.reserve(), name, req, parent, v0, w0, v1, w1)
}

// setOpen marks id as req's in-flight attempt (0 clears it).
func (t *tracer) setOpen(req string, id int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		delete(t.open, req)
		return
	}
	t.open[req] = id
}

// child records a span under req's in-flight attempt. Work of a peer with
// no attempt in flight (seeds, stabilization) is counted by the layer
// counters but not spanned.
func (t *tracer) child(name, req string, v0, w0, v1, w1 time.Time) {
	t.mu.Lock()
	parent, ok := t.open[req]
	t.mu.Unlock()
	if ok {
		t.add(name, req, parent, v0, w0, v1, w1)
	}
}

// selfTime returns, per span name, the summed self time in virtual and
// wall nanoseconds: each span's duration minus the part of it that its
// children cover (children clipped to the parent).
func selfTime(spans []span) (virt, wall map[string]int64) {
	kids := make(map[int64][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	virt, wall = make(map[string]int64), make(map[string]int64)
	for _, s := range spans {
		var vs, ws [][2]int64
		for _, k := range kids[s.ID] {
			c := spans[k]
			vs = append(vs, [2]int64{c.VStart, c.VEnd})
			ws = append(ws, [2]int64{c.WStart, c.WEnd})
		}
		virt[s.Name] += (s.VEnd - s.VStart) - covered(s.VStart, s.VEnd, vs)
		wall[s.Name] += (s.WEnd - s.WStart) - covered(s.WStart, s.WEnd, ws)
	}
	return virt, wall
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := ivs[:0:0]
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		a := max(iv[0], end)
		if iv[1] > a {
			total += iv[1] - a
			end = iv[1]
		}
	}
	return total
}
