package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"p2pstream"
	"p2pstream/internal/transport"
)

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true}, // 10 beyond p99.9
		{9999, 99, true},    // 9 beyond p99.9
		{3000, 99, true},
		{256, 95, true}, // 12 beyond p95, 2 beyond p99
		{192, 90, true}, // 9 beyond p95
		{20, 50, true},
		{19, 0, false},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && beyond(tc.n, got) < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%v", tc.n, beyond(tc.n, got), got)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// served returns a requester admitted lat after its due arrival.
func served(offset, lat time.Duration) reqResult {
	return reqResult{
		arrival:  arrival{Offset: offset},
		admitV:   offset + lat,
		attempts: 1,
		report: &p2pstream.SessionReport{
			TheoreticalDelay: time.Millisecond, MeasuredDelay: time.Millisecond,
		},
	}
}

func TestFailureAccounting(t *testing.T) {
	// Latency runs from the due arrival, not from when the generator got
	// round to the requester: the lag is charged to the result.
	late := served(10*time.Millisecond, 7*time.Millisecond)
	late.lag = 3 * time.Millisecond
	if got := admitLatencies([]reqResult{late})[0]; got != 7 {
		t.Errorf("latency = %v ms, want 7 (from the due instant)", got)
	}

	// Twenty requesters, five never admitted: the failures sort beyond
	// every served latency and raise every percentile they reach.
	res := make([]reqResult, 20)
	for i := range res {
		res[i] = served(0, time.Duration(i+1)*time.Millisecond)
	}
	for i := 15; i < 20; i++ {
		res[i] = reqResult{attempts: 400, rejected: 400}
	}
	lat := admitLatencies(res)
	if got := percentile(append([]float64(nil), lat...), 50); got != 10 {
		t.Errorf("p50 = %v, want 10 (the 10th of 20)", got)
	}
	if got := percentile(append([]float64(nil), lat...), 80); !math.IsInf(got, 1) {
		t.Errorf("p80 = %v, want +Inf: the 16th sample is a failure", got)
	}

	w := &overlayWorkload{pop: population{n: 20}, file: p2pstream.MediaFile{Segments: 4}}
	m := make(map[string]float64)
	viewer(m, w, []*overlayRound{{res: res, measured: time.Second}})
	if got := m["unserved_share"]; got != 0.25 {
		t.Errorf("unserved_share = %v, want 0.25", got)
	}
	if got := m["admits_per_s"]; got != 15 {
		t.Errorf("admits_per_s = %v, want 15", got)
	}
	if got := m["reject_rate"]; got != 2000.0/2015 {
		t.Errorf("reject_rate = %v, want %v", got, 2000.0/2015)
	}
	if got := m["admit_tail_pct"]; got != 50 {
		t.Errorf("admit_tail_pct = %v, want 50 for n=20", got)
	}
}

func TestClassifyTransportFrames(t *testing.T) {
	bodies := map[transport.Kind]any{
		transport.KindProbe:            transport.Probe{RequesterID: "r1", Class: 2},
		transport.KindCandidates:       transport.Candidates{Peers: []transport.Candidate{{ID: "s1", Addr: "s1:1", Class: 1}}},
		transport.KindSegment:          transport.Segment{ID: 3, Data: bytes.Repeat([]byte{7}, 4096)},
		transport.KindChordFingerQuery: transport.ChordFingerQuery{Key: 42},
		transport.KindRegisterOK:       struct{}{},
		transport.KindError:            transport.Error{Message: "busy"},
	}
	samples := make(map[transport.Kind][][]byte)
	for kind, body := range bodies {
		var buf bytes.Buffer
		if err := transport.Write(&buf, kind, body); err != nil {
			t.Fatalf("write %s: %v", kind, err)
		}
		frame := buf.Bytes()
		if got := classify(frame); got != kind {
			t.Errorf("classify(%s frame) = %q", kind, got)
		}
		if got := classify(frame[:len(frame)-1]); got != kindPartial {
			t.Errorf("classify(truncated %s frame) = %q, want %q", kind, got, kindPartial)
		}
		if got := classify(append(append([]byte(nil), frame...), frame...)); got != kindPartial {
			t.Errorf("classify(two %s frames) = %q, want %q", kind, got, kindPartial)
		}
		samples[kind] = [][]byte{frame}
	}
	costs := replay(samples)
	if len(costs) != len(bodies) {
		t.Fatalf("replayed %d kinds, want %d: %+v", len(costs), len(bodies), costs)
	}
	for _, c := range costs {
		if c.DecodeNs <= 0 || c.EncodeNs <= 0 {
			t.Errorf("%s: decode %v ns, encode %v ns", c.Kind, c.DecodeNs, c.EncodeNs)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "requester", VStart: 0, VEnd: 100},
		{ID: 2, Parent: 1, Name: "node.request", VStart: 10, VEnd: 40},
		{ID: 3, Parent: 1, Name: "backoff", VStart: 40, VEnd: 60},
		{ID: 4, Parent: 1, Name: "node.request", VStart: 60, VEnd: 130}, // runs past its parent
		{ID: 5, Parent: 2, Name: "netx.dial", VStart: 12, VEnd: 20},
		{ID: 6, Parent: 2, Name: "netx.dial", VStart: 15, VEnd: 25}, // overlaps its sibling
	}
	virt, _ := selfTime(spans)
	want := map[string]int64{
		"requester":    10,             // 100 minus 10..100 covered
		"node.request": (30 - 13) + 70, // 13 covered by dials
		"backoff":      20,
		"netx.dial":    18,
	}
	for name, w := range want {
		if virt[name] != w {
			t.Errorf("self %s = %d, want %d", name, virt[name], w)
		}
	}
}

// tiny is a small overlay shape for the transparency test.
var tiny = &overlayWorkload{
	seeds:       4,
	pop:         population{prefix: "t", n: 12, spread: 5 * time.Millisecond, class1Share: 0.5},
	file:        p2pstream.MediaFile{Name: "clip", Segments: 8, SegmentBytes: 256, SegmentTime: 2 * time.Millisecond},
	link:        p2pstream.LinkConfig{Latency: 300 * time.Microsecond},
	m:           4,
	backoff:     p2pstream.BackoffConfig{Base: 2 * time.Millisecond, Factor: 2, Cap: 40 * time.Millisecond},
	jitter:      0.5,
	maxAttempts: 400,
	retry:       5 * time.Millisecond,
	coalesce:    time.Millisecond,
}

func TestWrapperTransparency(t *testing.T) {
	for _, chord := range []bool{false, true} {
		w := *tiny
		w.chord = chord
		if chord {
			w.stabilize = 50 * time.Millisecond
			w.warmup = 200 * time.Millisecond
		}
		counts := make(map[bool]int)
		for _, traced := range []bool{false, true} {
			r, err := w.run(7, traced)
			if err != nil {
				t.Fatalf("chord=%v traced=%v: %v", chord, traced, err)
			}
			if len(r.failures) > 0 {
				t.Errorf("chord=%v traced=%v: %v", chord, traced, r.failures)
			}
			for _, q := range r.res {
				if q.report != nil {
					counts[traced]++
				}
			}
			if traced {
				l := r.probe.lay
				if l.dials.Load() == 0 || l.timers.Load() == 0 || len(l.frames) == 0 {
					t.Errorf("chord=%v: traced round counted %d dials, %d timers, %d frame kinds",
						chord, l.dials.Load(), l.timers.Load(), len(l.frames))
				}
				if l.frames[kindPartial] != 0 {
					t.Errorf("chord=%v: %d writes did not hold exactly one frame", chord, l.frames[kindPartial])
				}
				if len(r.probe.tr.spans) == 0 {
					t.Errorf("chord=%v: traced round kept no spans", chord)
				}
			}
		}
		if counts[false] != w.pop.n || counts[true] != w.pop.n {
			t.Errorf("chord=%v: served %d untraced, %d traced; want all %d", chord, counts[false], counts[true], w.pop.n)
		}
	}
}

func TestGenerateIsSeeded(t *testing.T) {
	pop := population{prefix: "x", n: 50, spread: time.Second, class1Share: 0.5}
	a, b := generate(3, pop), generate(3, pop)
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Offset != b[i].Offset || a[i].Class != b[i].Class || a[i].uniform() != b[i].uniform() {
			t.Fatalf("arrival %d differs between equal seeds", i)
		}
	}
	if c := generate(4, pop); c[0].Offset == a[0].Offset && c[1].Offset == a[1].Offset {
		t.Error("different seeds gave the same arrivals")
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json lists exactly the
// metrics the command reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for i, w := range spec.Workloads {
		if i >= len(workloadNames) || workloadNames[i] != w.Name {
			t.Errorf("workload %d is %q, the command has %v", i, w.Name, workloadNames)
		}
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d reported", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), command reports %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
