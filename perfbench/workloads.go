package main

import (
	"time"

	"p2pstream"
)

// The four workloads. Sizes are set so one round takes a few seconds of
// wall time on two cores, leaving several rounds per run for medians.

// crowd is a flash crowd of class-1 requesters against 512 class-1 seeds
// on the centralized directory, in the megacrowd shape: a 4×64 B clip,
// the legacy burst data plane, jittered capped backoff and 1 ms clock
// coalescing. Control-plane bound: per-admission cost dominates.
var crowd = &overlayWorkload{
	seeds:       512,
	pop:         population{prefix: "m", n: 3000, spread: 10 * time.Millisecond, class1Share: 1},
	file:        p2pstream.MediaFile{Name: "clip", Segments: 4, SegmentBytes: 64, SegmentTime: 2 * time.Millisecond},
	link:        p2pstream.LinkConfig{Latency: 300 * time.Microsecond},
	m:           4,
	backoff:     p2pstream.BackoffConfig{Base: 2 * time.Millisecond, Factor: 2, Cap: 40 * time.Millisecond},
	jitter:      0.5,
	maxAttempts: 400,
	retry:       5 * time.Millisecond,
	coalesce:    time.Millisecond,
	delayGate:   true,
}

// ring is the chord-256 shape: 64 seeds found a replicated (K=3),
// virtual-node (V=4) ring with 50 ms stabilization, 192 requesters arrive
// after a 1 s warmup, and seed 1's host goes down 40 ms into the crowd.
// Discovery bound; no directory runs.
var ring = &overlayWorkload{
	seeds:       64,
	pop:         population{prefix: "c", n: 192, spread: 20 * time.Millisecond, class1Share: 1},
	warmup:      time.Second,
	file:        p2pstream.MediaFile{Name: "clip", Segments: 4, SegmentBytes: 64, SegmentTime: 2 * time.Millisecond},
	link:        p2pstream.LinkConfig{Latency: 300 * time.Microsecond},
	m:           4,
	backoff:     p2pstream.BackoffConfig{Base: 2 * time.Millisecond, Factor: 2, Cap: 40 * time.Millisecond},
	jitter:      0.5,
	maxAttempts: 400,
	retry:       5 * time.Millisecond,
	coalesce:    time.Millisecond,
	chord:       true,
	stabilize:   50 * time.Millisecond,
	crashAt:     40 * time.Millisecond,
	delayGate:   true,
}

// stream is bulk media: 64 class-1 seeds and 128 requesters, half class 1
// and half class 2, spread over 2 s, each session 256 segments of 4 KiB
// at δt = 4 ms
// (R0 = 1 MB/s) on the adaptive data plane (pacing, bandwidth estimation,
// the bitrate ladder), with 1 ms coalescing. Same netx/transport layers
// as crowd, but bytes rather than tiny frames. It has no fidelity round:
// on the default clock this shape still misses the measured-delay bound
// on some seeds (one session in eight, by up to 7 ms), a clock-fidelity
// defect its late_share reports instead.
var stream = &overlayWorkload{
	seeds:       64,
	pop:         population{prefix: "v", n: 128, spread: 2 * time.Second, class1Share: 0.5},
	file:        p2pstream.MediaFile{Name: "show", Segments: 256, SegmentBytes: 4096, SegmentTime: 4 * time.Millisecond},
	link:        p2pstream.LinkConfig{Latency: 300 * time.Microsecond},
	m:           8,
	backoff:     p2pstream.BackoffConfig{Base: 20 * time.Millisecond, Factor: 2, Cap: 320 * time.Millisecond},
	jitter:      0.5,
	maxAttempts: 400,
	retry:       20 * time.Millisecond,
	coalesce:    time.Millisecond,
	adapt:       true,
}

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"crowd", "ring", "stream", "paper-sim"}

// overlayWorkloads maps the live-overlay workload names to their shapes.
var overlayWorkloads = map[string]*overlayWorkload{
	"crowd":  crowd,
	"ring":   ring,
	"stream": stream,
}
