package main

import (
	"fmt"
	"time"

	"p2pstream/internal/transport"
)

// overlayTrace is the trace file of a traced overlay run.
type overlayTrace struct {
	Workload     string                   `json:"workload"`
	Seed         int64                    `json:"seed"`
	Metrics      map[string]float64       `json:"metrics"`
	Frames       map[transport.Kind]int64 `json:"frames_per_round"`
	Codec        []codecCost              `json:"codec"`
	SelfVirtMs   map[string]float64       `json:"self_virtual_ms_per_requester"`
	SelfWallMs   map[string]float64       `json:"self_wall_ms_per_requester"`
	Spans        []span                   `json:"spans"`
	SpansDropped int64                    `json:"spans_dropped"`
}

// runOverlay runs an overlay workload's rounds and aggregates them. In a
// traced run, untraced and traced rounds alternate: the viewer-facing
// numbers come from the untraced ones, the per-layer numbers from the
// traced ones.
func runOverlay(name string, w *overlayWorkload, seed int64, seconds int, traced bool) (*result, error) {
	res := &result{metrics: make(map[string]float64)}
	if w.delayGate {
		// The fidelity round gates what the coalescing clock of the
		// measured rounds cannot promise: every session's measured delay
		// within n·δt plus the link-latency allowance. It runs first, in a
		// quiet process.
		fid, err := w.fidelity().run(roundSeed(seed, -1), false)
		if err != nil {
			return nil, fmt.Errorf("fidelity round: %w", err)
		}
		res.failures = append(append(res.failures, fid.failures...), fid.late...)
		res.notes = append(res.notes, fmt.Sprintf("fidelity round (%d seeds, %d requesters, default clock): max measured-delay excess over n·δt %v, allowance %v",
			min(w.seeds, fidelitySeeds), fidelityRequesters, fid.maxDelayExcess, w.delayAllowance()))
	}
	var plain, probed []*overlayRound
	var selfV, selfW []map[string]int64
	var firstSpans []span
	var dropped int64
	err := loopRounds(seconds, minRounds(traced), func(i int) error {
		tracedRound := traced && i%2 == 1
		r, err := w.run(roundSeed(seed, i), tracedRound)
		if err != nil {
			return err
		}
		r.index = i
		if !tracedRound {
			plain = append(plain, r)
			return nil
		}
		sp := r.probe.tr.spans
		v, wl := selfTime(sp)
		selfV, selfW = append(selfV, v), append(selfW, wl)
		if firstSpans == nil {
			firstSpans, dropped = sp, r.probe.tr.dropped
		}
		r.probe.tr = nil // spans are summarized; let them go
		probed = append(probed, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	all := append(append([]*overlayRound(nil), plain...), probed...)
	for _, r := range all {
		res.attempted += len(r.res)
		res.failures = append(res.failures, r.failures...)
		for _, q := range r.res {
			if q.report == nil {
				res.failed++
				if res.failed <= 3 {
					res.notes = append(res.notes, fmt.Sprintf("unserved: %s: %v", q.ID, q.err))
				}
			}
		}
	}
	if len(res.failures) > 0 {
		res.failed += len(res.failures)
	}
	m := res.metrics
	m["bench.rounds"] = float64(len(all))
	for _, r := range all {
		admitted := 0
		for _, q := range r.res {
			if q.report != nil {
				admitted++
			}
		}
		res.notes = append(res.notes, fmt.Sprintf("round %d (traced %v): setup %.3fs, measured %.3fs wall, %.3fs virtual, %d/%d admitted, peak live heap %.1f MB",
			r.index, r.probe.lay != nil, r.setup.Seconds(), r.measured.Seconds(), r.virtual.Seconds(), admitted, len(r.res), r.heapMB))
	}
	viewer(m, w, plain)
	res.notes = append(res.notes, fmt.Sprintf("admit tail percentile p%g over n=%d requesters per round; measured rounds' max measured-delay excess over n·δt %v",
		m["admit_tail_pct"], w.pop.n, maxExcess(all)))
	if !traced {
		return res, nil
	}
	codec := layerMetrics(m, w, probed)
	tailN := w.pop.n
	self := func(maps []map[string]int64) map[string]float64 {
		out := make(map[string]float64)
		for _, mp := range maps {
			for k, ns := range mp {
				out[k] += float64(ns) / 1e6 / float64(tailN) / float64(len(maps))
			}
		}
		return out
	}
	sv, sw := self(selfV), self(selfW)
	for _, s := range spanNames {
		m["trace.self_ms."+s] = sv[s]
	}
	m["trace.spans"] = float64(len(firstSpans)) + float64(dropped)
	var plainWall, probedWall []float64
	for _, r := range plain {
		plainWall = append(plainWall, r.measured.Seconds())
	}
	for _, r := range probed {
		probedWall = append(probedWall, r.measured.Seconds())
	}
	m["bench.trace_overhead"] = ratio(median(probedWall), median(plainWall))
	frames := make(map[transport.Kind]int64)
	for _, r := range probed {
		for k, n := range r.probe.lay.frames {
			frames[k] += n / int64(len(probed))
		}
	}
	res.trace = overlayTrace{
		Workload: name, Seed: seed, Metrics: m,
		Frames: frames, Codec: codec, SelfVirtMs: sv, SelfWallMs: sw,
		Spans: firstSpans, SpansDropped: dropped,
	}
	return res, nil
}

// maxExcess is the largest measured-delay excess over n·δt of any round.
func maxExcess(rounds []*overlayRound) time.Duration {
	var m time.Duration
	for _, r := range rounds {
		m = max(m, r.maxDelayExcess)
	}
	return m
}

// viewer fills the viewer-facing metrics from untraced rounds: wall-time
// rates are medians over rounds, latency percentiles are per round (each
// round has the same requester count, so the tail percentile is fixed per
// workload) then medians, and shares are pooled.
func viewer(m map[string]float64, w *overlayWorkload, rounds []*overlayRound) {
	var setup, admits, payload, heap, p50, tail, lag []float64
	var costs roundCosts
	var attempts, rejected, sessions, stalls, late, segments, downgraded, unserved, scheduled int
	var ratios []float64
	tailPct, _ := tailPercentile(w.pop.n)
	for _, r := range rounds {
		setup = append(setup, r.setup.Seconds())
		heap = append(heap, r.heapMB)
		lat := admitLatencies(r.res)
		p50 = append(p50, percentile(lat, 50))
		tail = append(tail, percentile(lat, tailPct))
		admitted := 0
		late += len(r.late)
		var bytes int64
		for _, q := range r.res {
			scheduled++
			attempts += q.attempts
			rejected += q.rejected
			lag = append(lag, float64(q.lag)/1e6)
			if q.report == nil {
				unserved++
				continue
			}
			admitted++
			bytes += q.report.Bytes
			sessions++
			if !q.report.Report.Continuous() {
				stalls++
			}
			segments += w.file.Segments
			downgraded += q.report.Downgraded
			ratios = append(ratios, float64(q.report.MeasuredDelay)/float64(q.report.TheoreticalDelay))
		}
		sec := r.measured.Seconds()
		admits = append(admits, float64(admitted)/sec)
		payload = append(payload, float64(bytes)/sec/1e6)
		costs.add(r.usage, r.measured, int64(admitted))
	}
	m["setup_s"] = median(setup)
	m["admits_per_s"] = median(admits)
	m["payload_MBps"] = median(payload)
	m["peak_heap_mb"] = median(heap)
	m["admit_p50_ms"] = median(p50)
	m["admit_tail_ms"] = median(tail)
	m["admit_tail_pct"] = tailPct
	m["admit_n"] = float64(w.pop.n)
	m["reject_rate"] = ratio(float64(rejected), float64(attempts))
	m["startup_ratio"] = mean(ratios)
	m["downgrade_share"] = ratio(float64(downgraded), float64(segments))
	m["stall_share"] = ratio(float64(stalls), float64(sessions))
	m["late_share"] = ratio(float64(late), float64(sessions))
	m["unserved_share"] = ratio(float64(unserved), float64(scheduled))
	m["bench.arrival_lag_ms"] = mean(lag)
	costs.fill(m)
}

// layerMetrics fills the per-layer metrics from traced rounds (counts are
// per round) and returns the codec replay table.
func layerMetrics(m map[string]float64, w *overlayWorkload, rounds []*overlayRound) []codecCost {
	n := float64(len(rounds))
	per := func(v int64) float64 { return float64(v) / n }
	var dialUs, lookupMs, reqWall, reqVirt, backoff, goodput, delayMs []float64
	var admitted, requests, rejected, transient, segments, downgraded int
	var bytesVerified, frames, frameBytes, probes int64
	var timers, stops, sleeps, dials, dialFail, writes, writeNs, writeBytes, readBytes, peak, drops int64
	var lookups, lookupFail, hops, misses, replica, probesServed, sessionsServed, downgrades int64
	var dirLookups, dirRegisters, chordFrames, chordBytes int64
	var virt, wall, memberRounds float64
	famCount := make(map[string]int64)
	kindCount := make(map[transport.Kind]int64)
	samples := make(map[transport.Kind][][]byte)
	for _, r := range rounds {
		l, ev := r.probe.lay, &r.probe.ev
		timers += l.timers.Load()
		stops += l.timerStops.Load()
		sleeps += l.sleeps.Load()
		dials += l.dials.Load()
		dialFail += l.dialFail.Load()
		writes += l.writes.Load()
		writeNs += l.writeNs.Load()
		writeBytes += l.writeBytes.Load()
		readBytes += l.readBytes.Load()
		peak = max(peak, l.connsPeak.Load())
		drops += r.queueDrops
		dialUs = append(dialUs, l.dialUs...)
		lookupMs = append(lookupMs, l.lookupMs...)
		lookups += ev.lookups.Load() + l.dirLookups.Load()
		lookupFail += ev.lookupFail.Load()
		hops += ev.hops.Load()
		misses += ev.misses.Load()
		replica += ev.replicaAnswered.Load()
		probesServed += ev.probesServed.Load()
		sessionsServed += ev.sessions.Load()
		downgrades += ev.downgrades.Load()
		dirLookups += r.dirLookups
		dirRegisters += r.dirRegisters
		for k, c := range l.frames {
			frames += c
			famCount[family(k)] += c
			kindCount[k] += c
			frameBytes += l.frameBytes[k]
			if family(k) == "chord" {
				chordFrames += c
				chordBytes += l.frameBytes[k]
			}
			if k == transport.KindProbe {
				probes += c
			}
			if len(samples[k]) < sampleFrames {
				samples[k] = append(samples[k], l.samples[k]...)
			}
		}
		virt += r.virtual.Seconds()
		wall += r.measured.Seconds()
		if w.chord && w.stabilize > 0 {
			memberRounds += float64(r.members) * float64(r.clockElapsed) / float64(w.stabilize)
		}
		for _, q := range r.res {
			requests += q.attempts
			rejected += q.rejected
			transient += q.transient
			reqWall = append(reqWall, q.reqWallMs...)
			reqVirt = append(reqVirt, q.reqVirtMs...)
			backoff = append(backoff, q.backoffMs...)
			if q.report == nil {
				continue
			}
			admitted++
			segments += w.file.Segments
			downgraded += q.report.Downgraded
			bytesVerified += q.report.Bytes
			if q.report.Duration > 0 {
				goodput = append(goodput, float64(q.report.Bytes)/q.report.Duration.Seconds()/1e3)
			}
			delayMs = append(delayMs, float64(q.report.MeasuredDelay)/1e6)
		}
	}
	adm := float64(admitted)
	m["clock.timers"] = per(timers)
	m["clock.timer_stops"] = per(stops)
	m["clock.sleeps"] = per(sleeps)
	m["clock.timers_per_admit"] = ratio(float64(timers), adm)
	m["clock.virt_per_wall"] = ratio(virt, wall)
	m["netx.dials"] = per(dials)
	m["netx.dials_per_admit"] = ratio(float64(dials), adm)
	m["netx.dial_fail"] = per(dialFail)
	m["netx.dial_us_p50"] = percentile(dialUs, 50)
	m["netx.writes"] = per(writes)
	m["netx.write_bytes"] = per(writeBytes)
	m["netx.read_bytes"] = per(readBytes)
	m["netx.write_ns_mean"] = ratio(float64(writeNs), float64(writes))
	m["netx.conns_peak"] = float64(peak)
	m["netx.queue_drops"] = per(drops)
	m["transport.frames"] = per(frames)
	m["transport.frame_bytes_mean"] = ratio(float64(frameBytes), float64(frames))
	for _, f := range frameFamilies {
		m["transport.frames."+f] = per(famCount[f])
	}
	for _, k := range codecKinds {
		m["transport.frames."+string(k)] = per(kindCount[k])
	}
	codec := replay(samples)
	for _, c := range codec {
		m["transport.decode_ns."+string(c.Kind)] = c.DecodeNs
		m["transport.encode_ns."+string(c.Kind)] = c.EncodeNs
	}
	m["discovery.lookups"] = per(lookups)
	m["discovery.lookup_ms_p50"] = percentile(lookupMs, 50)
	m["discovery.lookup_ms_p99"] = percentile(lookupMs, 99)
	m["discovery.lookup_fail"] = per(lookupFail)
	m["discovery.misses"] = per(misses)
	m["discovery.hops_mean"] = ratio(float64(hops), float64(lookups))
	m["discovery.replica_answered"] = per(replica)
	m["directory.server_lookups"] = per(dirLookups)
	m["directory.server_registers"] = per(dirRegisters)
	m["chord.msgs_per_member_round"] = ratio(float64(chordFrames), memberRounds)
	m["chord.bytes_per_member_round"] = ratio(float64(chordBytes), memberRounds)
	m["node.requests"] = per(int64(requests))
	m["node.rejected"] = per(int64(rejected))
	m["node.request_fail"] = per(int64(transient))
	m["node.request_wall_ms_p50"] = percentile(reqWall, 50)
	m["node.request_virt_ms_p50"] = percentile(reqVirt, 50)
	m["node.backoff_virt_ms_mean"] = mean(backoff)
	m["node.probes_per_admit"] = ratio(float64(probes), adm)
	m["dac.probes_served"] = per(probesServed)
	m["dac.sessions_served"] = per(sessionsServed)
	m["dac.grant_ratio"] = ratio(float64(sessionsServed), float64(probesServed))
	m["media.segments"] = per(int64(segments))
	m["media.segments_downgraded"] = per(int64(downgraded))
	m["media.bytes_verified"] = per(bytesVerified)
	m["bwe.downgrade_events"] = per(downgrades)
	m["node.session_goodput_kBps_mean"] = mean(goodput)
	m["node.measured_delay_ms_mean"] = mean(delayMs)
	return codec
}
