package main

import (
	"fmt"
	"time"
)

// simTrace is the trace file of a traced paper-sim run.
type simTrace struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Metrics  map[string]float64 `json:"metrics"`
	Spans    []span             `json:"spans"`
}

// runPaperSim runs the paper-sim rounds and aggregates them. The
// simulator has no clock, network or wire to wrap, so a traced round
// differs from an untraced one only by its spans: one per Simulate call.
func runPaperSim(seed int64, seconds int, traced bool) (*result, error) {
	var plain, probed []*simRound
	var spans []span
	err := loopRounds(seconds, minRounds(traced), func(i int) error {
		tracedRound := traced && i%2 == 1
		r, err := runSim(seed)
		if err != nil {
			return err
		}
		if tracedRound {
			// Simulated hours are not the program's time base: the spans
			// carry wall time only.
			tr := newTracer(time.Time{}, r.calls[0][0])
			for j, c := range r.calls {
				tr.add("sim.simulate", simPolicies[j], 0, time.Time{}, c[0], time.Time{}, c[1])
			}
			spans = append(spans, tr.spans...)
			probed = append(probed, r)
			return nil
		}
		plain = append(plain, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	all := append(append([]*simRound(nil), plain...), probed...)
	res := &result{metrics: make(map[string]float64)}
	for i, r := range all {
		res.attempted += len(r.res)
		if len(r.failures) > 0 {
			res.failed += len(r.res)
			res.failures = append(res.failures, r.failures...)
		}
		if i > 0 && !sameOutputs(all[0], r) {
			res.failures = append(res.failures, fmt.Sprintf("round %d differs from round 0 for the same seed", i))
		}
	}
	if _, ok := simGolden[seed]; ok {
		res.notes = append(res.notes, "per-class admissions checked against the golden values for the seed")
	} else {
		res.notes = append(res.notes, fmt.Sprintf("golden per-class admissions: none recorded for seed %d; rounds checked against each other", seed))
	}
	m := res.metrics
	m["bench.rounds"] = float64(len(all))
	var setup, admits, heap, events, eventsPerS, allocsPerEvent []float64
	var costs roundCosts
	var attempts, rejected int64
	for _, r := range plain {
		var admitted, ev int64
		for _, s := range r.res {
			for _, a := range s.Admitted {
				admitted += a
			}
			ev += int64(s.Events)
			attempts += s.TotalRequests
		}
		rejected += totalRejections(r)
		sec := r.measured.Seconds()
		setup = append(setup, r.setup)
		heap = append(heap, r.heapMB)
		admits = append(admits, float64(admitted)/sec)
		events = append(events, float64(ev))
		eventsPerS = append(eventsPerS, float64(ev)/sec)
		costs.add(r.usage, r.measured, admitted)
		allocsPerEvent = append(allocsPerEvent, ratio(float64(r.usage.mallocs), float64(ev)))
	}
	m["setup_s"] = median(setup)
	m["admits_per_s"] = median(admits)
	m["peak_heap_mb"] = median(heap)
	m["reject_rate"] = ratio(float64(rejected), float64(attempts))
	m["unserved_share"] = unservedShare(all[0])
	costs.fill(m)
	r0 := all[0]
	m["sim.events"] = median(events)
	m["sim.events_per_s"] = median(eventsPerS)
	m["sim.allocs_per_event"] = median(allocsPerEvent)
	for _, s := range r0.res {
		m["sim.probes"] += float64(s.TotalProbes)
		m["sim.requests"] += float64(s.TotalRequests)
		m["sim.reminders"] += float64(s.TotalReminders)
	}
	res.notes = append(res.notes, fmt.Sprintf("final capacity DAC %.0f vs NDAC %.0f; admitted per class DAC %v NDAC %v",
		finalCapacity(r0.res[0]), finalCapacity(r0.res[1]), r0.res[0].Admitted, r0.res[1].Admitted))
	if !traced {
		return res, nil
	}
	var plainWall, probedWall []float64
	for _, r := range plain {
		plainWall = append(plainWall, r.measured.Seconds())
	}
	for _, r := range probed {
		probedWall = append(probedWall, r.measured.Seconds())
	}
	m["bench.trace_overhead"] = ratio(median(probedWall), median(plainWall))
	m["trace.spans"] = float64(len(spans))
	_, wall := selfTime(spans)
	m["trace.self_ms.sim.simulate"] = float64(wall["sim.simulate"]) / 1e6 / float64(len(probed))
	res.trace = simTrace{Workload: "paper-sim", Seed: seed, Metrics: m, Spans: spans}
	return res, nil
}

// totalRejections is a round's rejected requests: every request that did
// not end in an admission.
func totalRejections(r *simRound) int64 {
	var n int64
	for _, s := range r.res {
		n += s.TotalRequests
		for _, a := range s.Admitted {
			n -= a
		}
	}
	return n
}

// unservedShare is the share of arrived requesters never admitted by the
// horizon, over both policies.
func unservedShare(r *simRound) float64 {
	var arrived, admitted int64
	for _, s := range r.res {
		for c := range s.Arrived {
			arrived += s.Arrived[c]
			admitted += s.Admitted[c]
		}
	}
	return ratio(float64(arrived-admitted), float64(arrived))
}
