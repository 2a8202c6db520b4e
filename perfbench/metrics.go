package main

import (
	"strings"

	"p2pstream/internal/transport"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what an untraced run reports in its result line: metrics a
// user of the system sees, measured on every workload and never zero.
// BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"admits_per_s", "1/s"},
	{"peak_heap_mb", "MB"},
	{"reject_rate", "ratio"},
}

// viewerMetrics is the full viewer-facing table every run prints, the
// gated end-to-end metrics included. Those that do not apply to every
// workload, or may be zero, are carried in the traced result line as
// per-layer metrics instead.
var viewerMetrics = []metricDef{
	{"setup_s", "s"},
	{"admits_per_s", "1/s"},
	{"payload_MBps", "MB/s"},
	{"peak_rss_mb", "MB"},
	{"peak_heap_mb", "MB"},
	{"admit_p50_ms", "ms"},
	{"admit_tail_ms", "ms"},
	{"reject_rate", "ratio"},
	{"startup_ratio", "ratio"},
	{"downgrade_share", "ratio"},
	{"stall_share", "ratio"},
	{"late_share", "ratio"},
	{"unserved_share", "ratio"},
}

// codecKinds are the message kinds whose frame count and replayed codec
// cost are carried in the result line; the trace file has every kind seen.
var codecKinds = []transport.Kind{
	transport.KindLookup, transport.KindCandidates, transport.KindRegister,
	transport.KindProbe, transport.KindProbeReply,
	transport.KindStart, transport.KindSegment, transport.KindAck,
	transport.KindChordFingerQuery, transport.KindChordFingerOK,
	transport.KindChordNotify, transport.KindChordNotifyOK,
	transport.KindChordLookup, transport.KindChordReplicate,
}

// frameFamilies groups message kinds by the layer that sends them.
var frameFamilies = []string{"discovery", "admission", "data", "chord", "other"}

// family returns the frame family of a message kind.
func family(k transport.Kind) string {
	switch k {
	case transport.KindRegister, transport.KindRegisterOK, transport.KindRegisterBatch, transport.KindRegisterBatchOK,
		transport.KindLookup, transport.KindCandidates, transport.KindUnregister, transport.KindUnregisterOK,
		transport.KindDirEpochWatch, transport.KindDirEpoch:
		return "discovery"
	case transport.KindProbe, transport.KindProbeReply, transport.KindReminder, transport.KindReminderOK,
		transport.KindStart, transport.KindStartReply:
		return "admission"
	case transport.KindSegment, transport.KindAck, transport.KindSessionDone:
		return "data"
	}
	if strings.HasPrefix(string(k), "chord-") {
		return "chord"
	}
	return "other"
}

// spanNames are the traced span kinds, parents first.
var spanNames = []string{"requester", "node.request", "backoff", "discovery.lookup", "netx.dial", "sim.simulate"}

// perLayer is what a traced run reports in its result line. BENCHMARK.json
// lists the same names and units.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"payload_MBps", "MB/s"},
		{"peak_rss_mb", "MB"},
		{"admit_p50_ms", "ms"},
		{"admit_tail_ms", "ms"},
		{"admit_tail_pct", "pct"},
		{"admit_n", "count"},
		{"startup_ratio", "ratio"},
		{"downgrade_share", "ratio"},
		{"stall_share", "ratio"},
		{"late_share", "ratio"},
		{"unserved_share", "ratio"},

		{"clock.timers", "count"},
		{"clock.timer_stops", "count"},
		{"clock.sleeps", "count"},
		{"clock.timers_per_admit", "ratio"},
		{"clock.virt_per_wall", "s/s"},

		{"netx.dials", "count"},
		{"netx.dials_per_admit", "ratio"},
		{"netx.dial_fail", "count"},
		{"netx.dial_us_p50", "us"},
		{"netx.writes", "count"},
		{"netx.write_bytes", "bytes"},
		{"netx.read_bytes", "bytes"},
		{"netx.write_ns_mean", "ns"},
		{"netx.conns_peak", "count"},
		{"netx.queue_drops", "count"},

		{"transport.frames", "count"},
		{"transport.frame_bytes_mean", "bytes"},
	}
	for _, f := range frameFamilies {
		defs = append(defs, metricDef{"transport.frames." + f, "count"})
	}
	for _, k := range codecKinds {
		defs = append(defs,
			metricDef{"transport.frames." + string(k), "count"},
			metricDef{"transport.decode_ns." + string(k), "ns"},
			metricDef{"transport.encode_ns." + string(k), "ns"})
	}
	defs = append(defs, []metricDef{
		{"discovery.lookups", "count"},
		{"discovery.lookup_ms_p50", "ms"},
		{"discovery.lookup_ms_p99", "ms"},
		{"discovery.lookup_fail", "count"},
		{"discovery.misses", "count"},
		{"discovery.hops_mean", "count"},
		{"discovery.replica_answered", "count"},
		{"directory.server_lookups", "count"},
		{"directory.server_registers", "count"},
		{"chord.msgs_per_member_round", "count"},
		{"chord.bytes_per_member_round", "bytes"},

		{"node.requests", "count"},
		{"node.rejected", "count"},
		{"node.request_fail", "count"},
		{"node.request_wall_ms_p50", "ms"},
		{"node.request_virt_ms_p50", "ms"},
		{"node.backoff_virt_ms_mean", "ms"},
		{"node.probes_per_admit", "ratio"},
		{"dac.probes_served", "count"},
		{"dac.sessions_served", "count"},
		{"dac.grant_ratio", "ratio"},

		{"media.segments", "count"},
		{"media.segments_downgraded", "count"},
		{"media.bytes_verified", "bytes"},
		{"bwe.downgrade_events", "count"},
		{"node.session_goodput_kBps_mean", "kB/s"},
		{"node.measured_delay_ms_mean", "ms"},

		{"sim.events", "count"},
		{"sim.events_per_s", "1/s"},
		{"sim.probes", "count"},
		{"sim.requests", "count"},
		{"sim.reminders", "count"},
		{"sim.allocs_per_event", "ratio"},

		{"runtime.cpu_s", "s"},
		{"runtime.cpu_util", "ratio"},
		{"runtime.alloc_mb", "MB"},
		{"runtime.allocs_per_admit", "ratio"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_pause_ms", "ms"},

		{"bench.arrival_lag_ms", "ms"},
		{"bench.trace_overhead", "ratio"},
		{"bench.rounds", "count"},
		{"trace.spans", "count"},
	}...)
	for _, s := range spanNames {
		defs = append(defs, metricDef{"trace.self_ms." + s, "ms"})
	}
	return defs
}
