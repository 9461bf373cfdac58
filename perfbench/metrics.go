package main

// metricSpec names one reported metric; BENCHMARK.json lists the same
// names, units and directions (main_test.go checks they agree).
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics of a --trace 0 invocation.
var endToEnd = []metricSpec{
	{"host_us_per_sim_tx", "us", "lower"},
	{"host_us_per_state", "us", "lower"},
	{"setup_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"fail_frac", "frac", "lower"},
}

// attrLayers are the layers the rig attribution covers.
var attrLayers = []string{
	"workload", "sim", "cpu", "l1", "ics", "l2", "memctl", "pe",
	"directory", "noc", "link", "kernel", "stats", "fault",
}

// profPackages are the packages the CPU profile is aggregated into:
// every piranha/internal package a workload runs, the Go runtime, and
// the rest.
var profPackages = []string{
	"cache", "core", "cpu", "directory", "fault", "ics", "kernel", "l1",
	"l2", "linemap", "link", "mcheck", "memctl", "noc", "pe", "protocol",
	"ras", "sim", "stats", "trace", "workload", "runtime", "other",
}

// perLayer are the metrics of a --trace 1 invocation. Host costs (ns,
// ms, bytes) come from the rigs; *_per_tx, *_frac and the adm, lat, slo,
// fault and recovery rows are simulated, from the traced run.
var perLayer = func() []metricSpec {
	ms := []metricSpec{
		{"workload.next_ns", "ns", "lower"},
		{"workload.next_bytes", "B", "lower"},
		{"workload.arrival_ns", "ns", "lower"},
		{"sim.event_ns", "ns", "lower"},
		{"sim.pool_reserve_ns", "ns", "lower"},
		{"sim.pool_reserve_bytes", "B", "lower"},
		{"cpu.exec_ns", "ns", "lower"},
		{"cpu.instr_per_tx", "count", "lower"},
		{"cpu.busy_frac", "frac", "higher"},
		{"cpu.l2hit_stall_frac", "frac", "lower"},
		{"cpu.l2miss_stall_frac", "frac", "lower"},
		{"l1.probe_ns", "ns", "lower"},
		{"l1.refs_per_tx", "count", "lower"},
		{"l1.miss_per_tx", "count", "lower"},
		{"ics.transfer_ns", "ns", "lower"},
		{"ics.xfers_per_tx", "count", "lower"},
		{"l2.access_ns", "ns", "lower"},
		{"l2.self_ns", "ns", "lower"},
		{"l2.lookup_ns", "ns", "lower"},
		{"l2.check_ms", "ms", "lower"},
		{"l2.hit_per_tx", "count", "higher"},
		{"l2.fwd_per_tx", "count", "higher"},
		{"l2.miss_local_per_tx", "count", "lower"},
		{"l2.miss_remote_per_tx", "count", "lower"},
		{"l2.fwd_frac", "frac", "higher"},
		{"mem.read_ns", "ns", "lower"},
		{"mem.reads_per_tx", "count", "lower"},
		{"mem.writes_per_tx", "count", "lower"},
		{"mem.page_hit_rate", "frac", "higher"},
		{"pe.fetch_ns", "ns", "lower"},
		{"pe.dirdispatch_ns", "ns", "lower"},
		{"directory.codec_ns", "ns", "lower"},
		{"pe.home_tx_per_tx", "count", "lower"},
		{"pe.remote_tx_per_tx", "count", "lower"},
		{"noc.send_ns", "ns", "lower"},
		{"noc.packet_ns", "ns", "lower"},
		{"noc.calibrate_ms", "ms", "lower"},
		{"link.transmit_ns", "ns", "lower"},
		{"noc.hops_per_tx", "count", "lower"},
		{"kernel.dispatch_ns", "ns", "lower"},
		{"kernel.ctx_switch_per_tx", "count", "lower"},
		{"kernel.idle_frac", "frac", "lower"},
		{"adm.mean_depth", "count", "lower"},
		{"adm.max_depth", "count", "lower"},
		{"adm.shed_frac", "frac", "lower"},
		{"adm.retried_per_arrival", "count", "lower"},
		{"stats.quantile_ns", "ns", "lower"},
		{"stats.slo_ns", "ns", "lower"},
		{"stats.series_ns", "ns", "lower"},
		{"lat.p50_us", "us", "lower"},
		{"lat.p99_us", "us", "lower"},
		{"slo.violation_rate", "frac", "lower"},
		{"pe.failnode_ms", "ms", "lower"},
		{"fault.injected", "count", "higher"},
		{"fault.retransmits", "count", "lower"},
		{"fault.msgs_lost", "count", "lower"},
		{"fault.recovered", "count", "higher"},
		{"recovery.mttr_us", "us", "lower"},
		{"recovery.homes_adopted", "count", "higher"},
		{"recovery.migrated", "count", "higher"},
		{"mcheck.states", "count", "lower"},
		{"mcheck.transitions", "count", "lower"},
		{"mcheck.depth", "count", "lower"},
		{"mcheck.ns_per_transition", "ns", "lower"},
		{"trace.overhead_frac", "frac", "lower"},
		{"trace.events_per_tx", "count", "lower"},
	}
	for _, l := range attrLayers {
		ms = append(ms, metricSpec{"attr." + l + "_us_per_tx", "us", "lower"})
	}
	ms = append(ms, metricSpec{"attr.sum_frac", "frac", "higher"})
	for _, p := range profPackages {
		ms = append(ms, metricSpec{"prof." + p + "_share", "frac", "lower"})
	}
	return ms
}()
