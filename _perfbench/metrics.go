package main

// metricDef names one reported metric. Clock says whether the value is
// host time (what the simulator costs to run), simulated (what the
// modelled GPU would do) or a host-side count.
type metricDef struct {
	name  string
	unit  string
	clock string // "host", "simulated" or "count"
	moves string // per-layer only: the end-to-end metric and workload it should move
}

// endToEnd lists the metrics of an untraced run, on every workload.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", clock: "host"},
	{name: "wall_s", unit: "s", clock: "host"},
	{name: "sim_minsts_per_s", unit: "Minst/s", clock: "host"},
	{name: "jobs_per_s", unit: "1/s", clock: "host"},
	{name: "job_p50_ms", unit: "ms", clock: "host"},
	{name: "job_p90_ms", unit: "ms", clock: "host"},
	{name: "alloc_mb", unit: "MB", clock: "host"},
	{name: "retained_mb", unit: "MB", clock: "host"},
	{name: "ok_frac", unit: "ratio", clock: "count"},
	{name: "sim_speedup", unit: "x", clock: "simulated"},
	{name: "sim_energy_norm", unit: "ratio", clock: "simulated"},
}

// perLayer lists the metrics of a traced run, on every workload. Each
// layer is measured by timing calls into its public functions from this
// program, on the workload's own inputs.
var perLayer = []metricDef{
	{"compress.bdi.measure_ns", "ns", "host", "table2-sim wall_s, sim_minsts_per_s; no change on serve-warm"},
	{"compress.bdi.decompress_ns", "ns", "host", "table2-sim wall_s, sim_minsts_per_s; no change on serve-warm"},
	{"compress.bdi.ratio", "ratio", "simulated", "none unless the codec changes"},
	{"compress.sc.measure_ns", "ns", "host", "table2-sim wall_s, sim_minsts_per_s; no change on serve-warm"},
	{"compress.sc.decompress_ns", "ns", "host", "table2-sim wall_s, sim_minsts_per_s; no change on serve-warm"},
	{"compress.sc.ratio", "ratio", "simulated", "none unless the codec changes"},
	{"compress.sc.train_ns", "ns", "host", "fig11-batch wall_s; table2-sim wall_s; no change on serve-warm"},
	{"compress.sc.rebuild_us", "us", "host", "fig11-batch wall_s, alloc_mb; no change on serve-warm"},
	{"compress.sc.rebuild_alloc_kb", "KB", "host", "fig11-batch alloc_mb, table2-sim alloc_mb; no change on serve-warm"},
	{"cache.access_ns", "ns", "host", "table2-sim sim_minsts_per_s"},
	{"cache.access_ns_uncompressed", "ns", "host", "table2-sim sim_minsts_per_s (Uncompressed pair)"},
	{"cache.alloc_b_per_access", "B", "host", "table2-sim alloc_mb"},
	{"cache.hit_rate", "ratio", "simulated", "sim_speedup only if the model changes"},
	{"cache.fills", "count", "simulated", "sim_speedup only if the model changes"},
	{"cache.compressed_hits", "count", "simulated", "sim_speedup only if the model changes"},
	{"core.overhead_ns_per_access", "ns", "host", "table2-sim wall_s"},
	{"core.eps", "count", "simulated", "sim_speedup only if the model changes"},
	{"core.switches", "count", "simulated", "sim_speedup only if the model changes"},
	{"sim.run_s", "s", "host", "table2-sim wall_s; fig11-batch jobs_per_s"},
	{"sim.ns_per_cycle", "ns", "host", "table2-sim wall_s, sim_minsts_per_s"},
	{"sim.ns_per_inst", "ns", "host", "table2-sim sim_minsts_per_s"},
	{"sim.alloc_mb_per_run", "MB", "host", "table2-sim alloc_mb; fig11-batch alloc_mb"},
	{"sim.new_us", "us", "host", "fig11-batch jobs_per_s"},
	{"sim.cycles", "count", "simulated", "sim_speedup only if the model changes"},
	{"sim.instructions", "count", "simulated", "sim_minsts_per_s only if the model changes"},
	{"sim.l1_accesses", "count", "simulated", "sim_energy_norm only if the model changes"},
	{"sim.mshr_stall_cycles", "count", "simulated", "sim_speedup only if the model changes"},
	{"mem.l2_accesses", "count", "simulated", "sim_speedup, sim_energy_norm only if the model changes"},
	{"mem.dram_reads", "count", "simulated", "sim_speedup, sim_energy_norm only if the model changes"},
	{"workload.line_ns", "ns", "host", "table2-sim and fig11-batch wall_s"},
	{"tracefile.corpus_load_ms", "ms", "host", "fig11-batch setup_s"},
	{"tracefile.replay_ns_per_record", "ns", "host", "fig11-batch wall_s"},
	{"harness.run_fresh_ms_p50", "ms", "host", "fig11-batch jobs_per_s, job_p50_ms"},
	{"harness.run_fresh_ms_p90", "ms", "host", "fig11-batch job_p90_ms"},
	{"harness.run_hit_us_p50", "us", "host", "fig11-batch jobs_per_s; serve-warm job_p50_ms"},
	{"harness.fresh_sims", "count", "count", "fig11-batch jobs_per_s"},
	{"harness.cache_hits", "count", "count", "fig11-batch jobs_per_s"},
	{"harness.store_hits", "count", "count", "serve-warm jobs_per_s"},
	{"resultstore.open_ms", "ms", "host", "serve-warm setup_s"},
	{"resultstore.load_us_p50", "us", "host", "serve-warm job_p50_ms, jobs_per_s"},
	{"resultstore.load_us_p90", "us", "host", "serve-warm job_p90_ms"},
	{"resultstore.save_us_p50", "us", "host", "serve-warm jobs_per_s"},
	{"resultstore.save_us_p90", "us", "host", "serve-warm job_p90_ms"},
	{"resultstore.entry_bytes", "B", "count", "serve-warm job_p50_ms"},
	{"resultstore.hits", "count", "count", "serve-warm job_p50_ms"},
	{"resultstore.misses", "count", "count", "serve-warm jobs_per_s"},
	{"resultstore.corrupt", "count", "count", "serve-warm ok_frac"},
	{"server.submit_ms_p50", "ms", "host", "serve-warm job_p50_ms"},
	{"server.done_ms_p50", "ms", "host", "serve-warm job_p50_ms"},
	{"server.done_ms_p90", "ms", "host", "serve-warm job_p90_ms"},
	{"server.resident_suites", "count", "count", "serve-warm retained_mb"},
	{"server.fresh", "count", "count", "serve-warm jobs_per_s"},
	{"server.cache_hits", "count", "count", "serve-warm job_p50_ms"},
	{"server.store_hits", "count", "count", "serve-warm job_p50_ms"},
	{"server.sse_early_close", "count", "count", "none; 0 once a terminal job's stream always carries its terminal event"},
	{"cluster.hop_ms_p50", "ms", "host", "serve-warm job_p50_ms"},
	{"cluster.submit_ms_p50", "ms", "host", "serve-warm job_p50_ms"},
	{"trace.overhead_s", "s", "host", "none: traced minus untraced wall time of one round"},
}
