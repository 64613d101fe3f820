package main

// metricDef names one reported metric and its unit. The lists below are the
// benchmark's catalogue; BENCHMARK.json names the same metrics and the
// self-test checks that the two agree.
type metricDef struct{ name, unit string }

// endToEnd are reported by untraced runs, on every workload. What an
// operation is depends on the workload: one Project call (paper-serial),
// one pass of MultiProject calls, one per dataset file (multi-file), or
// one Batch job (corpus-indexed).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_mibps", "MiB/s"},
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p95", "ms"},
	{"mem_peak_mib", "MiB"},
	{"ok_ratio", "ratio"},
}

// layers are the repository's modules as the ledger names them.
var layers = []string{"compile", "mmapio", "core", "pipeline", "write", "index", "corpus", "smpserve"}

// perLayer are reported by traced runs, on every workload.
func perLayer() []metricDef {
	defs := []metricDef{
		{"compile.ms_p50", "ms"},
		{"compile.plan_kib", "KiB"},
		{"mmapio.map_us_p50", "us"},
		{"mmapio.zero_copy_ratio", "ratio"},
		{"core.scan_mibps", "MiB/s"},
		{"core.memchr_mibps", "MiB/s"},
		{"core.scan_of_memchr", "ratio"},
		{"core.candidates_per_mib", "count/MiB"},
		{"core.char_comparisons_per_byte", "ratio"},
	}
	for _, id := range paperQueryIDs() {
		defs = append(defs, metricDef{"query." + id + ".mibps", "MiB/s"})
	}
	defs = append(defs,
		metricDef{"pipeline.replay_mibps", "MiB/s"},
		metricDef{"pipeline.w_speedup", "ratio"},
		metricDef{"pipeline.max_buffer_kib", "KiB"},
		metricDef{"write.output_ratio", "ratio"},
		metricDef{"write.ms_share", "ratio"},
		metricDef{"write.memmove_mibps", "MiB/s"},
		metricDef{"index.build_mibps", "MiB/s"},
		metricDef{"index.read_decode_us_p50", "us"},
		metricDef{"index.write_us_p50", "us"},
		metricDef{"index.bind_mibps", "MiB/s"},
		metricDef{"index.hit_ratio", "ratio"},
		metricDef{"index.skip_ratio", "ratio"},
		metricDef{"index.summary_skip_ratio", "ratio"},
		metricDef{"index.sidecar_kib_per_mib", "KiB/MiB"},
		metricDef{"ledger.worker_busy_ratio", "ratio"},
		metricDef{"ledger.op_overhead_us", "us"},
		metricDef{"ledger.residual_share", "ratio"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
	for _, ep := range opNames {
		defs = append(defs,
			metricDef{"serve." + ep + ".ms_p50", "ms"},
			metricDef{"serve." + ep + ".ms_p99", "ms"})
	}
	defs = append(defs,
		metricDef{"serve.high_ms_p50", "ms"},
		metricDef{"serve.high_ms_p99", "ms"},
		metricDef{"serve.gen_lag_ms_p99", "ms"},
		metricDef{"serve.coalesce_batch_mean", "count"},
		metricDef{"serve.coalesced_ratio", "ratio"},
		metricDef{"serve.plan_cache_hit_ratio", "ratio"},
		metricDef{"serve.doc_cache_hit_ratio", "ratio"},
		metricDef{"serve.doc_cache_evictions", "count"},
		metricDef{"serve.index_hit_ratio", "ratio"},
		metricDef{"serve.zero_copy_ratio", "ratio"},
		metricDef{"serve.shed_ratio", "ratio"},
	)
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".self_share", "ratio"})
	}
	return defs
}
