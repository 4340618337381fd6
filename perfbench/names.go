package main

// metricSpec names one reported metric and its unit. The two lists
// below are the contract with BENCHMARK.json (a test keeps them equal):
// an untraced run prints exactly the end-to-end metrics, a traced run
// exactly the per-layer ones.
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"analysis_p50_ms", "ms"},
	{"hit_p50_ms", "ms"},
	{"bytes_per_hit", "bytes"},
	{"heap_live_mb", "MB"},
	{"ok_share", "ratio"},
}

// perLayer opens with three user-facing figures that are reported
// without a bound: on a shared two-vCPU machine the hit tail, hit
// throughput (which stalls drag down) and the few-millisecond
// linkage-only variants swing further from run to run than the largest
// bound allows.
var perLayer = []metricSpec{
	{"hit_p99_ms", "ms"},
	{"hit_rps", "1/s"},
	{"variant_p50_ms", "ms"},
	{"corpus.generate_ms", "ms"},
	{"mine.ms", "ms"},
	{"mine.patterns", "count"},
	{"matrices.ms", "ms"},
	{"auth.ms", "ms"},
	{"pdist.ms", "ms"},
	{"geodist.ms", "ms"},
	{"tree.ms", "ms"},
	{"elbow.ms", "ms"},
	{"validate.ms", "ms"},
	{"pipeline.stage_sum_ms", "ms"},
	{"pipeline.parallelism", "ratio"},
	{"artifact.encode_ms", "ms"},
	{"artifact.write_ms", "ms"},
	{"artifact.write_bytes", "bytes"},
	{"artifact.frames_equal_by_value_only", "count"},
	{"artifact.read_ms", "ms"},
	{"artifact.verify_ms", "ms"},
	{"artifact.decode_ms", "ms"},
	{"artifact.decode_ms.corpus", "ms"},
	{"artifact.memory_hits", "count"},
	{"artifact.disk_hits", "count"},
	{"artifact.peer_hits", "count"},
	{"artifact.computed", "count"},
	{"artifact.inflight_joins", "count"},
	{"artifact.evictions", "count"},
	{"artifact.reuse_ratio", "ratio"},
	{"cluster.serve_ms", "ms"},
	{"cluster.wire_bytes", "bytes"},
	{"cluster.fetch_attempts", "count"},
	{"cluster.fetch_hits", "count"},
	{"cluster.fetch_errors", "count"},
	{"cluster.fetch_rejects", "count"},
	{"server.handler_p50_ms", "ms"},
	{"server.handler_p99_ms", "ms"},
	{"server.transport_p50_ms", "ms"},
	{"server.run_ms", "ms"},
	{"server.analysis_hits", "count"},
	{"server.analysis_misses", "count"},
	{"server.analysis_evictions", "count"},
	{"server.analysis_joins", "count"},
	{"server.analysis_hit_ratio", "ratio"},
	{"server.rejected_429", "count"},
	{"render.hits", "count"},
	{"render.misses", "count"},
	{"render.hit_ratio", "ratio"},
	{"render.evictions", "count"},
	{"render.bytes", "bytes"},
	{"render.gzip_variants", "count"},
	{"render.not_modified", "count"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.gc_pause_max_ms", "ms"},
	{"trace.untraced_p50_ms", "ms"},
	{"trace.traced_p50_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"trace.replay_share", "ratio"},
	{"trace.root_self_ms", "ms"},
}

// selectMetrics returns the metrics a run prints: every spec in the
// list for its mode, in the spec's unit. A per-layer metric the
// workload does not exercise reads 0; a missing end-to-end metric is a
// bug and is returned in missing. Everything else the workload
// measured moves to the record's notes.
func selectMetrics(rep *report, traced bool) (missing []string) {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		m, ok := rep.metrics[s.name]
		if !ok && !traced {
			missing = append(missing, s.name)
		}
		out[s.name] = metric{Value: m.Value, Unit: s.unit}
		delete(rep.metrics, s.name)
	}
	if len(rep.metrics) > 0 {
		rep.notes["other_metrics"] = rep.metrics
	}
	rep.metrics = out
	return missing
}
