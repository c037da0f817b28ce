package main

// The metric catalogue. BENCHMARK.json at the repository root lists the
// same names and units (TestSpecsMatchBenchmarkJSON keeps them in step);
// registry.json maps each to the workload where it should move.

// buildSeed seeds the builders' own randomness (landmark and cluster
// sampling), like a deployment's configured -seed. The workload seed picks
// the inputs — graphs, query and update streams — so runs on different
// seeds load the same program on different inputs; seeding the builders by
// it too would swing artifact size by ±10% through landmark sampling alone.
const buildSeed = 1

// spec names one reported metric.
type spec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// e2eSpecs are the end-to-end metrics every workload reports with
// --trace 0. Each means the same kind of thing on every workload. Times are
// CPU time (see cpu.go): on a shared two-core machine wall-clock latency,
// set-up and pass times swing with the neighbours' load by more than any
// usable bound, so they are printed beside these (read_p50_us,
// read_p99_us, update_p50_ms, build_s, setup (wall), ...) but not gated.
//
//	setup_s      CPU time from start to the first verified reply (to the
//	             first timed pass on build): this process's plus the
//	             spannerd it started; median of the run's set-ups
//	op_cpu_us    CPU time per unit of work: spannerd's per read in the
//	             read-wire cost phase (300 q/s), the replica's per read
//	             outside update windows (churn-router), the benchmark
//	             process's per pipeline pass (build)
//	gen_cpu_ms   CPU time to put a new generation into service: spannerd's
//	             cold start on the artifact up to the first verified reply
//	             (read-wire), the replica's per committed delta update
//	             (churn-router), artifact build + encode + decode (build)
//	peak_mem_mb  peak memory of the process doing the work: spannerd's
//	             VmHWM, or on build the peak live heap at the pipeline's
//	             stage ends
//	artifact_mb  encoded size of the artifact the workload serves or builds
var e2eSpecs = []spec{
	{"setup_s", "s"},
	{"op_cpu_us", "us"},
	{"gen_cpu_ms", "ms"},
	{"peak_mem_mb", "MB"},
	{"artifact_mb", "MB"},
}

// layerSpecs are the per-layer metrics of a traced run. A workload that
// does not exercise a layer reports 0 for it.
var layerSpecs = []spec{
	// client
	{"client.wire.rtt_p50_us", "us"},
	{"client.wire.rtt_p99_us", "us"},
	{"client.allocs_per_query", "allocs/query"},
	// wire
	{"wire.server_latency_p50_us", "us"},
	{"wire.frames_per_query", "frames/query"},
	{"wire.batch_size_mean", "queries"},
	{"wire.bad_frames", "count"},
	{"wire.codec_ns", "ns"},
	// serve
	{"serve.phase_admission_ns", "ns"},
	{"serve.phase_queue_ns", "ns"},
	{"serve.phase_shard_ns", "ns"},
	{"serve.phase_cache_ns", "ns"},
	{"serve.phase_oracle_ns", "ns"},
	{"serve.cache_hit_ratio_dist", "ratio"},
	{"serve.cache_hit_ratio_path", "ratio"},
	{"serve.cache_hit_ratio_route", "ratio"},
	{"serve.rejects", "count"},
	{"serve.degraded_ratio", "ratio"},
	{"serve.engine_query_us_p50", "us"},
	{"serve.update_apply_ms", "ms"},
	// oracle, routing
	{"oracle.query_ns", "ns"},
	{"oracle.new_ms", "ms"},
	{"oracle.dist_ms", "ms"},
	{"oracle.rounds", "count"},
	{"routing.route_us", "us"},
	{"routing.new_ms", "ms"},
	// artifact
	{"artifact.build_ms", "ms"},
	{"artifact.encode_mb_s", "MB/s"},
	{"artifact.decode_mb_s", "MB/s"},
	{"artifact.diff_ms", "ms"},
	{"artifact.delta_apply_ms", "ms"},
	{"artifact.checksum_ms", "ms"},
	{"artifact.delta_bytes", "bytes"},
	// dynamic
	{"dynamic.apply_batch_ms", "ms"},
	{"dynamic.admitted", "count"},
	{"dynamic.filtered", "count"},
	{"dynamic.repaired", "count"},
	{"dynamic.rebuilds", "count"},
	// clusterserve, spannerd HTTP
	{"clusterserve.query_us_p50", "us"},
	{"clusterserve.hop_us", "us"},
	{"clusterserve.attempts_per_query", "attempts/query"},
	{"clusterserve.update_ms", "ms"},
	{"spannerd.json_latency_p50_us", "us"},
	// builders
	{"core.dist_ms", "ms"},
	{"core.rounds", "count"},
	{"core.edges", "count"},
	{"core.size_ratio", "ratio"},
	{"fibonacci.dist_ms", "ms"},
	{"fibonacci.rounds", "count"},
	{"fibonacci.edges", "count"},
	{"fibonacci.size_ratio", "ratio"},
	{"baseline.dist_ms", "ms"},
	{"baseline.rounds", "count"},
	{"baseline.edges", "count"},
	{"baseline.size_ratio", "ratio"},
	// distsim
	{"distsim.messages", "count"},
	{"distsim.words", "count"},
	{"distsim.max_msg_words", "words"},
	{"distsim.rounds_per_s", "rounds/s"},
	{"distsim.speedup", "x"},
	// graph, verify, obs, generator
	{"graph.gen_ms", "ms"},
	{"verify.sampled", "count"},
	{"verify.violations", "count"},
	{"obs.trace_overhead_pct", "%"},
	{"loadgen.lag_p99_us", "us"},
	// the read-wire per-query budget (p50s)
	{"budget.client_rtt_us", "us"},
	{"budget.server_transport_us", "us"},
	{"budget.engine_us", "us"},
	{"budget.oracle_us", "us"},
	{"budget.client_codec_us", "us"},
	{"budget.unattributed_us", "us"},
}
