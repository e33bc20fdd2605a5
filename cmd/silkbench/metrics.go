package main

// metricDecl declares one benchmark metric. The end-to-end and per-layer
// tables below are the single source of the names the benchmark prints;
// BENCHMARK.json repeats them for the driver and a self-test keeps the two
// in step.
type metricDecl struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Zero for
	// per-layer metrics, which have no bound.
	Bound float64
}

// endToEnd lists what a caller of the engine or of silkmothd sees. Every
// workload reports every one of them: a query is one Engine.Search call,
// one POST /v1/search request or one Engine.DiscoverAgainst call, whichever
// the workload issues, and an operation is one reference set answered or one
// write acknowledged. Times are host-normalised (hostref.go).
var endToEnd = []metricDecl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "heap_live_mb", Unit: "MiB", Better: "lower", Bound: 0.05},
	{Name: "query_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "query_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
}

// perLayer lists the traced replay's metrics; the prefix before the dot is
// the module that owns the timed call ("api" is the root silkmoth package,
// "bench" the harness itself).
var perLayer = []metricDecl{
	{Name: "dataset.build_s", Unit: "s", Better: "lower"},
	{Name: "dataset.query_build_ns", Unit: "ns", Better: "lower"},
	{Name: "dataset.query_build_allocs", Unit: "count", Better: "lower"},
	{Name: "tokens.dict_size", Unit: "count", Better: "lower"},

	{Name: "index.build_s", Unit: "s", Better: "lower"},
	{Name: "index.postings", Unit: "count", Better: "lower"},
	{Name: "index.bytes_per_posting", Unit: "bytes", Better: "lower"},
	{Name: "index.probe_ns", Unit: "ns", Better: "lower"},
	{Name: "index.cursor_ns_per_posting", Unit: "ns", Better: "lower"},
	{Name: "index.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "index.resident_bytes", Unit: "bytes", Better: "lower"},

	{Name: "signature.generate_ns", Unit: "ns", Better: "lower"},
	{Name: "signature.tokens_per_query", Unit: "count", Better: "lower"},
	{Name: "signature.probe_cost", Unit: "count", Better: "lower"},

	{Name: "filter.collect_ns", Unit: "ns", Better: "lower"},
	{Name: "filter.candidates_per_query", Unit: "count", Better: "lower"},
	{Name: "filter.check_pruned_ratio", Unit: "ratio", Better: "higher"},
	{Name: "filter.nn_ns", Unit: "ns", Better: "lower"},
	{Name: "filter.nn_ns_per_candidate", Unit: "ns", Better: "lower"},
	{Name: "filter.nn_pruned_ratio", Unit: "ratio", Better: "higher"},

	{Name: "sim.eds_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "sim.jaccard_ns_per_call", Unit: "ns", Better: "lower"},

	{Name: "matching.verify_ns_per_pair", Unit: "ns", Better: "lower"},
	{Name: "matching.verified_per_query", Unit: "count", Better: "lower"},
	{Name: "matching.useful_ratio", Unit: "ratio", Better: "higher"},

	{Name: "core.search_ns", Unit: "ns", Better: "lower"},
	{Name: "core.search_allocs", Unit: "count", Better: "lower"},
	{Name: "core.self_ns", Unit: "ns", Better: "lower"},
	{Name: "core.full_scan_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.delete_ns", Unit: "ns", Better: "lower"},
	{Name: "core.compact_s", Unit: "s", Better: "lower"},

	{Name: "shard.search_ns", Unit: "ns", Better: "lower"},
	{Name: "shard.self_ns", Unit: "ns", Better: "lower"},
	{Name: "shard.passes_per_query", Unit: "count", Better: "lower"},

	{Name: "api.search_ns", Unit: "ns", Better: "lower"},
	{Name: "api.search_allocs", Unit: "count", Better: "lower"},
	{Name: "api.self_ns", Unit: "ns", Better: "lower"},
	{Name: "api.topk_ns", Unit: "ns", Better: "lower"},
	{Name: "api.add_ns", Unit: "ns", Better: "lower"},
	{Name: "api.update_ns", Unit: "ns", Better: "lower"},
	{Name: "api.delete_ns", Unit: "ns", Better: "lower"},
	{Name: "api.reopen_s", Unit: "s", Better: "lower"},

	{Name: "wal.append_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.bytes_per_record", Unit: "bytes", Better: "lower"},
	{Name: "wal.syncs_per_record", Unit: "count", Better: "lower"},
	{Name: "wal.snapshot_s", Unit: "s", Better: "lower"},
	{Name: "wal.snapshot_bytes", Unit: "bytes", Better: "lower"},
	{Name: "wal.replay_records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "wal.disk_bytes_per_user_byte", Unit: "ratio", Better: "lower"},

	{Name: "server.handler_ns", Unit: "ns", Better: "lower"},
	{Name: "server.handler_allocs", Unit: "count", Better: "lower"},
	{Name: "server.self_ns", Unit: "ns", Better: "lower"},
	{Name: "server.cached_ns", Unit: "ns", Better: "lower"},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.batch_ns_per_query", Unit: "ns", Better: "lower"},
	{Name: "server.http_ns", Unit: "ns", Better: "lower"},
	{Name: "server.write_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.write_p99_us", Unit: "us", Better: "lower"},
	{Name: "server.stall_max_ms", Unit: "ms", Better: "lower"},

	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "higher"},
}
