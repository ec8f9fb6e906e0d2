package main

// metric is one reported figure: its name, unit and which direction is
// better.
type metric struct {
	name   string
	unit   string
	better string // "higher" or "lower"
}

// endToEnd is printed by every untraced run (--trace 0), in this order.
// BENCHMARK.json lists the same names and units (see metrics_test.go).
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"alloc_mib_per_op", "MiB", "lower"},
	{"verified_share", "ratio", "higher"},
	{"plans_per_s", "1/s", "higher"},
	{"plan_ms", "ms", "lower"},
	{"sim_iter_s", "sim_s", "lower"},
	{"peak_mem_gib", "GiB", "lower"},
	{"req_per_s", "1/s", "higher"},
	{"hit_ms_p50", "ms", "lower"},
	{"hit_ms_p99", "ms", "lower"},
	{"miss_ms_p50", "ms", "lower"},
	{"miss_ms_p90", "ms", "lower"},
}

// perLayer is printed by every traced run (--trace 1). Layers a workload
// does not exercise read 0.
var perLayer = []metric{
	// Planner layers, per traced plan (means over the run's traced ops).
	{"models.build_ms", "ms", "lower"},
	{"models.alloc_mib", "MiB", "lower"},
	{"coarsen.coarsen_ms", "ms", "lower"},
	{"coarsen.alloc_mib", "MiB", "lower"},
	{"coarsen.groups", "count", "lower"},
	{"coarsen.max_frontier", "count", "lower"},
	{"core.partition_ms", "ms", "lower"},
	{"core.alloc_mib", "MiB", "lower"},
	{"recursive.partition_ms", "ms", "lower"},
	{"recursive.coarsen_ms", "ms", "lower"},
	{"recursive.orderings", "count", "lower"},
	{"recursive.expanded", "count", "lower"},
	{"recursive.pruned", "count", "higher"},
	{"recursive.dp_solves", "count", "lower"},
	{"recursive.dp_solves_flat", "count", "lower"},
	{"hybrid.partition_ms", "ms", "lower"},
	{"hybrid.segments", "count", "lower"},
	{"hybrid.expanded", "count", "lower"},
	{"hybrid.pruned", "count", "higher"},
	{"hybrid.dp_solves", "count", "lower"},
	{"dp.solve_ms", "ms", "lower"},
	{"dp.solve_calls", "count", "lower"},
	{"dp.sweep_ms", "ms", "lower"},
	{"partition.pricing_ms", "ms", "lower"},
	{"partition.price_cache_hit_ratio", "ratio", "higher"},
	{"partition.price_lookups", "count", "lower"},
	{"graphgen.generate_ms", "ms", "lower"},
	{"graphgen.alloc_mib", "MiB", "lower"},
	{"memplan.plan_ms", "ms", "lower"},
	{"memplan.alloc_mib", "MiB", "lower"},
	{"sim.run_ms", "ms", "lower"},
	{"sim.alloc_mib", "MiB", "lower"},
	{"plan.write_json_ms", "ms", "lower"},
	{"plan.alloc_mib", "MiB", "lower"},
	{"plan.json_bytes", "bytes", "lower"},
	{"plan.verify_ms", "ms", "lower"},
	{"plan.verify_alloc_mib", "MiB", "lower"},
	// Serving layers, per request of the in-process replay.
	{"service.parse_us", "us", "lower"},
	{"service.digest_us", "us", "lower"},
	{"service.lookup_lru_us", "us", "lower"},
	{"service.lookup_store_us", "us", "lower"},
	{"service.lookup_miss_us", "us", "lower"},
	{"service.admit_us", "us", "lower"},
	{"service.wait_ms", "ms", "lower"},
	{"service.http_overhead_us", "us", "lower"},
	{"service.lookups", "count", "higher"},
	{"service.lru_hit_ratio", "ratio", "higher"},
	{"store.lookups", "count", "lower"},
	{"store.read_ratio", "ratio", "higher"},
	{"service.coalesced", "count", "higher"},
	{"service.searches", "count", "lower"},
	{"service.pricing_lookups", "count", "lower"},
	{"service.pricing_hit_ratio", "ratio", "higher"},
	{"service.warm_start_ratio", "ratio", "higher"},
	{"store.puts", "count", "lower"},
	{"store.put_errors", "count", "lower"},
	{"service.bytes_served_mib", "MiB", "lower"},
	// Cost of the tracing itself.
	{"trace.overhead_ms", "ms", "lower"},
}
