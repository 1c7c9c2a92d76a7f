package main

// The metric catalogue: the one place that names every metric, its unit
// and direction. BENCHMARK.json repeats name, unit and direction (the test
// holds the two together); README.md explains each.

// endToEnd describes one end-to-end metric. Every workload reports all of
// them, from rounds with every observer off.
type endToEnd struct {
	name, unit, better string
}

var endToEndMetrics = []endToEnd{
	{"ops_per_sec", "op/s", "higher"},
	{"ops_per_sec_w1", "op/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p95_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer describes one per-layer metric: the layer (a directory under
// internal/, or "runtime" / "bench" for the two that are not), the
// end-to-end metric an improvement should move, and the workloads it
// should move it on ("all", or names separated by spaces).
type perLayer struct {
	name, unit, better string
	layer, moves, on   string
}

var perLayerMetrics = append(gamesMetrics(), []perLayer{
	{"engine.seq_ns_per_node", "ns", "lower", "engine", "ops_per_sec_w1", "all"},
	{"engine.search_self_ns_per_node", "ns", "lower", "engine", "ops_per_sec_w1", "all"},
	{"engine.nodes_per_op", "count", "lower", "engine", "ops_per_sec", "lib_tree"},
	{"engine.nodes_per_op_w1", "count", "lower", "engine", "ops_per_sec_w1", "all"},
	{"engine.search_overhead_x", "x", "lower", "engine", "cpu_ms_per_op", "lib_tree"},
	{"engine.mnodes_per_sec", "Mnode/s", "higher", "engine", "latency_p50_ms", "lib_tree"},

	{"table.probe_hit_ns", "ns", "lower", "engine", "ops_per_sec", "lib_connect4 solve_mix"},
	{"table.probe_miss_ns", "ns", "lower", "engine", "ops_per_sec", "lib_connect4 solve_mix"},
	{"table.store_ns", "ns", "lower", "engine", "ops_per_sec", "lib_connect4 solve_mix"},
	{"table.hit_share", "share", "higher", "engine", "ops_per_sec", "lib_connect4 solve_mix"},
	{"table.evict_share", "share", "lower", "engine", "ops_per_sec", "lib_connect4 solve_mix"},

	{"pool.scaling_x", "x", "higher", "engine", "ops_per_sec", "lib_tree"},
	{"pool.w1_vs_seq_x", "x", "higher", "engine", "ops_per_sec_w1", "lib_tree"},
	{"pool.search_wake_us", "us", "lower", "engine", "latency_p95_ms", "serve_hot ring_cold"},
	{"pool.splits_per_knode", "1/knode", "lower", "engine", "ops_per_sec", "lib_tree"},
	{"pool.steals_per_knode", "1/knode", "lower", "engine", "ops_per_sec", "lib_tree"},
	{"pool.steal_success_share", "share", "higher", "engine", "ops_per_sec", "lib_tree"},
	{"pool.aborted_task_share", "share", "lower", "engine", "cpu_ms_per_op", "lib_tree"},
	{"pool.load_skew", "x", "lower", "engine", "latency_p95_ms", "lib_tree"},

	{"pns.expands_per_sec", "1/s", "higher", "pns", "ops_per_sec", "solve_mix"},
	{"pns.nodes_per_expand", "count", "lower", "pns", "ops_per_sec", "solve_mix"},
	{"pns.expands_per_op_w1", "count", "lower", "pns", "ops_per_sec_w1", "solve_mix"},
	{"pns.search_overhead_x", "x", "lower", "pns", "cpu_ms_per_op", "solve_mix"},
	{"pns.scaling_x", "x", "higher", "pns", "latency_p95_ms", "solve_mix"},

	{"serve.parse_ns", "ns", "lower", "serve", "latency_p50_ms", "serve_hot"},
	{"serve.json_req_decode_ns", "ns", "lower", "serve", "latency_p50_ms", "serve_hot"},
	{"serve.json_resp_encode_ns", "ns", "lower", "serve", "latency_p50_ms", "serve_hot"},
	{"serve.handler_hit_us", "us", "lower", "serve", "latency_p50_ms", "serve_hot"},
	{"serve.http_loopback_us", "us", "lower", "serve", "latency_p50_ms", "serve_hot"},
	{"serve.miss_overhead_us", "us", "lower", "serve", "ops_per_sec", "serve_hot solve_mix"},
	{"serve.queue_wait_ms_p50", "ms", "lower", "serve", "latency_p95_ms", "serve_hot"},
	{"serve.queue_wait_ms_p95", "ms", "lower", "serve", "latency_p95_ms", "serve_hot"},
	{"serve.cache_hit_share", "share", "higher", "serve", "latency_p50_ms", "serve_hot"},
	{"serve.coalesced_share", "share", "higher", "serve", "ops_per_sec", "serve_hot"},
	{"serve.shed_share", "share", "lower", "serve", "ops_per_sec", "serve_hot"},
	{"serve.latency_p99_ms", "ms", "lower", "serve", "latency_p95_ms", "serve_hot"},

	{"shard.codec_encode_ns", "ns", "lower", "shard", "latency_p50_ms", "ring_cold"},
	{"shard.codec_decode_ns", "ns", "lower", "shard", "latency_p50_ms", "ring_cold"},
	{"shard.envelope_bytes", "B", "lower", "shard", "latency_p50_ms", "ring_cold"},
	{"shard.expand_us", "us", "lower", "shard", "latency_p50_ms", "ring_cold"},
	{"shard.ring_owner_ns", "ns", "lower", "shard", "latency_p50_ms", "ring_cold"},
	{"shard.coord_search_ms_p50", "ms", "lower", "shard", "latency_p50_ms", "ring_cold"},
	{"shard.tasks_per_req", "count", "lower", "shard", "ops_per_sec", "ring_cold"},
	{"shard.reissue_share", "share", "lower", "shard", "latency_p95_ms", "ring_cold"},
	{"shard.fenced_share", "share", "lower", "shard", "cpu_ms_per_op", "ring_cold"},
	{"shard.added_latency_ms", "ms", "lower", "shard", "latency_p50_ms", "ring_cold"},
	{"shard.stage_expand_ms_p50", "ms", "lower", "shard", "latency_p50_ms", "ring_cold"},
	{"shard.stage_rpc_ms_p50", "ms", "lower", "shard", "latency_p50_ms", "ring_cold"},
	{"shard.stage_worker_queue_ms_p50", "ms", "lower", "shard", "latency_p50_ms", "ring_cold"},
	{"shard.stage_compute_ms_p50", "ms", "lower", "shard", "latency_p50_ms", "ring_cold"},
	{"shard.stage_fold_ms_p50", "ms", "lower", "shard", "latency_p50_ms", "ring_cold"},

	{"transport.frame_encode_ns", "ns", "lower", "transport", "latency_p50_ms", "ring_cold"},
	{"transport.frame_decode_ns", "ns", "lower", "transport", "latency_p50_ms", "ring_cold"},
	{"transport.rtt_us_p50", "us", "lower", "transport", "latency_p50_ms", "ring_cold"},
	{"transport.rtt_us_p95", "us", "lower", "transport", "latency_p95_ms", "ring_cold"},
	{"transport.drops", "count", "lower", "transport", "latency_p95_ms", "ring_cold"},

	{"telemetry.overhead_share", "share", "lower", "telemetry", "ops_per_sec", "all"},
	{"runtime.gc_cpu_share", "share", "lower", "runtime", "cpu_ms_per_op", "all"},
	{"runtime.gc_pause_ms_p95", "ms", "lower", "runtime", "latency_p95_ms", "all"},
	{"runtime.allocs_per_op", "count", "lower", "runtime", "cpu_ms_per_op", "lib_connect4"},
	{"runtime.alloc_bytes_per_op", "B", "lower", "runtime", "cpu_ms_per_op", "lib_connect4"},
	{"bench.client_overhead_us", "us", "lower", "bench", "cpu_ms_per_op", "all"},
}...)

// gameNames are the games the micro-timings sample, in report order.
var gameNames = []string{"connect4", "random", "nim", "kayles"}

// gamesMetrics: five timings per game. They should move throughput and
// CPU per op where the game is real (Connect-4 in lib_connect4, Nim and
// Kayles in solve_mix) and, by prediction, nothing on lib_tree, whose
// "game" is a hash mix.
func gamesMetrics() []perLayer {
	var out []perLayer
	for _, g := range gameNames {
		on := "lib_connect4"
		switch g {
		case "random":
			on = "lib_tree serve_hot ring_cold"
		case "nim", "kayles":
			on = "solve_mix"
		}
		for _, m := range []struct{ name, unit string }{
			{"movegen_ns_per_node", "ns"}, {"eval_ns_per_node", "ns"}, {"hash_ns_per_node", "ns"},
			{"allocs_per_node", "count"}, {"alloc_bytes_per_node", "B"},
		} {
			out = append(out, perLayer{"games." + g + "." + m.name, m.unit, "lower", "games", "ops_per_sec_w1", on})
		}
	}
	return out
}

var perLayerUnits = func() map[string]string {
	units := make(map[string]string, len(perLayerMetrics))
	for _, m := range perLayerMetrics {
		units[m.name] = m.unit
	}
	return units
}()

// metricSet collects per-layer values by name; the unit comes from the
// catalogue, so a value without an entry there cannot be reported.
type metricSet map[string]metricValue

func (m metricSet) put(name string, v float64) {
	unit, ok := perLayerUnits[name]
	if !ok {
		panic("bench: metric " + name + " is not in the catalogue")
	}
	m[name] = metricValue{Value: finite(v), Unit: unit}
}
