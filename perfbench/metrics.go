package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and bounds; TestBenchmarkJSONMatchesTables keeps them equal.
type metricDef struct {
	Name  string
	Unit  string
	Bound float64 // end-to-end only: the share of the parent's median a metric may worsen by
	// Better is "lower" or "higher"; empty means "lower".
	Better string
	// Explains, for a per-layer metric, names the end-to-end metric the
	// layer should move, and on which workload.
	Explains string
}

func (d metricDef) better() string {
	if d.Better == "" {
		return "lower"
	}
	return d.Better
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them; "op" is the workload's unit of work: one
// Cluster.Mul in the workload's kernel mode (spmv-hmep-tcp-vector, -naive
// and -task), one served request as the client sees it (serve-band-mixed)
// or one capacity-planner sweep (sim-hmep-sweep). ops_per_s is completed
// operations over the time the operations took, per client (see
// report.opMetrics), so it covers the same intervals as the latencies.
// Failed operations are the result line's "failed" count, not a metric:
// a failure fraction reads 0 on a healthy run and has no median to bound.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.1},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
}

// perLayer are the traced pass's metrics, timed from outside around calls
// into each package. Every workload prints all of them; a layer that does
// no work on a workload reports 0 there.
var perLayer = []metricDef{
	// Set-up: medians over the set-up repetitions.
	{Name: "genmat.gen_s", Unit: "s", Explains: "setup_s, every workload"},
	{Name: "core.plan_s", Unit: "s", Explains: "setup_s, every workload; dominates sim-hmep-sweep"},
	{Name: "formats.convert_s", Unit: "s", Explains: "setup_s of a SELL-32-256 workload; converts the spmv-hmep-tcp-* and serve-band-mixed matrices"},
	{Name: "core.dial_s", Unit: "s", Explains: "setup_s, spmv-hmep-tcp-vector, spmv-hmep-tcp-naive and spmv-hmep-tcp-task"},
	{Name: "serve.register_s", Unit: "s", Explains: "setup_s, serve-band-mixed"},
	{Name: "core.plan_bytes", Unit: "B", Explains: "heap_mb, every workload"},
	{Name: "bench.working_set_bytes", Unit: "B", Explains: "heap_mb, every workload"},

	// Kernels.
	{Name: "spmv.crs_serial_gflops", Unit: "GFlop/s", Better: "higher", Explains: "op_ms_p50, spmv-hmep-tcp-vector, spmv-hmep-tcp-naive and spmv-hmep-tcp-task"},
	{Name: "spmv.sell_serial_gflops", Unit: "GFlop/s", Better: "higher", Explains: "baseline for a storage-format change; no kept workload runs SELL"},
	{Name: "spmv.full_pass_us", Unit: "us", Explains: "op_ms_p50, spmv-hmep-tcp-vector"},
	{Name: "spmv.local_pass_us", Unit: "us", Explains: "op_ms_p50, spmv-hmep-tcp-naive, spmv-hmep-tcp-task and serve-band-mixed"},
	{Name: "spmv.remote_pass_us", Unit: "us", Explains: "op_ms_p50, spmv-hmep-tcp-naive, spmv-hmep-tcp-task and serve-band-mixed"},
	{Name: "spmv.bytes_per_mul_computed", Unit: "B", Explains: "op_ms_p50, spmv-hmep-tcp-* (Eq. 1, kappa=0, computed)"},
	{Name: "spmv.flops_per_byte_computed", Unit: "flop/B", Better: "higher", Explains: "op_ms_p50, spmv-hmep-tcp-* (Eq. 1, kappa=0, computed)"},
	{Name: "formats.sell_padding_ratio", Unit: "ratio", Explains: "baseline for a storage-format change; no kept workload runs SELL"},

	// Communication and kernel modes.
	{Name: "tcpmpi.halo_us", Unit: "us", Explains: "op_ms_p50, spmv-hmep-tcp-vector, spmv-hmep-tcp-naive and spmv-hmep-tcp-task"},
	{Name: "chanmpi.halo_us", Unit: "us", Explains: "op_ms_p50 and op_ms_p90, serve-band-mixed"},
	{Name: "chanmpi.allreduce_us", Unit: "us", Explains: "op_ms_p90, serve-band-mixed (served solves)"},
	{Name: "core.halo_elems", Unit: "count", Explains: "op_ms_p50, spmv-hmep-tcp-* and serve-band-mixed"},
	{Name: "core.halo_msgs", Unit: "count", Explains: "op_ms_p50, spmv-hmep-tcp-* and serve-band-mixed"},
	{Name: "core.mul_us_p50_vector", Unit: "us", Explains: "op_ms_p50, spmv-hmep-tcp-vector"},
	{Name: "core.mul_us_p50_naive", Unit: "us", Explains: "op_ms_p50, spmv-hmep-tcp-naive"},
	{Name: "core.mul_us_p50_task", Unit: "us", Explains: "op_ms_p50, spmv-hmep-tcp-task and serve-band-mixed"},
	{Name: "core.mul_us_p99_task", Unit: "us", Explains: "op_ms_p90, spmv-hmep-tcp-task"},
	{Name: "core.mul_gflops_vector", Unit: "GFlop/s", Better: "higher", Explains: "ops_per_s, spmv-hmep-tcp-vector"},
	{Name: "core.mul_gflops_naive", Unit: "GFlop/s", Better: "higher", Explains: "ops_per_s, spmv-hmep-tcp-naive"},
	{Name: "core.mul_gflops_task", Unit: "GFlop/s", Better: "higher", Explains: "ops_per_s, spmv-hmep-tcp-task"},
	{Name: "core.overlap_frac_naive", Unit: "ratio", Better: "higher", Explains: "op_ms_p50, spmv-hmep-tcp-naive"},
	{Name: "core.overlap_frac_task", Unit: "ratio", Better: "higher", Explains: "op_ms_p50, spmv-hmep-tcp-task"},
	{Name: "core.dispatch_us", Unit: "us", Explains: "op_ms_p50, spmv-hmep-tcp-vector"},
	{Name: "core.allocs_per_mul", Unit: "count", Explains: "op_ms_p90, spmv-hmep-tcp-* and serve-band-mixed"},

	// Solver.
	{Name: "solver.iters", Unit: "count", Explains: "op_ms_p90, serve-band-mixed (served solves)"},
	{Name: "solver.iter_us", Unit: "us", Explains: "op_ms_p90, serve-band-mixed (served solves)"},
	{Name: "solver.self_us_per_iter", Unit: "us", Explains: "op_ms_p90, serve-band-mixed (served solves)"},
	{Name: "solver.allocs_per_solve", Unit: "count", Explains: "op_ms_p90, serve-band-mixed (served solves)"},

	// Serving.
	{Name: "serve.http.encode_req_us", Unit: "us", Explains: "op_ms_p50 and ops_per_s, serve-band-mixed"},
	{Name: "serve.http.decode_req_us", Unit: "us", Explains: "op_ms_p50 and ops_per_s, serve-band-mixed"},
	{Name: "serve.http.encode_resp_us", Unit: "us", Explains: "op_ms_p50 and ops_per_s, serve-band-mixed"},
	{Name: "serve.http.decode_resp_us", Unit: "us", Explains: "op_ms_p50 and ops_per_s, serve-band-mixed"},
	{Name: "serve.http.bytes_per_req", Unit: "B", Explains: "op_ms_p50, serve-band-mixed"},
	{Name: "serve.http.overhead_us_p50", Unit: "us", Explains: "op_ms_p50, serve-band-mixed"},
	{Name: "serve.queue_us_p50", Unit: "us", Explains: "op_ms_p50, serve-band-mixed"},
	{Name: "serve.queue_us_p90", Unit: "us", Explains: "op_ms_p90, serve-band-mixed"},
	{Name: "serve.exec_mul_us_p50", Unit: "us", Explains: "ops_per_s, serve-band-mixed"},
	{Name: "serve.exec_solve_us_p50", Unit: "us", Explains: "op_ms_p90 and ops_per_s, serve-band-mixed"},
	{Name: "serve.do_us_p50", Unit: "us", Explains: "op_ms_p50, serve-band-mixed (HTTP bypassed)"},
	{Name: "serve.batch_size_mean", Unit: "count", Better: "higher", Explains: "ops_per_s, serve-band-mixed"},
	{Name: "serve.attempts_mean", Unit: "count", Explains: "failed count, serve-band-mixed"},
	{Name: "serve.rejected", Unit: "count", Explains: "failed count, serve-band-mixed"},
	{Name: "serve.shed", Unit: "count", Explains: "failed count, serve-band-mixed"},
	{Name: "serve.retried", Unit: "count", Explains: "failed count, serve-band-mixed"},
	{Name: "serve.allocs_per_req", Unit: "count", Explains: "op_ms_p90, serve-band-mixed"},

	// Simulation.
	{Name: "simnet.events", Unit: "count", Explains: "op_ms_p50, sim-hmep-sweep"},
	{Name: "simnet.events_per_s", Unit: "1/s", Better: "higher", Explains: "op_ms_p50, sim-hmep-sweep"},
	{Name: "simnet.point_s_64", Unit: "s", Explains: "op_ms_p50, sim-hmep-sweep"},
	{Name: "simnet.point_s_256", Unit: "s", Explains: "op_ms_p50, sim-hmep-sweep"},
	{Name: "simnet.point_s_1024", Unit: "s", Explains: "op_ms_p50, sim-hmep-sweep"},
	{Name: "simnet.crossover_ranks", Unit: "count", Explains: "correctness gate, sim-hmep-sweep"},

	// The benchmark's own accounting.
	{Name: "bench.fail_frac", Unit: "ratio", Explains: "failed count, every workload"},
	{Name: "trace.overhead_frac", Unit: "ratio", Explains: "op_ms_p50, every workload (traced over untraced, minus 1)"},
	{Name: "trace.residual_frac", Unit: "ratio", Explains: "op_ms_p50, every workload (share the blocking-path layers leave unexplained)"},
}
