package main

// endToEnd names the end-to-end metrics in BENCHMARK.json order. Every
// workload reports every one; README.md says which are a workload's
// headline numbers. fail_frac is the eighth: the contract carries it as
// the failed and attempted counts, because a metric that is 0 on the
// seed commit has no regression ratio.
var endToEnd = []metricDef{
	{"solve_sgm_s", "s"}, {"primal_integral_s", "s"}, {"job_p50_s", "s"}, {"job_p90_s", "s"},
	{"jobs_per_s", "1/s"}, {"alloc_mb", "MB"}, {"setup_s", "s"},
}

// perLayer names the per-layer metrics, "<module>.<name>". A workload a
// layer does no work in reports 0 for it, which is itself the check that
// the workload bypasses the layer.
var perLayer = []metricDef{
	{"lp.iters", "count"}, {"lp.busy_s", "s"}, {"lp.iters_per_s", "1/s"}, {"lp.share", "frac"},
	{"lp.cold_solve_ms", "ms"}, {"lp.addrow_resolve_ms", "ms"}, {"lp.bound_resolve_ms", "ms"}, {"lp.kernel_rows", "count"},
	{"lp.dense_addrow_resolve_ms", "ms"}, {"lp.dense_kernel_rows", "count"},
	{"scip.nodes", "count"}, {"scip.nodes_per_s", "1/s"}, {"scip.loop_self_s", "s"}, {"scip.max_depth", "count"}, {"scip.dead_ends", "count"},
	{"scip.encode_us", "us"}, {"scip.decode_us", "us"}, {"scip.subprob_bytes", "B"},
	{"steiner.presolve_s", "s"}, {"steiner.sepa_s", "s"}, {"steiner.sepa_calls", "count"}, {"steiner.heur_s", "s"}, {"steiner.heur_calls", "count"},
	{"steiner.sols_per_heur_call", "ratio"}, {"steiner.prop_s", "s"}, {"steiner.prop_fixings", "count"}, {"steiner.branch_s", "s"}, {"steiner.cuts", "count"},
	{"steiner.reduce_ms", "ms"}, {"steiner.dualascent_ms", "ms"}, {"steiner.sph_ms", "ms"}, {"steiner.localsearch_ms", "ms"}, {"steiner.localsearch_gain", "ratio"},
	{"maxflow.calls", "count"}, {"maxflow.solve_us", "us"},
	{"misdp.relax_s", "s"}, {"misdp.relax_calls", "count"}, {"misdp.sepa_s", "s"}, {"misdp.heur_s", "s"}, {"misdp.cuts", "count"},
	{"sdp.solve_ms", "ms"}, {"sdp.iters", "count"}, {"sdp.share", "frac"},
	{"linalg.eigen_n8_us", "us"}, {"linalg.eigen_n16_us", "us"}, {"linalg.eigen_n32_us", "us"},
	{"linalg.chol_n8_us", "us"}, {"linalg.chol_n16_us", "us"}, {"linalg.chol_n32_us", "us"}, {"linalg.mineigen_n16_us", "us"},
	{"ug.dispatched", "count"}, {"ug.collected", "count"}, {"ug.transfer_bytes", "B"}, {"ug.status_reports", "count"}, {"ug.idle_frac", "frac"},
	{"ug.ramp_up_s", "s"}, {"ug.root_time_share", "frac"}, {"ug.max_active", "count"}, {"ug.worker_busy_s", "s"}, {"ug.subproblems", "count"}, {"ug.speedup_vs_seq", "ratio"},
	{"comm.msgs", "count"}, {"comm.bytes", "B"}, {"comm.send_us", "us"}, {"comm.recv_wait_s", "s"},
	{"comm_net.rtt_us", "us"}, {"comm_net.frames_per_s", "1/s"}, {"comm_net.solve_ratio", "ratio"},
	{"obs.emit_ns_nil", "ns"}, {"obs.emit_ns_recorder", "ns"}, {"obs.emit_ns_recorder_bus", "ns"}, {"obs.emit_ns_file", "ns"}, {"obs.trace_cost_frac", "frac"},
	{"serve.queue_wait_s", "s"}, {"serve.presolve_s", "s"}, {"serve.solve_s", "s"}, {"serve.overhead_s", "s"}, {"serve.cache_hit_frac", "frac"},
	{"serve.cache_saved_s", "s"}, {"serve.rejected", "count"}, {"serve.submit_ms", "ms"},
	{"bench.trace_overhead_frac", "frac"}, {"bench.peak_rss_mb", "MB"}, {"bench.pass_spread", "frac"}, {"bench.attributed_frac", "frac"},
}

type metricDef struct{ Name, Unit string }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics turns the traced pass into the per-layer numbers that
// come from spans and counts; the kernels phase adds the rest.
func (r *runner) layerMetrics(t *Trace, tracedWall float64, untracedWalls []float64) map[string]float64 {
	m := map[string]float64{}
	sum, calls := totals(t.spans)
	self := selfTimes(t.spans)
	c := t.get

	// A solve span is one scip solve: the sequential solve, or one
	// ParaSolver working on one subproblem.
	solve := sum["solve"] + sum["worker.solve"]
	m["lp.iters"], m["lp.busy_s"] = c("lp.iters"), c("lp.busy_s")
	m["lp.iters_per_s"] = ratio(c("lp.iters"), c("lp.busy_s"))
	m["lp.share"] = ratio(c("lp.busy_s"), solve)
	m["scip.nodes"] = c("scip.nodes")
	m["scip.nodes_per_s"] = ratio(c("scip.nodes"), solve)
	// What is left of the solve spans after the plugin calls under them
	// and the LP time inside them is the node loop itself.
	m["scip.loop_self_s"] = self["solve"] + self["worker.solve"] - c("lp.busy_s")
	m["scip.max_depth"], m["scip.dead_ends"] = c("scip.max_depth"), c("scip.dead_ends")
	if solve > 0 {
		m["bench.attributed_frac"] = 1 - m["scip.loop_self_s"]/solve
	}

	m["steiner.presolve_s"] = sum["steiner.presolve"]
	m["steiner.sepa_s"], m["steiner.sepa_calls"] = sum["steiner.sepa"], calls["steiner.sepa"]
	m["steiner.heur_s"], m["steiner.heur_calls"] = sum["steiner.heur"], calls["steiner.heur"]
	m["steiner.sols_per_heur_call"] = ratio(c("steiner.sols"), calls["steiner.heur"])
	m["steiner.prop_s"], m["steiner.prop_fixings"] = sum["steiner.prop"], c("steiner.prop_fixings")
	m["steiner.branch_s"], m["steiner.cuts"] = sum["steiner.branch"], c("steiner.cuts")

	m["misdp.relax_s"], m["misdp.relax_calls"] = sum["misdp.relax"], calls["misdp.relax"]
	m["misdp.sepa_s"], m["misdp.heur_s"], m["misdp.cuts"] = sum["misdp.sepa"], sum["misdp.heur"], c("misdp.cuts")
	m["sdp.share"] = ratio(sum["misdp.relax"], solve)

	for _, k := range []string{"ug.dispatched", "ug.collected", "ug.transfer_bytes", "ug.status_reports", "ug.max_active", "ug.subproblems"} {
		m[k] = c(k)
	}
	m["ug.idle_frac"] = ratio(c("ug.idle_sum"), c("ug.idle_n"))
	m["ug.ramp_up_s"] = ratio(c("ug.ramp_up_s"), calls["op"])
	m["ug.root_time_share"] = ratio(c("ug.root_time_s"), c("ug.time_s"))
	m["ug.worker_busy_s"] = sum["worker.solve"]
	m["comm.msgs"], m["comm.bytes"] = c("comm.msgs"), c("comm.bytes")
	m["comm.send_us"] = ratio(c("comm.send_ns"), c("comm.msgs")) / 1e3
	m["comm.recv_wait_s"] = c("comm.recv_wait_ns") / 1e9

	if n := float64(len(r.jobStats)); n > 0 {
		missPresolve := map[string][]float64{}
		var hits float64
		for _, js := range r.jobStats {
			m["serve.queue_wait_s"] += js.queueWait / n
			m["serve.presolve_s"] += js.presolve / n
			m["serve.solve_s"] += js.solve / n
			if js.cacheHit {
				hits++
			} else {
				missPresolve[js.name] = append(missPresolve[js.name], js.presolve)
			}
			if js.rejected {
				m["serve.rejected"]++
			}
		}
		m["serve.overhead_s"] = sum["op"]/n - m["serve.presolve_s"] - m["serve.solve_s"]
		m["serve.cache_hit_frac"] = hits / n
		// What the cache saved: every hit skipped a presolve that costs
		// what the misses of the same instance paid on average.
		for _, js := range r.jobStats {
			if js.cacheHit {
				m["serve.cache_saved_s"] += mean(missPresolve[js.name])
			}
		}
		m["serve.submit_ms"] = 1e3 * ratio(sum["http.submit"], calls["http.submit"])
	}

	base := median(untracedWalls)
	m["bench.trace_overhead_frac"] = ratio(tracedWall, base) - 1
	if len(untracedWalls) > 1 {
		s := sorted(untracedWalls)
		m["bench.pass_spread"] = ratio(s[len(s)-1]-s[0], base)
	}
	return m
}
