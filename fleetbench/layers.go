package main

// Per-layer metrics of the traced run. Layers are the repository's
// modules; README.md maps each metric to the end-to-end metric and
// workload it should move.

import (
	"repro/internal/optimize"
)

// perLayer computes the per-layer metrics. ph is the whole traced run,
// traced and untraced slices, which the /metrics deltas also cover; mem
// and tracedReqs cover only the traced slices. overheadPct is the
// tracing overhead.
func perLayer(w *workload, ph *phase, mem memDelta, tracedReqs int, tr *tracer, before, after *fleetMetrics, rp *replayTimes, overheadPct float64) map[string]metric {
	rd := delta(before.router, after.router)
	bd := delta(before.backends, after.backends)

	relayed := rd.family("scroute_requests_total")
	hedges := rd["scroute_hedges_total"]
	// The router counts winning and failed forwards; each hedge adds one
	// more attempt, whose loser it settles without counting.
	attempts := rd.family("scroute_backend_requests_total") + hedges

	admitSum, gated := bd.stage("admission_wait")
	// perGated is the mean time per backend request spent in the stages.
	perGated := func(stages ...string) float64 {
		var sum float64
		for _, s := range stages {
			v, _ := bd.stage(s)
			sum += v
		}
		return ratio(sum, gated) * 1000
	}
	compileSum, compiles := bd.stage("compile")
	hits, misses := bd["scserved_engine_cache_hits_total"], bd["scserved_engine_cache_misses_total"]
	searchSum, searches := bd.stage(optimize.SpanSearch)

	var okReqs, samples, evaluated, optimized float64
	for i, n := range ph.sent {
		if n == 0 {
			continue
		}
		okReqs += float64(n)
		samples += float64(n * w.reqs[i].samples)
		if w.reqs[i].path == pathOptimize {
			e, err := checkOptimize(w.check.ref[i])
			if err == nil {
				evaluated += float64(n * e)
			}
			optimized += float64(n)
		}
	}
	routeSelf, backend := tr.layerTimes()
	attempted := float64(ph.attempted)
	// Stats.Evaluated counts only the answers relayed to the driver, but
	// the search stage also times the searches of hedge losers; charge
	// the relayed answers their share of the search time.
	relayedSearch := searchSum * ratio(optimized, searches)

	return map[string]metric{
		"route.self_ms":          {median(routeSelf), "ms"},
		"route.key_ms":           {median(rp.key), "ms"},
		"route.attempts_per_req": {ratio(attempts, relayed), "ratio"},
		"route.hedges_per_req":   {ratio(hedges, relayed), "ratio"},
		"route.hedge_win_ratio":  {ratio(rd["scroute_hedge_wins_total"], hedges), "ratio"},

		"serve.handler_ms":        {median(backend), "ms"},
		"serve.admission_wait_ms": {ratio(admitSum, gated) * 1000, "ms"},
		"serve.shed_ratio":        {ratio(bd["scserved_shed_total"], gated), "ratio"},
		"serve.decode_ms":         {median(rp.decode), "ms"},
		"serve.load_ms":           {median(rp.load), "ms"},
		"serve.encode_ms":         {perGated("encode", "batch_encode"), "ms"},
		"serve.request_bytes":     {ratio(float64(ph.reqBytes), attempted), "bytes"},
		"serve.response_bytes":    {ratio(float64(ph.respBytes), attempted), "bytes"},

		"contract.cache_hit_ratio":   {ratio(hits, hits+misses), "ratio"},
		"contract.compile_ms":        {ratio(compileSum, compiles) * 1000, "ms"},
		"contract.compile_replay_ms": {median(rp.compile), "ms"},

		"billing.evaluate_ms":        {perGated("evaluate", "batch_evaluate"), "ms"},
		"billing.evaluate_replay_ms": {median(rp.evaluate), "ms"},
		"billing.samples_per_req":    {ratio(samples, okReqs), "count"},

		"optimize.search_ms":       {perGated(optimize.SpanSearch), "ms"},
		"optimize.evaluate_ms":     {perGated(optimize.SpanEvaluate), "ms"},
		"optimize.evaluated_per_s": {ratio(evaluated, relayedSearch), "1/s"},

		"runtime.gc_cycles_per_req": {ratio(float64(mem.gcs), float64(tracedReqs)), "count"},
		"runtime.gc_pause_ms":       {ratio(float64(mem.pauseNs), float64(tracedReqs)) / 1e6, "ms"},

		"driver.lag_ms_p99":  {quantile(ph.lag, 0.99), "ms"},
		"trace.overhead_pct": {overheadPct, "%"},
	}
}
