package main

// perLayer are the metrics of single layers (--trace 1), each taken from
// the traced run's spans or from a public counter of the layer. Metrics of
// a layer the workload does not exercise read 0 (README.md lists which
// workload exercises which layer).
var perLayer = []metricDef{
	{"gateway.rpc_begin_p50_ms", "ms"},
	{"gateway.rpc_invoke_p50_ms", "ms"},
	{"gateway.rpc_apply_p50_ms", "ms"},
	{"gateway.rpc_commit_p50_ms", "ms"},
	{"gateway.rpc_read_p50_ms", "ms"},
	{"gateway.rpc_attach_p50_ms", "ms"},
	{"gateway.rpc_detach_p50_ms", "ms"},
	{"gateway.rpc_awake_p50_ms", "ms"},
	{"gateway.self_begin_p50_ms", "ms"},
	{"gateway.self_invoke_p50_ms", "ms"},
	{"gateway.self_apply_p50_ms", "ms"},
	{"gateway.self_commit_p50_ms", "ms"},
	{"gateway.self_read_p50_ms", "ms"},

	{"core.begin_p50_ms", "ms"},
	{"core.invoke_p50_ms", "ms"},
	{"core.apply_p50_ms", "ms"},
	{"core.commit_p50_ms", "ms"},
	{"core.awake_p50_ms", "ms"},
	{"core.snapshot_read_p50_ms", "ms"},
	{"core.invoke_p99_ms", "ms"},
	{"core.commit_p99_ms", "ms"},
	{"core.waits_per_txn", "count"},
	{"core.awake_resumed_pct", "%"},
	{"core.aborts_sleep_conflict", "count"},
	{"core.aborts_deadlock", "count"},
	{"core.aborts_timeout", "count"},
	{"core.reconciled_pct", "%"},
	{"core.monitor_entries_per_task", "count"},

	{"ldbs.sst_p50_ms", "ms"},
	{"ldbs.sst_p99_ms", "ms"},
	{"ldbs.sst_count", "count"},
	{"ldbs.sst_batch_mean", "count"},
	{"ldbs.sst_inflight_max", "count"},
	{"ldbs.sst_errors", "count"},
	{"ldbs.load_p50_ms", "ms"},
	{"ldbs.deadlocks", "count"},

	{"wal.syncs", "count"},
	{"wal.commits_per_sync", "count"},
	{"wal.sync_p50_ms", "ms"},
	{"wal.bytes_per_commit", "B"},

	{"store.apply_p50_ms", "ms"},
	{"store.apply_p99_ms", "ms"},
	{"store.get_p50_ms", "ms"},
	{"store.get_p99_ms", "ms"},
	{"store.gets_per_txn", "count"},
	{"store.cache_hit_ratio", "ratio"},
	{"store.evictions_per_txn", "count"},
	{"store.checkpoint_count", "count"},
	{"store.checkpoint_p50_ms", "ms"},
	{"store.bytes_per_live_byte", "ratio"},

	{"shard.begin_p50_ms", "ms"},
	{"shard.prepare_p50_ms", "ms"},
	{"shard.decide_p50_ms", "ms"},
	{"shard.single_commit_p50_ms", "ms"},
	{"shard.prepare_p99_ms", "ms"},
	{"shard.coord_self_p50_ms", "ms"},
	{"shard.cross_pct", "%"},

	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms_total", "ms"},
	{"go.alloc_bytes_per_task", "B"},
	{"go.goroutines_max", "count"},

	{"abort_pct", "%"},
	{"error_pct", "%"},
	{"gen.late_p99_ms", "ms"},
	{"gen.inflight_max", "count"},
	{"trace.spans", "count"},
	{"trace.overhead_pct", "%"},
}

// layerMetrics derives the per-layer metrics from a traced run; base is the
// untraced run of the same seed, which gives the tracing overhead and the
// generator's figures (the end-to-end open phase is the untraced one).
func layerMetrics(res, base *runResult) map[string]metricValue {
	r := res.rec
	spans := res.spans
	pairs := linkBackend(spans, "gateway.", "core.", map[string]string{"snapshot_read": "read"})
	self := selfTimes(spans, pairs, "gateway.")
	sp := byName(spans)
	p := func(name string, q float64) float64 {
		if st := sp[name]; st != nil {
			return st.p(q)
		}
		return 0
	}
	per := func(n, d float64) float64 {
		if d == 0 {
			return 0
		}
		return n / d
	}
	pct := func(n, d float64) float64 { return 100 * per(n, d) }
	txns := float64(r.txns)
	vals := map[string]float64{
		"core.waits_per_txn":            per(float64(res.mgr.Waits), txns),
		"core.awake_resumed_pct":        pct(float64(res.mgr.Awakes), float64(res.mgr.Awakes+res.mgr.AwakeAborts)),
		"core.aborts_sleep_conflict":    float64(r.abortsBy["sleep-conflict"]),
		"core.aborts_deadlock":          float64(r.abortsBy["deadlock"]),
		"core.aborts_timeout":           float64(r.abortsBy["timeout"]),
		"core.reconciled_pct":           pct(float64(res.mgr.Reconciled), float64(res.mgr.Committed)),
		"core.monitor_entries_per_task": per(float64(res.monitor), float64(r.attempted)),

		"ldbs.sst_count":        float64(sp["ldbs.sst"].n()),
		"ldbs.sst_batch_mean":   per(float64(res.sst.writes), float64(sp["ldbs.sst"].n())),
		"ldbs.sst_inflight_max": float64(res.sst.inflightMax),
		"ldbs.sst_errors":       float64(res.sst.errs),
		"ldbs.deadlocks":        float64(res.db.Deadlocks),

		"wal.syncs":            float64(res.walSyncs),
		"wal.commits_per_sync": per(float64(res.db.Committed), float64(res.walSyncs)),
		"wal.bytes_per_commit": per(float64(res.walBytes), float64(res.db.Committed)),

		"store.gets_per_txn":        per(float64(sp["store.get"].n()), txns),
		"store.cache_hit_ratio":     per(float64(res.store.CacheHits), float64(res.store.CacheHits+res.store.CacheMisses)),
		"store.evictions_per_txn":   per(float64(res.store.Evictions), txns),
		"store.checkpoint_count":    float64(sp["store.checkpoint"].n()),
		"store.bytes_per_live_byte": per(float64(res.storeFileBytes), float64(res.liveB)),

		"shard.coord_self_p50_ms": median(childSelf(spans, "core.commit", "shard.prepare", "shard.decide", "shard.commit")),
		"shard.cross_pct": pct(float64(res.cluster["cluster_cross_commits"]),
			float64(res.cluster["cluster_single_commits"]+res.cluster["cluster_cross_commits"])),

		"go.gc_cycles":            float64(res.goDelta.gcCycles),
		"go.gc_pause_ms_total":    res.goDelta.gcPause * 1e3,
		"go.alloc_bytes_per_task": per(float64(res.goDelta.allocBytes), float64(r.attempted)),
		"go.goroutines_max":       float64(res.goroutPeak),

		"abort_pct":          pct(float64(r.aborts), txns),
		"error_pct":          pct(float64(r.errs), float64(r.attempted)),
		"gen.late_p99_ms":    quantile(base.open.late, 0.99),
		"gen.inflight_max":   float64(base.open.inflightMax),
		"trace.spans":        float64(len(spans)),
		"trace.overhead_pct": pct(base.tasksPerSec()-res.tasksPerSec(), base.tasksPerSec()),
	}
	for _, op := range []string{"begin", "invoke", "apply", "commit", "read", "attach", "detach", "awake"} {
		vals["gateway.rpc_"+op+"_p50_ms"] = p("gateway."+op, 0.5)
	}
	for _, op := range []string{"begin", "invoke", "apply", "commit", "read"} {
		vals["gateway.self_"+op+"_p50_ms"] = median(self[op])
	}
	for _, op := range []string{"begin", "invoke", "apply", "commit", "awake", "snapshot_read"} {
		vals["core."+op+"_p50_ms"] = p("core."+op, 0.5)
	}
	vals["core.invoke_p99_ms"] = p("core.invoke", 0.99)
	vals["core.commit_p99_ms"] = p("core.commit", 0.99)
	vals["ldbs.sst_p50_ms"] = p("ldbs.sst", 0.5)
	vals["ldbs.sst_p99_ms"] = p("ldbs.sst", 0.99)
	vals["ldbs.load_p50_ms"] = p("ldbs.load", 0.5)
	vals["wal.sync_p50_ms"] = p("wal.sync", 0.5)
	vals["store.apply_p50_ms"] = p("store.apply", 0.5)
	vals["store.apply_p99_ms"] = p("store.apply", 0.99)
	vals["store.get_p50_ms"] = p("store.get", 0.5)
	vals["store.get_p99_ms"] = p("store.get", 0.99)
	vals["store.checkpoint_p50_ms"] = p("store.checkpoint", 0.5)
	vals["shard.begin_p50_ms"] = p("shard.begin", 0.5)
	vals["shard.prepare_p50_ms"] = p("shard.prepare", 0.5)
	vals["shard.prepare_p99_ms"] = p("shard.prepare", 0.99)
	vals["shard.decide_p50_ms"] = p("shard.decide", 0.5)
	vals["shard.single_commit_p50_ms"] = p("shard.commit", 0.5)

	out := make(map[string]metricValue, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
	}
	return out
}

// tasksPerSec is the closed phase's successful tasks per second: the
// median over closedWindows equal windows, so one stall in a run moves
// one window, not the figure.
func (res *runResult) tasksPerSec() float64 { return median(res.windowRates()) }

// windowRates is the closed phase's throughput in each window.
func (res *runResult) windowRates() []float64 {
	width := res.closedSecs / closedWindows
	rates := make([]float64, closedWindows)
	for _, at := range res.rec.closedDone {
		if i := int(at / width); i >= 0 && i < closedWindows {
			rates[i]++
		}
	}
	for i := range rates {
		rates[i] /= width
	}
	return rates
}
