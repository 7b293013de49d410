package main

// metricDef is one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds (TestManifestMatchesTables keeps
// them in step); this table also records what each metric measures
// and, for a per-layer metric, which end-to-end metric on which
// workload it should move, so a later change can cite both by name.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
	what   string
	moves  string // per-layer only
}

var endToEndMetrics = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25,
		what: "median of 3 server starts: process start until /healthz returns 200 (model load and compile; InstallActive on retrain)"},
	{name: "rss_mb", unit: "MiB", better: "lower", bound: 0.25,
		what: "peak RSS (VmHWM) of the server that carried the measured traffic, read before it is stopped"},
	{name: "p50_ms", unit: "ms", better: "lower", bound: 0.25,
		what: "median /v1/predict latency at the fixed rate, timed from each request's due time"},
	{name: "retrain_s", unit: "s", better: "lower", bound: 0.25,
		what: "median over cycles of: records durably appended within 100 ms after a pipeline tick until the outcome shows in pipeline_cycles_total (polled every 100 ms); serve-*: 2 cycles on an idle pipeline server over the serve fixture"},
	{name: "mape_pct", unit: "%", better: "lower", bound: 0.15,
		what: "MAPE at scales 128-1024 for 2048 held-out configurations against noise-free hpcsim, of the generation served after the first retrain cycle; computed with core from its file after the traffic, as served predictions equal core's bit for bit"},
}

var perLayerMetrics = []metricDef{
	{name: "core.predict_small_us", unit: "us", better: "lower", what: "PredictSmallInto, median per configuration", moves: "p50_ms, max_rps on serve-cold; none on serve-hot"},
	{name: "treec.forest_predict_ns", unit: "ns", better: "lower", what: "compiled forest Predict for one small scale, median", moves: "p50_ms, max_rps on serve-cold; none on serve-hot"},
	{name: "core.predict_from_curve_us", unit: "us", better: "lower", what: "PredictFromCurveInto (cluster assign + lasso), median", moves: "p50_ms on serve-cold"},
	{name: "core.interval_us", unit: "us", better: "lower", what: "PredictIntervalCov at 0.9, median", moves: "p50_ms on serve-cold"},
	{name: "serving.total_us", unit: "us", better: "lower", what: "server trace total per request, median", moves: "p50_ms, max_rps on serve-hot; on serve-cold by share"},
	{name: "serving.compute_us", unit: "us", better: "lower", what: "compute span, median", moves: "p50_ms, max_rps on serve-hot; on serve-cold by share"},
	{name: "cache.lookup_us", unit: "us", better: "lower", what: "cache_lookup span minus its nested model spans, median", moves: "p50_ms, max_rps on serve-hot"},
	{name: "core.model_eval_us", unit: "us", better: "lower", what: "model_eval span, median over requests that have one (0: none)", moves: "p50_ms, max_rps on serve-cold; absent on serve-hot"},
	{name: "uncertainty.calibration_us", unit: "us", better: "lower", what: "calibration span, median over interval requests that computed one", moves: "p50_ms on serve-cold"},
	{name: "loadctl.queue_wait_us", unit: "us", better: "lower", what: "queue_wait span, mean per request (0 when never queued)", moves: "p99_ms, max_rps on every workload"},
	{name: "serving.other_us", unit: "us", better: "lower", what: "total - compute - queue_wait (decode, admission, encode), median", moves: "p50_ms, max_rps on serve-hot; on serve-cold by share"},
	{name: "net.gap_us", unit: "us", better: "lower", what: "client send-to-read time minus server total, median", moves: "p50_ms, max_rps on serve-hot"},
	{name: "serving.servehttp_us", unit: "us", better: "lower", what: "Handler().ServeHTTP in-process with no socket, workload's requests, median", moves: "p50_ms, max_rps on serve-hot; on serve-cold by share"},
	{name: "serving.cache_hit_ns", unit: "ns", better: "lower", what: "Cache.DoBytes hit, mean over 100k", moves: "p50_ms, max_rps on serve-hot"},
	{name: "loadctl.acquire_release_ns", unit: "ns", better: "lower", what: "Controller Acquire+Release with a free slot, mean over 100k", moves: "p50_ms, max_rps on serve-hot"},
	{name: "cache.hit_ratio", unit: "ratio", better: "higher", what: "/metrics hits/(hits+misses) over the measured traffic", moves: "~0 on serve-cold, ~1 on serve-hot; turnover after promotions on retrain"},
	{name: "cache.evictions", unit: "count", better: "lower", what: "/metrics eviction delta over the measured traffic", moves: "p50_ms on serve-cold and retrain"},
	{name: "cache.coalesced", unit: "count", better: "higher", what: "/metrics coalesced-lookup delta over the measured traffic", moves: "p50_ms on serve-hot"},
	{name: "pipeline.fit_s", unit: "s", better: "lower", what: "fit stage per cycle (pipeline_stage_duration_seconds delta)", moves: "retrain_s, p99_ms on retrain; none on serve-*"},
	{name: "pipeline.calibrate_s", unit: "s", better: "lower", what: "calibrate stage per cycle", moves: "retrain_s on retrain"},
	{name: "pipeline.gate_s", unit: "s", better: "lower", what: "gate stage per cycle", moves: "retrain_s on retrain"},
	{name: "pipeline.promote_s", unit: "s", better: "lower", what: "promote stage per cycle (0 for rejected cycles)", moves: "retrain_s on retrain"},
	{name: "pipeline.promoted_frac", unit: "ratio", better: "higher", what: "promoted cycles / cycles", moves: "mape_pct on retrain"},
	{name: "pipeline.tick_wait_s", unit: "s", better: "lower", what: "mean retrain time minus the four stages: tick wait, store refresh, install", moves: "retrain_s on retrain"},
	{name: "pipeline.store_refresh_ms", unit: "ms", better: "lower", what: "Store.Refresh of the fixture store, median of 3", moves: "retrain_s, p99_ms on retrain"},
	{name: "pipeline.store_append_us", unit: "us", better: "lower", what: "Store.Append of one record with fsync, median", moves: "retrain_s on retrain"},
	{name: "pipeline.table_hash_ms", unit: "ms", better: "lower", what: "TableHash of the fixture table, median of 3", moves: "retrain_s on retrain"},
	{name: "forest.fit_s", unit: "s", better: "lower", what: "forest.Fit for one small scale of the training split", moves: "retrain_s, p99_ms on retrain"},
	{name: "core.fit_s", unit: "s", better: "lower", what: "core.Fit on the training split", moves: "retrain_s, p99_ms on retrain"},
	{name: "cluster.kmeans_ms", unit: "ms", better: "lower", what: "KMeans k=3 on the anchors' normalized curves, median of 5", moves: "retrain_s on retrain"},
	{name: "linmod.cv_multitask_ms", unit: "ms", better: "lower", what: "CVMultiTaskLasso on all anchors (4 folds, 12 lambdas), median of 3", moves: "retrain_s on retrain"},
	{name: "pipeline.evaluate_gate_ms", unit: "ms", better: "lower", what: "EvaluateGate of the fixture model against itself on the holdout, median of 3", moves: "retrain_s on retrain"},
	{name: "core.save_s", unit: "s", better: "lower", what: "TwoLevelModel.Save of the fixture model", moves: "retrain_s on retrain"},
	{name: "core.load_s", unit: "s", better: "lower", what: "core.Load of the fixture model", moves: "setup_s, rss_mb on every workload"},
	{name: "core.compile_ms", unit: "ms", better: "lower", what: "TwoLevelModel.Compile of the fixture model", moves: "setup_s on every workload"},
	{name: "max_rps", unit: "1/s", better: "higher", what: "highest offered rate the server keeps up with behind 2 connections: a 1.5 s step per rate of a x1.2 sweep, backlog growth fitted monotone in rate, capacity r/(1+g/(2T/3)) from the first step growing over 5 ms; retrain: after the cycles; not gated: it moved by +-25% between runs", moves: "capacity on serve-cold and serve-hot; on retrain, with the pipeline ticking"},
	{name: "p99_ms", unit: "ms", better: "lower", what: "99th-percentile /v1/predict latency at the fixed rate from due time; serve-*: the untraced server of the tracing-overhead comparison; retrain: the traffic beside the cycles; not gated: stalls of the virtual CPUs move it severalfold between runs", moves: "tail of p50_ms on every workload; on retrain, fit and promotion stalls"},
	{name: "client.late_p99_ms", unit: "ms", better: "lower", what: "p99 of how late the generator sent requests that found a free connection, untraced server of the overhead comparison", moves: "validity: load is as offered"},
	{name: "client.conn_wait_ms", unit: "ms", better: "lower", what: "p99 of the wait for one of the 2 connections, untraced server of the overhead comparison", moves: "validity: p99_ms is not the generator's"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower", what: "fixed-rate p50 of a server with the traced run's flags (trace ring of 65536, request IDs sent) over one with the untraced runs' flags, in alternating phases, minus 100", moves: "validity"},
	{name: "bench.accounted_frac", unit: "ratio", better: "higher", what: "median per request of (queue_wait + compute + net gap) over client p50", moves: "validity: the performance ledger targets >= 0.9"},
}
