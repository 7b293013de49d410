package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/linmod"
	"repro/internal/loadctl"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/serving"
	"repro/internal/treec"
)

// abPairs is how many pairs of phases the tracing-overhead comparison
// alternates between its two servers.
const abPairs = 4

// perLayer is the traced run: the same fixture and request stream, with
// request IDs joined to the server's /debug/traces spans, /metrics
// deltas, and timed calls into the public functions of each layer.
func (r *run) perLayer() (map[string]float64, error) {
	if _, err := r.startMeasured(1); err != nil {
		return nil, err
	}
	srv := r.lastServer()
	o := newOps(srv.addr)
	c := newClient(srv.addr)
	defer c.close()
	r.warm(c)

	m := map[string]float64{}
	before, err := o.scrape()
	if err != nil {
		return nil, err
	}
	// Cache and span figures come from the fixed-rate traffic, on
	// retrain the traffic that runs beside the cycles.
	var joined *phase
	cyc := retrainOut{}
	if r.w.retrain {
		if cyc, err = r.retrainPhase(c, o, 3, "c"); err != nil {
			return nil, err
		}
		joined = cyc.traffic
		m["p99_ms"] = summarize(joined).p(0.99)
	} else {
		joined = r.fixedPhase(c, r.seconds, "t")
		collect(&r.samples, joined)
	}
	r.count(joined)
	after, err := o.scrape()
	if err != nil {
		return nil, err
	}
	hits := delta(before, after, metricPrefix+"cache_hits_total")
	misses := delta(before, after, metricPrefix+"cache_misses_total")
	m["cache.hit_ratio"] = hits / math.Max(1, hits+misses)
	m["cache.evictions"] = delta(before, after, metricPrefix+"cache_evictions_total")
	m["cache.coalesced"] = delta(before, after, metricPrefix+"cache_coalesced_total")

	traces, err := o.traces(traceCapacity)
	if err != nil {
		return nil, err
	}
	joinSpans(m, traces, joined)
	// The sweep runs last on this server: its requests would push the
	// traced ones out of the trace ring. On retrain it follows the
	// cycles, so its responses come from later generations than the one
	// the output check loads.
	if m["max_rps"], err = r.maxRPS(c, !r.w.retrain); err != nil {
		return nil, err
	}
	srv.shutdown()

	pipeBefore, pipeAfter := before, after
	if !r.w.retrain {
		psrv, err := r.startPipelineServer()
		if err != nil {
			return nil, err
		}
		po := newOps(psrv.addr)
		if pipeBefore, err = po.scrape(); err != nil {
			return nil, err
		}
		if cyc, err = r.retrainPhase(nil, po, idleCycles, ""); err != nil {
			return nil, err
		}
		if pipeAfter, err = po.scrape(); err != nil {
			return nil, err
		}
		psrv.shutdown()
	}
	r.attempted += len(cyc.cycles)
	pipelineStages(m, pipeBefore, pipeAfter, cyc.cycles)

	version, err := r.traceOverhead(m)
	if err != nil {
		return nil, err
	}
	if err := r.inProcess(m); err != nil {
		return nil, err
	}
	return m, r.checkOutputs(r.fx.gen1Path(), version)
}

// traceOverhead compares two servers on the fixture's generation 1: one
// started with the traced run's flags and sent request IDs, as the
// traced run does, and one started and driven as in the untraced runs.
// Both are up at once and take the workload's fixed rate in alternating
// phases, one server at a time over at most conns connections. It
// reports the traced p50 over the untraced one, and the untraced
// phases' tail and generator figures (p99_ms too on serve-*, whose
// traced run has no untraced traffic otherwise). It returns the
// servers' registry version for the output check.
func (r *run) traceOverhead(m map[string]float64) (int, error) {
	var srvs [2]*server // untraced, traced
	for i := range srvs {
		srv, err := r.startModelServer(i == 1)
		if err != nil {
			return 0, err
		}
		defer srv.shutdown()
		srvs[i] = srv
		c := newClient(srv.addr)
		r.warm(c)
		c.close()
	}
	version, _, err := newOps(srvs[0].addr).activeModel()
	if err != nil {
		return 0, err
	}
	var phases [2][]*phase
	half := r.seconds / (2 * abPairs)
	for k := 0; k < abPairs; k++ {
		for _, i := range []int{k % 2, 1 - k%2} {
			id := ""
			if i == 1 {
				id = fmt.Sprintf("o%d", k)
			}
			c := newClient(srvs[i].addr)
			p := r.fixedPhase(c, half, id)
			c.close()
			r.count(p)
			collect(&r.samples, p)
			phases[i] = append(phases[i], p)
		}
	}
	u, t := summarize(merge(phases[0])), summarize(merge(phases[1]))
	m["bench.trace_overhead_pct"] = 100 * (t.p(0.5)/u.p(0.5) - 1)
	if !r.w.retrain {
		m["p99_ms"] = u.p(0.99)
	}
	m["client.late_p99_ms"] = u.latePct99
	m["client.conn_wait_ms"] = u.connWaitP99
	return version, nil
}

// maxRPS runs the capacity sweep with the workload's request stream.
// With check, its sampled responses join the output check, which
// compares them with the fixture's generation 1.
func (r *run) maxRPS(c *client, check bool) (float64, error) {
	return searchMaxRPS(c, r.stream, r.w.searchFrom, searchStep, r.samplePlan, func(p *phase) {
		if check {
			collect(&r.samples, p)
		}
	})
}

// merge concatenates phases for summarizing; timelines stay relative to
// each phase's own start.
func merge(ps []*phase) *phase {
	out := &phase{}
	for _, p := range ps {
		out.out = append(out.out, p.out...)
		out.reqs = append(out.reqs, p.reqs...)
	}
	return out
}

// joinSpans matches the traced requests to the server's traces by
// X-Request-Id and reports the per-layer split of request time.
func joinSpans(m map[string]float64, traces []obs.Trace, p *phase) {
	byID := make(map[string]*obs.Trace, len(traces))
	for i := range traces {
		byID[traces[i].ID] = &traces[i]
	}
	var total, compute, lookup, eval, calib, queue, other, gap, accounted, client []float64
	for i := range p.out {
		o := &p.out[i]
		tr := byID[o.id]
		if !o.ok || tr == nil {
			continue
		}
		var sp struct{ compute, lookup, eval, calib, queue int64 }
		for _, s := range tr.Spans {
			switch s.Name {
			case "compute":
				sp.compute += s.DurNS
			case "cache_lookup":
				sp.lookup += s.DurNS
			case "model_eval":
				sp.eval += s.DurNS
			case "calibration":
				sp.calib += s.DurNS
			case "queue_wait":
				sp.queue += s.DurNS
			}
		}
		us := func(ns int64) float64 { return float64(ns) / 1e3 }
		total = append(total, us(tr.TotalNS))
		compute = append(compute, us(sp.compute))
		if sp.lookup > 0 {
			lookup = append(lookup, us(sp.lookup-sp.eval-sp.calib))
		}
		if sp.eval > 0 {
			eval = append(eval, us(sp.eval))
		}
		if sp.calib > 0 {
			calib = append(calib, us(sp.calib))
		}
		queue = append(queue, us(sp.queue))
		other = append(other, us(tr.TotalNS-sp.compute-sp.queue))
		g := us(int64(o.end-o.start) - tr.TotalNS)
		gap = append(gap, g)
		accounted = append(accounted, us(sp.queue+sp.compute)+g)
		client = append(client, float64(o.latency())/1e3)
	}
	progress("joined %d of %d traced requests to server traces", len(total), len(p.out))
	m["serving.total_us"] = median(total)
	m["serving.compute_us"] = median(compute)
	m["cache.lookup_us"] = median(lookup)
	m["core.model_eval_us"] = median(eval)
	m["uncertainty.calibration_us"] = median(calib)
	m["loadctl.queue_wait_us"] = mean(queue)
	m["serving.other_us"] = median(other)
	m["net.gap_us"] = median(gap)
	m["bench.accounted_frac"] = median(accounted) / math.Max(1e-9, median(client))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// pipelineStages reports the training-cycle split from the
// pipeline_stage_duration_seconds and pipeline_cycles_total deltas.
func pipelineStages(m map[string]float64, before, after prom, cycles []cycleResult) {
	n := float64(len(cycles))
	if n == 0 {
		return
	}
	var stages, retrain float64
	for _, st := range []string{"fit", "calibrate", "gate", "promote"} {
		v := delta(before, after, metricPrefix+"pipeline_stage_duration_seconds_sum{stage="+st+"}") / n
		m["pipeline."+st+"_s"] = v
		stages += v
	}
	promoted := 0.0
	for _, c := range cycles {
		retrain += c.seconds
		if c.promoted {
			promoted++
		}
	}
	m["pipeline.promoted_frac"] = promoted / n
	m["pipeline.tick_wait_s"] = retrain/n - stages
}

// inProcess times calls into each layer's public functions on the
// workload's fixture, in this process, after the servers have stopped.
func (r *run) inProcess(m map[string]float64) error {
	sw := obs.Start()
	model, err := core.Load(r.fx.gen1Path())
	if err != nil {
		return err
	}
	m["core.load_s"] = sw.Elapsed().Seconds()
	sw = obs.Start()
	model.Compile()
	m["core.compile_ms"] = ms(sw.Elapsed())

	cfgs := r.pools.traffic[len(r.pools.traffic)-2000:]
	small := make([]float64, len(smallScales))
	out := make([]float64, len(largeScales))
	m["core.predict_small_us"] = perCall(len(cfgs), func(i int) { model.PredictSmallInto(cfgs[i], small) }) / 1e3
	f := treec.CompileForest(model.Interp[0])
	m["treec.forest_predict_ns"] = perCall(len(cfgs), func(i int) { f.Predict(cfgs[i]) })
	curves := make([][]float64, len(cfgs))
	for i, c := range cfgs {
		curves[i] = model.PredictSmall(c)
	}
	m["core.predict_from_curve_us"] = perCall(len(cfgs), func(i int) { model.PredictFromCurveInto(curves[i], out) }) / 1e3
	m["core.interval_us"] = perCall(500, func(i int) { model.PredictIntervalCov(cfgs[i], coverage) }) / 1e3

	if m["serving.servehttp_us"], err = r.serveHTTP(model); err != nil {
		return err
	}
	cache := serving.NewCache(serving.DefaultCacheSize)
	key := []byte(appName + "@1|at=0|q=0|64,64,64,6")
	fill := func() (any, error) { return 1, nil }
	ctx := context.Background()
	if _, _, err := cache.DoBytes(ctx, key, fill); err != nil {
		return err
	}
	m["serving.cache_hit_ns"] = perBatch(100000, func() { _, _, _ = cache.DoBytes(ctx, key, fill) })
	ctl := loadctl.New(loadctl.Config{})
	m["loadctl.acquire_release_ns"] = perBatch(100000, func() {
		if w, shed := ctl.Acquire(loadctl.Point, 0); shed == nil {
			if w != nil {
				_ = w.Wait(ctx) // no budget: a queued request waits until admitted
			}
			ctl.Release(time.Microsecond)
		}
	})

	if err := r.pipelineLayers(m, model); err != nil {
		return err
	}
	return nil
}

// serveHTTP replays the workload's requests through the serving
// handler in-process (no socket) and returns the median per request.
func (r *run) serveHTTP(model *core.TwoLevelModel) (float64, error) {
	reg := serving.NewRegistry()
	reg.Install(appName, model)
	h := serving.New(reg, serving.Options{CacheSize: serving.DefaultCacheSize}).Handler()
	do := func(q request) (time.Duration, error) {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(q.body))
		rec := httptest.NewRecorder()
		sw := obs.Start()
		h.ServeHTTP(rec, req)
		d := sw.Elapsed()
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("in-process predict: status %d: %s", rec.Code, rec.Body.String())
		}
		return d, nil
	}
	if r.w.hot {
		for _, q := range r.stream.warmup() {
			if _, err := do(q); err != nil {
				return 0, err
			}
		}
	}
	var us []float64
	for _, q := range r.stream.take(2000) {
		d, err := do(q)
		if err != nil {
			return 0, err
		}
		us = append(us, float64(d)/1e3)
	}
	return median(us), nil
}

// pipelineLayers times the training path's public functions on a
// private copy of the fixture store.
func (r *run) pipelineLayers(m map[string]float64, model *core.TwoLevelModel) error {
	dir := filepath.Join(r.tmp, "layers")
	if err := copyTree(r.fx.storeDir(), filepath.Join(dir, "store")); err != nil {
		return err
	}
	st, err := pipeline.OpenStore(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	if m["pipeline.store_refresh_ms"], err = medianOf(3, st.Refresh); err != nil {
		return err
	}
	names, _ := st.ParamNames(appName)
	recs, err := newRecords(r.pools.batches[len(r.pools.batches)-newConfigs:])
	if err != nil {
		return err
	}
	var appendUS []float64
	for _, rec := range recs {
		sw := obs.Start()
		if _, err := st.Append(names, rec); err != nil {
			return err
		}
		appendUS = append(appendUS, float64(sw.Elapsed())/1e3)
	}
	m["pipeline.store_append_us"] = median(appendUS)

	table, ok := st.Table(appName)
	if !ok {
		return fmt.Errorf("store copy has no %s partition", appName)
	}
	m["pipeline.table_hash_ms"] = medianMS(3, func() { pipeline.TableHash(table) })
	train, holdout := pipeline.SplitHoldout(table, holdoutDenom)

	cfg := core.DefaultConfig()
	x, y := train.FilterScale(smallScales[0]).XY()
	for i := range y {
		y[i] = math.Log(y[i])
	}
	sw := obs.Start()
	forest.Fit(x, y, cfg.Forest, rng.New(1))
	m["forest.fit_s"] = sw.Elapsed().Seconds()
	sw = obs.Start()
	if _, err := core.Fit(rng.New(1), train, cfg); err != nil {
		return err
	}
	m["core.fit_s"] = sw.Elapsed().Seconds()

	// The extrapolation level's inputs, built as core.Fit builds them:
	// predicted small-scale curves of the anchor configurations and their
	// measured large-scale runtimes.
	var feat, targ [][]float64
	for _, g := range train.GroupByConfig() {
		if large, ok := g.Curve(largeScales); ok {
			feat = append(feat, model.PredictSmall(g.Params))
			targ = append(targ, large)
		}
	}
	fx, fy := mat.FromRows(feat), mat.FromRows(targ)
	shapes := cluster.NormalizeCurves(fx)
	m["cluster.kmeans_ms"] = medianMS(5, func() { cluster.KMeans(rng.New(1), shapes, cfg.Clusters, cluster.Options{}) })
	for _, d := range [][]float64{fx.Data, fy.Data} {
		for i := range d {
			d[i] = math.Log(d[i])
		}
	}
	m["linmod.cv_multitask_ms"] = medianMS(3, func() {
		linmod.CVMultiTaskLasso(rng.New(1), fx, fy, cfg.CVFolds, cfg.CVLambdas, cfg.Lasso)
	})
	gate := pipeline.GateConfig{HoldoutDenominator: holdoutDenom, AllowedRegression: gateSlack}
	m["pipeline.evaluate_gate_ms"] = medianMS(3, func() {
		pipeline.EvaluateGate(model, model, holdout, largeScales, gate)
	})
	sw = obs.Start()
	if err := model.Save(filepath.Join(dir, "model.json")); err != nil {
		return err
	}
	m["core.save_s"] = sw.Elapsed().Seconds()
	return nil
}

// perCall times fn(i) for i in [0, n) one call at a time and returns the
// median in nanoseconds.
func perCall(n int, fn func(i int)) float64 {
	ns := make([]float64, n)
	for i := range ns {
		sw := obs.Start()
		fn(i)
		ns[i] = float64(sw.Elapsed())
	}
	sort.Float64s(ns)
	return quantile(ns, 0.5)
}

// perBatch returns the mean nanoseconds per call of fn over n calls,
// for operations too short to time one at a time; the median of 5
// batches.
func perBatch(n int, fn func()) float64 {
	var per []float64
	for b := 0; b < 5; b++ {
		sw := obs.Start()
		for i := 0; i < n; i++ {
			fn()
		}
		per = append(per, float64(sw.Elapsed())/float64(n))
	}
	return median(per)
}

// medianOf returns the median milliseconds of k runs of fn, stopping
// at the first error.
func medianOf(k int, fn func() error) (float64, error) {
	var out []float64
	for i := 0; i < k; i++ {
		sw := obs.Start()
		if err := fn(); err != nil {
			return 0, err
		}
		out = append(out, ms(sw.Elapsed()))
	}
	return median(out), nil
}

// medianMS is medianOf for functions that cannot fail.
func medianMS(k int, fn func()) float64 {
	v, _ := medianOf(k, func() error { fn(); return nil }) // fn returns no error
	return v
}
