package main

// endToEnd measures every end-to-end metric with the benchmark's own
// spans off.
func (r *run) endToEnd() (map[string]float64, error) {
	setupTimes, err := r.startMeasured(setups)
	if err != nil {
		return nil, err
	}
	srv := r.lastServer()
	o := newOps(srv.addr)
	c := newClient(srv.addr)
	defer c.close()
	r.warm(c)
	m := map[string]float64{"setup_s": median(setupTimes)}

	var cyc retrainOut
	var fixed *phase
	if r.w.retrain {
		if cyc, err = r.retrainPhase(c, o, 3, ""); err != nil {
			return nil, err
		}
		fixed = cyc.traffic
	} else {
		fixed = r.fixedPhase(c, r.seconds, "")
		collect(&r.samples, fixed)
	}
	r.count(fixed)
	st := summarize(fixed)
	m["p50_ms"] = st.p(0.5)
	progress("fixed %.0f rps: %d requests, p50 %.3f ms, p99 %.3f ms, late p99 %.3f ms", r.w.rate, st.attempted, m["p50_ms"], st.p(0.99), st.latePct99)

	if r.w.retrain {
		// The cycle traffic straddles generations; check responses from
		// the generation the cycles left serving.
		p := &phase{reqs: r.stream.take(checkRequests), rate: r.w.rate, sample: allSampled(checkRequests)}
		c.run(p)
		r.count(p)
		collect(&r.samples, p)
	}
	version, gen, err := o.activeModel()
	if err != nil {
		return nil, err
	}
	// The peak of the server that carried the traffic, so that memory
	// the serving (or, on retrain, the training) path adds shows.
	if m["rss_mb"], err = srv.vmHWM(); err != nil {
		return nil, err
	}
	srv.shutdown()

	modelPath := r.fx.gen1Path()
	if r.w.retrain {
		modelPath = r.genPath(gen)
	} else if cyc, err = r.idleRetrain(); err != nil {
		return nil, err
	}
	secs := make([]float64, len(cyc.cycles))
	for i, cy := range cyc.cycles {
		secs[i] = cy.seconds
	}
	r.attempted += len(cyc.cycles)
	m["retrain_s"] = median(secs)
	if m["mape_pct"], err = modelMAPE(r.genPath(r.mapeGen), r.pools.mape); err != nil {
		return nil, err
	}
	return m, r.checkOutputs(modelPath, version)
}

// idleRetrain runs idleCycles training cycles on a pipeline server over the
// serve fixture with no other traffic: retrain_s and mape_pct on the
// serve-* workloads.
func (r *run) idleRetrain() (retrainOut, error) {
	srv, err := r.startPipelineServer()
	if err != nil {
		return retrainOut{}, err
	}
	defer srv.shutdown()
	return r.retrainPhase(nil, newOps(srv.addr), idleCycles, "")
}
