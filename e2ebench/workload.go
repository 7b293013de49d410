package main

import (
	"fmt"
	"strconv"

	"repro/internal/dataset"
	"repro/internal/hpcsim"
	"repro/internal/rng"
)

// kind is a /v1/predict request shape.
type kind uint8

const (
	kindPoint    kind = iota // one configuration, every large scale
	kindInterval             // one configuration plus a 0.9-coverage interval
	kindBatch                // hotBatch configurations, point predictions
)

const (
	hotConfigs  = 64 // distinct configurations in serve-hot, far below the 4096-entry cache
	hotBatch    = 32
	mapeConfigs = 2048 // held-out configurations mape_pct is measured on
)

// request is one pre-encoded /v1/predict call and what it asked for.
type request struct {
	kind kind
	cfgs [][]float64
	body []byte
}

// workload is one traffic mix against one fixture. BENCHMARK.json
// carries the name and why; the rate, mix and fixture size are
// recorded only here, as its fixed schema has no place for them.
type workload struct {
	name    string
	why     string
	mix     string
	fixture fixtureSpec
	// rate is the fixed offered rate (requests/s) p50_ms and p99_ms are
	// measured at; searchFrom seeds the max_rps search.
	rate       float64
	searchFrom float64
	// retrain runs retrain cycles under traffic at rate; otherwise
	// idleCycles run on an idle server after the serving phases.
	retrain bool
	hot     bool
}

var (
	serveFixture   = fixtureSpec{name: "serve", configs: 1250, anchors: 125}
	retrainFixture = fixtureSpec{name: "retrain", configs: 2000, anchors: 200}
)

var workloads = []workload{
	{
		name:       "serve-cold",
		why:        "80% point/20% interval(0.9) over distinct smg2000 configs, ~no cache hits, 500 rps; model fit on 1000 configs so forests exceed L2: loads treec, cluster, linmod, uncertainty",
		mix:        "0.8 point, 0.2 interval(0.9); every configuration distinct (pool of ~63k, cache 4096)",
		fixture:    serveFixture,
		rate:       500,
		searchFrom: 1500,
	},
	{
		name:       "serve-hot",
		why:        "point 0.6/interval 0.1/batch(32) 0.3 over 64 configs, all cache hits after warm-up, 3000 rps: bypasses the model, loads HTTP codec, loadctl, cache and batch path",
		mix:        "0.6 point, 0.1 interval(0.9), 0.3 batch of 32; 64 distinct configurations",
		fixture:    serveFixture,
		rate:       3000,
		searchFrom: 6000,
		hot:        true,
	},
	{
		name:       "retrain",
		why:        "retrain cycles on a 2000-config store (10 new configs each) under 300 rps serve-cold traffic: fit, store, save and hot-swap beside the read path",
		mix:        "serve-cold mix at 300 rps while the embedded pipeline retrains; 10 new configurations (3 anchors) per cycle",
		fixture:    retrainFixture,
		rate:       300,
		searchFrom: 1000,
		retrain:    true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// pools partitions the application's configuration space, shuffled by
// the run's seed, into disjoint sets: configurations held out for
// mape_pct, configurations appended by retrain cycles, and request
// traffic. Configurations in the fixture history are excluded from all
// three.
type pools struct {
	mape    [][]float64
	batches [][]float64
	traffic [][]float64
}

func newPools(seed uint64, history [][]float64) pools {
	seen := map[string]bool{}
	for _, c := range history {
		seen[configKey(c)] = true
	}
	all := enumerate(hpcsim.NewSMG().Space())
	r := rng.New(seed)
	var free [][]float64
	for _, i := range r.Perm(len(all)) {
		if !seen[configKey(all[i])] {
			free = append(free, all[i])
		}
	}
	const maxBatchConfigs = 100 * newConfigs
	return pools{
		mape:    free[:mapeConfigs],
		batches: free[mapeConfigs : mapeConfigs+maxBatchConfigs],
		traffic: free[mapeConfigs+maxBatchConfigs:],
	}
}

// enumerate lists every point of a discrete space in lexicographic order.
func enumerate(sp dataset.Space) [][]float64 {
	out := [][]float64{nil}
	for _, p := range sp.Params {
		next := make([][]float64, 0, len(out)*len(p.Values))
		for _, prefix := range out {
			for _, v := range p.Values {
				next = append(next, append(append([]float64(nil), prefix...), v))
			}
		}
		out = next
	}
	return out
}

func configKey(c []float64) string {
	b := make([]byte, 0, 32)
	for _, v := range c {
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
		b = append(b, ',')
	}
	return string(b)
}

// stream yields a workload's requests in a fixed order determined by
// the seed: the same seed gives the same requests.
type stream struct {
	w      workload
	r      *rng.Source
	pool   [][]float64 // serve-cold/retrain: distinct configurations, consumed in order
	cursor int
	hot    [][]float64
}

func newStream(w workload, seed uint64, p pools) *stream {
	s := &stream{w: w, r: rng.NewStream(seed, 1), pool: p.traffic}
	if w.hot {
		s.hot = p.traffic[:hotConfigs]
	}
	return s
}

func (s *stream) nextConfig() []float64 {
	c := s.pool[s.cursor%len(s.pool)]
	s.cursor++
	return c
}

// next returns the stream's next request.
func (s *stream) next() request {
	if !s.w.hot {
		if s.r.Float64() < 0.2 {
			return newRequest(kindInterval, [][]float64{s.nextConfig()})
		}
		return newRequest(kindPoint, [][]float64{s.nextConfig()})
	}
	u := s.r.Float64()
	switch {
	case u < 0.6:
		return newRequest(kindPoint, [][]float64{s.hot[s.r.Intn(len(s.hot))]})
	case u < 0.7:
		return newRequest(kindInterval, [][]float64{s.hot[s.r.Intn(len(s.hot))]})
	default:
		idx := s.r.Sample(len(s.hot), hotBatch)
		cfgs := make([][]float64, len(idx))
		for i, j := range idx {
			cfgs[i] = s.hot[j]
		}
		return newRequest(kindBatch, cfgs)
	}
}

// take returns the next n requests.
func (s *stream) take(n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// warmup returns requests that fill the cache with every serve-hot
// configuration, in both single shapes; batches hit the point entries.
func (s *stream) warmup() []request {
	var out []request
	for _, c := range s.hot {
		out = append(out, newRequest(kindPoint, [][]float64{c}), newRequest(kindInterval, [][]float64{c}))
	}
	return out
}

// newRequest encodes a /v1/predict body.
func newRequest(k kind, cfgs [][]float64) request {
	b := make([]byte, 0, 64+40*len(cfgs))
	b = append(b, `{"model":"`+appName+`",`...)
	if k == kindBatch {
		b = append(b, `"configs":[`...)
		for i, c := range cfgs {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendVector(b, c)
		}
		b = append(b, ']')
	} else {
		b = append(b, `"params":`...)
		b = appendVector(b, cfgs[0])
	}
	if k == kindInterval {
		b = append(b, fmt.Sprintf(`,"interval":%g`, coverage)...)
	}
	b = append(b, '}')
	return request{kind: k, cfgs: cfgs, body: b}
}

func appendVector(b []byte, v []float64) []byte {
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, x, 'g', -1, 64)
	}
	return append(b, ']')
}
