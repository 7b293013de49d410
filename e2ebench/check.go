package main

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/serving"
)

// sampled is one response kept for the output check.
type sampled struct {
	req  request
	body []byte
}

// collect keeps the sampled responses of a finished phase.
func collect(dst *[]sampled, p *phase) {
	for i := range p.out {
		if p.out[i].body != nil {
			*dst = append(*dst, sampled{req: p.reqs[i], body: p.out[i].body})
		}
	}
}

// checker compares served responses bit for bit with predictions
// computed in this process from the same model file.
type checker struct {
	m          *core.TwoLevelModel
	version    int // required registry version; 0 accepts any
	checked    int
	mismatched int
	first      string
}

func (c *checker) check(s sampled) {
	c.checked++
	if err := c.compare(s); err != nil {
		c.mismatched++
		if c.first == "" {
			c.first = err.Error()
		}
	}
}

func (c *checker) compare(s sampled) error {
	var resp serving.PredictResponse
	if err := json.Unmarshal(s.body, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if c.version != 0 && resp.Version != c.version {
		return fmt.Errorf("served version %d, want %d", resp.Version, c.version)
	}
	if len(resp.Results) != len(s.req.cfgs) {
		return fmt.Errorf("%d results for %d configurations", len(resp.Results), len(s.req.cfgs))
	}
	for i, cfg := range s.req.cfgs {
		r := resp.Results[i]
		if !sameBits(r.Params, cfg) {
			return fmt.Errorf("result %d params %v, want %v", i, r.Params, cfg)
		}
		if want := c.m.AssignCluster(cfg); r.Cluster != want {
			return fmt.Errorf("config %v: cluster %d, want %d", cfg, r.Cluster, want)
		}
		if len(r.Scales) != len(largeScales) {
			return fmt.Errorf("config %v: scales %v", cfg, r.Scales)
		}
		for j, sc := range largeScales {
			if r.Scales[j] != sc {
				return fmt.Errorf("config %v: scales %v", cfg, r.Scales)
			}
		}
		if want := c.m.Predict(cfg); !sameBits(r.Runtimes, want) {
			return fmt.Errorf("config %v: runtimes %v, want %v", cfg, r.Runtimes, want)
		}
		var want []core.Interval
		if s.req.kind == kindInterval {
			want = c.m.PredictIntervalCov(cfg, coverage)
		}
		if len(r.Intervals) != len(want) {
			return fmt.Errorf("config %v: %d intervals, want %d", cfg, len(r.Intervals), len(want))
		}
		for j, iv := range want {
			got := r.Intervals[j]
			if got.Scale != iv.Scale || got.Source != iv.Source ||
				!sameBits([]float64{got.Lo, got.Mid, got.Hi}, []float64{iv.Lo, iv.Mid, iv.Hi}) {
				return fmt.Errorf("config %v: interval %+v, want %+v", cfg, got, iv)
			}
		}
	}
	return nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// modelMAPE is the mean absolute percentage error of the predictions
// of the model file at path for cfgs at every large scale against the
// simulator's noise-free runtimes. It is computed in this process, after
// the measured traffic, rather than by querying the server: the output
// check shows that served predictions equal core's bit for bit.
func modelMAPE(path string, cfgs [][]float64) (float64, error) {
	m, err := core.Load(path)
	if err != nil {
		return 0, err
	}
	m.Compile()
	var sum float64
	n := 0
	for _, cfg := range cfgs {
		want, err := truth(cfg)
		if err != nil {
			return 0, err
		}
		got := m.Predict(cfg)
		if len(got) != len(want) {
			return 0, fmt.Errorf("%d runtimes, want %d", len(got), len(want))
		}
		for j, w := range want {
			sum += math.Abs(got[j]-w) / w
			n++
		}
	}
	return 100 * sum / float64(n), nil
}
