package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// ops reads the server's own observability endpoints. Every
// server-side number the benchmark reports comes from /metrics,
// /debug/traces or /v1/models; nothing is added to the program.
type ops struct {
	base string
	hc   *http.Client
}

func newOps(addr string) *ops {
	return &ops{base: "http://" + addr, hc: &http.Client{Timeout: 30 * time.Second}}
}

func (o *ops) get(path, accept string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, o.base+path, nil)
	if err != nil {
		return nil, err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := o.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return raw, nil
}

// prom is one /metrics scrape: sample name{labels} → value.
type prom map[string]float64

// scrape reads /metrics in the Prometheus text format. A scrape whose
// histogram buckets disagree with its _count (a snapshot torn by
// concurrent observations, a known defect of the metrics registry) is
// logged and taken again.
func (o *ops) scrape() (prom, error) {
	var fams []obs.ExpoFamily
	for try := 1; fams == nil; try++ {
		raw, err := o.get("/metrics", "text/plain")
		if err != nil {
			return nil, err
		}
		fams, err = obs.ParseExposition(strings.NewReader(string(raw)))
		if err != nil && try == 5 {
			return nil, fmt.Errorf("parsing /metrics: %w", err)
		}
		if err != nil {
			progress("torn /metrics scrape, retrying: %v", err)
		}
	}
	out := prom{}
	for _, f := range fams {
		for _, s := range f.Samples {
			out[sampleKey(s.Name, s.Labels)] = s.Value
		}
	}
	return out, nil
}

func sampleKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + labels[k]
	}
	return name + "{" + strings.Join(parts, ",") + "}"
}

// delta returns after−before for one sample (missing samples read 0).
func delta(before, after prom, key string) float64 { return after[key] - before[key] }

const metricPrefix = "repro_"

// cycles returns the number of finished training cycles (promoted plus
// rejected) and how many of them promoted.
func (p prom) cycles() (done, promoted float64) {
	promoted = p[metricPrefix+"pipeline_cycles_total{event=promoted}"]
	return promoted + p[metricPrefix+"pipeline_cycles_total{event=rejected}"], promoted
}

// skipped is the number of pipeline ticks that found nothing to train.
func (p prom) skipped() float64 { return p[metricPrefix+"pipeline_cycles_total{event=skipped}"] }

func (o *ops) traces(n int) ([]obs.Trace, error) {
	raw, err := o.get(fmt.Sprintf("/debug/traces?n=%d", n), "")
	if err != nil {
		return nil, err
	}
	var doc struct {
		Traces []obs.Trace `json:"traces"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("decoding /debug/traces: %w", err)
	}
	return doc.Traces, nil
}

// activeModel returns the served entry's registry version and pipeline
// generation from /v1/models.
func (o *ops) activeModel() (version, generation int, err error) {
	raw, err := o.get("/v1/models", "")
	if err != nil {
		return 0, 0, err
	}
	var doc struct {
		Models []struct {
			Name       string `json:"name"`
			Version    int    `json:"version"`
			Generation int    `json:"generation"`
		} `json:"models"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return 0, 0, fmt.Errorf("decoding /v1/models: %w", err)
	}
	for _, m := range doc.Models {
		if m.Name == appName {
			return m.Version, m.Generation, nil
		}
	}
	return 0, 0, fmt.Errorf("model %q not served", appName)
}
