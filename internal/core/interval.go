package core

import (
	"fmt"
	"math"
)

// Interval sources: how a band's width was derived.
const (
	// IntervalConformal marks a band from split-conformal calibration on
	// the pipeline's holdout slice — it carries a finite-sample coverage
	// guarantee under exchangeability.
	IntervalConformal = "conformal"
	// IntervalEnsemble marks a heuristic band from per-tree ensemble
	// spread — no coverage guarantee, used when no calibration exists or
	// the holdout is too small for the requested coverage.
	IntervalEnsemble = "ensemble"
)

// Interval is a prediction interval at one target scale.
type Interval struct {
	Scale int     `json:"scale"`
	Lo    float64 `json:"lo"`
	Mid   float64 `json:"mid"`
	Hi    float64 `json:"hi"`
	// Source is IntervalConformal or IntervalEnsemble; empty on intervals
	// built before source tracking (deserialized old responses).
	Source string `json:"source,omitempty"`
}

// NormalizeCoverage maps the public "interval" knob (serving request
// field, cmd/predict flag) to a coverage level in (0, 1). Values in
// (0, 0.5) are read as the legacy tail-quantile form q — the band
// [quantile q, quantile 1−q], i.e. coverage 1−2q — so pre-existing
// clients keep the bands they always got; values in [0.5, 1) are a
// coverage level directly.
func NormalizeCoverage(v float64) (float64, error) {
	if v <= 0 || v >= 1 {
		return 0, fmt.Errorf("core: interval %v outside (0, 1)", v)
	}
	if v < 0.5 {
		return 1 - 2*v, nil
	}
	return v, nil
}

// PredictInterval returns, per target scale, a heuristic uncertainty band
// derived from the interpolation level's tree-ensemble spread: the q and
// 1-q quantiles of per-tree predictions form pessimistic and optimistic
// small-scale curves, and each is pushed through the extrapolation level.
//
// The band reflects the interpolation level's epistemic uncertainty about
// the configuration (wide where the parameter space is sparsely covered);
// it does not account for extrapolation-level model error, so treat it as
// a lower bound on the true uncertainty. q must be in (0, 0.5).
func (m *TwoLevelModel) PredictInterval(params []float64, q float64) []Interval {
	if q <= 0 || q >= 0.5 {
		panic(fmt.Sprintf("core: interval quantile %v outside (0, 0.5)", q))
	}
	k := len(m.Cfg.SmallScales)
	loCurve := make([]float64, k)
	midCurve := make([]float64, k)
	hiCurve := make([]float64, k)
	qs := [2]float64{q, 1 - q}
	var band [2]float64
	var scratch []float64
	for i, f := range m.compiled.Load().forests {
		if scratch == nil {
			scratch = make([]float64, f.E.NumTrees())
		}
		mid := f.PredictQuantilesInto(params, qs[:], scratch, band[:])
		lo, hi := band[0], band[1]
		if m.Cfg.LogInterpolation {
			lo, mid, hi = math.Exp(lo), math.Exp(mid), math.Exp(hi)
		}
		loCurve[i], midCurve[i], hiCurve[i] = lo, mid, hi
	}
	loPred := m.PredictFromCurve(loCurve)
	midPred := m.PredictFromCurve(midCurve)
	hiPred := m.PredictFromCurve(hiCurve)
	out := make([]Interval, len(m.Cfg.LargeScales))
	for i, s := range m.Cfg.LargeScales {
		lo, hi := loPred[i], hiPred[i]
		if lo > hi { // extrapolation can reorder the band; normalize
			lo, hi = hi, lo
		}
		mid := midPred[i]
		if mid < lo {
			mid = lo
		}
		if mid > hi {
			mid = hi
		}
		out[i] = Interval{Scale: s, Lo: lo, Mid: mid, Hi: hi, Source: IntervalEnsemble}
	}
	return out
}

// PredictIntervalCov returns, per target scale, an interval targeting the
// given coverage level in (0, 1). When the model carries a split-conformal
// calibration (pipeline-trained models do) and the holdout was large
// enough at a scale, the band is the calibrated multiplicative interval
// [mid/exp(q̂), mid·exp(q̂)] for the configuration's shape cluster — with
// the finite-sample guarantee conformal prediction provides. Scales the
// calibration cannot certify (and uncalibrated models entirely) fall back
// to the ensemble-spread band at matching tail mass, marked by Source.
// Either way the call walks the forests once, plus once more when a
// calibrated model falls back at some scale.
func (m *TwoLevelModel) PredictIntervalCov(params []float64, coverage float64) []Interval {
	if coverage <= 0 || coverage >= 1 {
		panic(fmt.Sprintf("core: interval coverage %v outside (0, 1)", coverage))
	}
	if m.Meta.Calibration == nil { // every scale falls back; no curve needed
		return m.PredictInterval(params, (1-coverage)/2)
	}
	_, _, band, _ := m.Extrapolate(params, m.PredictSmall(params), 0, coverage) // at = 0 cannot fail
	return band
}

// conformalBand is PredictIntervalCov for a configuration in cluster
// whose runtimes at Cfg.LargeScales are mid.
func (m *TwoLevelModel) conformalBand(params []float64, cluster int, mid []float64, coverage float64) []Interval {
	if coverage >= 1 {
		panic(fmt.Sprintf("core: interval coverage %v outside (0, 1)", coverage))
	}
	var ens []Interval // ensemble fallback, computed at most once
	out := make([]Interval, len(m.Cfg.LargeScales))
	for i, s := range m.Cfg.LargeScales {
		if f, ok := m.Meta.Calibration.Factor(cluster, s, coverage); ok {
			out[i] = Interval{Scale: s, Lo: mid[i] / f, Mid: mid[i], Hi: mid[i] * f, Source: IntervalConformal}
			continue
		}
		if ens == nil {
			ens = m.PredictInterval(params, (1-coverage)/2)
		}
		out[i] = ens[i]
	}
	return out
}

// Width returns the relative width (Hi-Lo)/Mid of the interval; 0 when
// the midpoint is zero.
func (iv Interval) Width() float64 {
	if iv.Mid == 0 {
		return 0
	}
	return (iv.Hi - iv.Lo) / iv.Mid
}
