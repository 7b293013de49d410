package core

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/uncertainty"
)

// TestFitInterpParallelByteIdentical proves the parallel per-scale
// interpolation fit is invisible in the artifact: fitting the same data
// with the goroutine fan-out and with the sequential loop must produce
// byte-identical serialized models. The pre-split RNG streams (one per
// scale, drawn in scale order before any goroutine starts) are what
// makes this hold regardless of scheduling.
func TestFitInterpParallelByteIdentical(t *testing.T) {
	cfg := smallCfg()
	cfg.Forest.Trees = 12
	train, _ := simTables(t, 31, 30, 15, 1, cfg)

	fit := func() []byte {
		m, err := Fit(rng.New(11), train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	par := fit()
	interpFitParallel = false
	defer func() { interpFitParallel = true }()
	seq := fit()
	if !bytes.Equal(par, seq) {
		t.Fatalf("parallel fit artifact differs from sequential fit: %d vs %d bytes", len(par), len(seq))
	}
}

// pointerOracle predicts through the pointer forests in m.Interp and the
// curve-level extrapolation, independently of the compiled form every
// model prediction runs on.
type pointerOracle struct{ m *TwoLevelModel }

// small is PredictSmall on the pointer forests.
func (o pointerOracle) small(p []float64) []float64 {
	out := make([]float64, len(o.m.Interp))
	for i, f := range o.m.Interp {
		out[i] = f.Predict(p)
		if o.m.Cfg.LogInterpolation {
			out[i] = math.Exp(out[i])
		}
	}
	return out
}

// interval is PredictInterval on the pointer forests.
func (o pointerOracle) interval(p []float64, q float64) []Interval {
	k := len(o.m.Interp)
	lo, mid, hi := make([]float64, k), make([]float64, k), make([]float64, k)
	band := make([]float64, 2)
	for i, f := range o.m.Interp {
		mid[i] = f.PredictQuantilesInto(p, []float64{q, 1 - q}, nil, band)
		lo[i], hi[i] = band[0], band[1]
		if o.m.Cfg.LogInterpolation {
			lo[i], mid[i], hi[i] = math.Exp(lo[i]), math.Exp(mid[i]), math.Exp(hi[i])
		}
	}
	loP, midP, hiP := o.m.PredictFromCurve(lo), o.m.PredictFromCurve(mid), o.m.PredictFromCurve(hi)
	out := make([]Interval, len(o.m.Cfg.LargeScales))
	for i, s := range o.m.Cfg.LargeScales {
		l, h := math.Min(loP[i], hiP[i]), math.Max(loP[i], hiP[i])
		out[i] = Interval{Scale: s, Lo: l, Mid: math.Min(math.Max(midP[i], l), h), Hi: h, Source: IntervalEnsemble}
	}
	return out
}

// intervalCov is PredictIntervalCov on the pointer forests.
func (o pointerOracle) intervalCov(p []float64, coverage float64) []Interval {
	curve := o.small(p)
	cluster, mid := o.m.assign(curve), o.m.PredictFromCurve(curve)
	out := o.interval(p, (1-coverage)/2)
	for i, s := range o.m.Cfg.LargeScales {
		if f, ok := o.m.Meta.Calibration.Factor(cluster, s, coverage); ok {
			out[i] = Interval{Scale: s, Lo: mid[i] / f, Mid: mid[i], Hi: mid[i] * f, Source: IntervalConformal}
		}
	}
	return out
}

// TestCompiledModelPredictionsIdentical asserts that models from Fit,
// Read and Clone carry the compiled form, and that every prediction
// surface is bit-identical to the pointer-forest oracle, calibrated
// (conformal at the first target scale, ensemble fallback elsewhere) and
// not.
func TestCompiledModelPredictionsIdentical(t *testing.T) {
	fitted, p := fitTiny(t)
	var buf bytes.Buffer
	if err := fitted.Write(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	calibrated := fitted.Clone()
	calibrated.Meta.Calibration = &uncertainty.Calibration{
		Pooled: []uncertainty.ScaleCalib{{Scale: fitted.Cfg.LargeScales[0], Scores: []float64{0.1, 0.2, 0.3, 0.4, 0.5}}},
	}
	for name, m := range map[string]*TwoLevelModel{"Fit": fitted, "Read": loaded, "Clone": calibrated} {
		if m.compiled.Load() == nil {
			t.Fatalf("%s: model is not compiled", name)
		}
		o := pointerOracle{m}
		small := o.small(p)
		if got := m.PredictSmall(p); !slices.Equal(got, small) {
			t.Fatalf("%s: PredictSmall %v != oracle %v", name, got, small)
		}
		if got, want := m.Predict(p), m.PredictFromCurve(small); !slices.Equal(got, want) {
			t.Fatalf("%s: Predict %v != oracle %v", name, got, want)
		}
		if got, want := m.AssignCluster(p), m.assign(small); got != want {
			t.Fatalf("%s: AssignCluster %d != oracle %d", name, got, want)
		}
		if got, want := m.PredictInterval(p, 0.1), o.interval(p, 0.1); !slices.Equal(got, want) {
			t.Fatalf("%s: PredictInterval %+v != oracle %+v", name, got, want)
		}
		want := o.intervalCov(p, 0.6)
		if got := m.PredictIntervalCov(p, 0.6); !slices.Equal(got, want) {
			t.Fatalf("%s: PredictIntervalCov %+v != oracle %+v", name, got, want)
		}
		if _, _, got, _ := m.Extrapolate(p, small, 0, 0.6); !slices.Equal(got, want) {
			t.Fatalf("%s: Extrapolate band %+v != oracle %+v", name, got, want)
		}
	}
	if calibrated.PredictIntervalCov(p, 0.6)[0].Source != IntervalConformal {
		t.Fatal("calibrated clone did not answer conformally at the calibrated scale")
	}
}

// TestCompileSurvivesRoundtrip: the compiled form is derived state and
// must not leak into the artifact; a re-compiled model (Compile is
// idempotent) and a loaded one predict identically and write the same
// bytes.
func TestCompileSurvivesRoundtrip(t *testing.T) {
	m, p := fitTiny(t)
	var before bytes.Buffer
	if err := m.Write(&before); err != nil {
		t.Fatal(err)
	}
	want := m.Predict(p)
	m.Compile()
	var after bytes.Buffer
	if err := m.Write(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("Compile changed the serialized artifact")
	}
	loaded, err := Read(&after)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]float64{"recompiled": m.Predict(p), "loaded": loaded.Predict(p)} {
		if !slices.Equal(got, want) {
			t.Fatalf("%s prediction %v != %v", name, got, want)
		}
	}
}
