package treec

import (
	"testing"

	"repro/internal/forest"
	"repro/internal/gbrt"
	"repro/internal/rng"
)

// The batch benchmarks score 2000 friedman rows through a 100-tree
// forest and a default gbrt ensemble; `make bench-check` gates them
// against BENCH_hotpath.json.

func BenchmarkForestPredictBatchCompiled(b *testing.B) {
	r := rng.New(1)
	x, y := friedman(r, 2000)
	p := forest.Defaults()
	p.Trees = 100
	cf := CompileForest(forest.Fit(x, y, p, r))
	dst := make([]float64, x.Rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cf.PredictBatch(x, dst)
	}
}

func BenchmarkGBRTPredictBatchCompiled(b *testing.B) {
	r := rng.New(1)
	x, y := friedman(r, 2000)
	cm := CompileGBRT(gbrt.Fit(x, y, gbrt.Defaults(), r))
	dst := make([]float64, x.Rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.PredictBatch(x, dst)
	}
}

func BenchmarkCompileForest(b *testing.B) {
	r := rng.New(1)
	x, y := friedman(r, 2000)
	p := forest.Defaults()
	p.Trees = 100
	f := forest.Fit(x, y, p, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CompileForest(f)
	}
}
