package treec

import (
	"math"
	"testing"

	"repro/internal/forest"
	"repro/internal/gbrt"
	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/tree"
)

// friedman1-style data, matching the generators in the forest and gbrt
// test suites so benchmarks are comparable across packages.
func friedman(r *rng.Source, n int) (*mat.Dense, []float64) {
	x := mat.NewDense(n, 6)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 6; j++ {
			x.Set(i, j, r.Float64())
		}
		y[i] = 10*math.Sin(math.Pi*x.At(i, 0)*x.At(i, 1)) +
			20*math.Pow(x.At(i, 2)-0.5, 2) +
			10*x.At(i, 3) + 5*x.At(i, 4) + 0.1*r.Norm()
	}
	return x, y
}

// perRow predicts every row of x one call at a time: the pointer oracle
// the compiled kernels must match bit for bit.
func perRow(predict func([]float64) float64, x *mat.Dense) []float64 {
	out := make([]float64, x.Rows)
	for i := range out {
		out[i] = predict(x.Row(i))
	}
	return out
}

// compileTree compiles a lone tree as a one-tree forest, whose mean is
// the tree's own leaf value exactly.
func compileTree(tr *tree.Tree) *Forest {
	return CompileForest(&forest.Forest{Trees: []*tree.Tree{tr}, Features: tr.Features})
}

func TestCompileForestLayout(t *testing.T) {
	r := rng.New(1)
	x, y := friedman(r, 200)
	p := forest.Defaults()
	p.Trees = 7
	f := forest.Fit(x, y, p, r)
	cf := CompileForest(f)

	if got, want := cf.E.NumTrees(), len(f.Trees); got != want {
		t.Fatalf("compiled %d trees, want %d", got, want)
	}
	total := 0
	for _, tr := range f.Trees {
		total += len(tr.Nodes)
	}
	if got := cf.E.NumNodes(); got != total {
		t.Fatalf("compiled %d nodes, want %d", got, total)
	}
	if len(cf.E.Feature) != total || len(cf.E.Child) != total || len(cf.E.Thresh) != total {
		t.Fatal("SoA arrays not aligned to node count")
	}
	// Roots are increasing offsets; every internal node's children are
	// adjacent and inside the tree's node range.
	for ti, root := range cf.E.Roots {
		end := cf.E.NumNodes()
		if ti+1 < len(cf.E.Roots) {
			end = int(cf.E.Roots[ti+1])
		}
		if int(root) >= end {
			t.Fatalf("tree %d root %d >= end %d", ti, root, end)
		}
		for j := int(root); j < end; j++ {
			if cf.E.Feature[j] < 0 {
				continue
			}
			l := int(cf.E.Child[j])
			if l <= j || l+1 >= end+1 || l < int(root) || l+1 > end {
				t.Fatalf("tree %d node %d has children %d,%d outside (%d,%d]", ti, j, l, l+1, root, end)
			}
		}
	}
}

func TestCompiledForestMatchesPointer(t *testing.T) {
	r := rng.New(2)
	x, y := friedman(r, 300)
	p := forest.Defaults()
	p.Trees = 40
	f := forest.Fit(x, y, p, r)
	cf := CompileForest(f)

	want := perRow(f.Predict, x)
	got := cf.PredictBatch(x, make([]float64, x.Rows))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: compiled %v != pointer %v", i, got[i], want[i])
		}
	}
	for i := 0; i < 20; i++ {
		v := x.Row(i)
		if cf.Predict(v) != f.Predict(v) {
			t.Fatalf("single row %d diverges", i)
		}
	}
}

func TestCompiledGBRTMatchesPointer(t *testing.T) {
	r := rng.New(3)
	x, y := friedman(r, 250)
	p := gbrt.Defaults()
	p.Rounds = 60
	p.Subsample = 0.8
	m := gbrt.Fit(x, y, p, r)
	cm := CompileGBRT(m)

	want := perRow(m.Predict, x)
	got := cm.PredictBatch(x, make([]float64, x.Rows))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: compiled %v != pointer %v", i, got[i], want[i])
		}
	}
	for i := 0; i < 20; i++ {
		v := x.Row(i)
		if cm.Predict(v) != m.Predict(v) {
			t.Fatalf("single row %d diverges", i)
		}
	}
}

func TestCompiledTreeMatchesPointer(t *testing.T) {
	r := rng.New(4)
	x, y := friedman(r, 200)
	tr := tree.NewFitter().Fit(x, y, tree.Defaults(), nil)
	ct := compileTree(tr)
	want := perRow(tr.Predict, x)
	got := ct.PredictBatch(x, make([]float64, x.Rows))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: compiled %v != pointer %v", i, got[i], want[i])
		}
	}
	if ct.Predict(x.Row(3)) != tr.Predict(x.Row(3)) {
		t.Fatal("single-row tree predict diverges")
	}
}

func TestCompiledQuantilesMatchPointer(t *testing.T) {
	r := rng.New(5)
	x, y := friedman(r, 200)
	p := forest.Defaults()
	p.Trees = 31
	f := forest.Fit(x, y, p, r)
	cf := CompileForest(f)

	qs := []float64{0, 0.05, 0.25, 0.5, 0.75, 0.95, 1}
	want := make([]float64, len(qs))
	got := make([]float64, len(qs))
	scratch := make([]float64, len(f.Trees))
	for i := 0; i < 20; i++ {
		v := x.Row(i)
		wm := f.PredictQuantilesInto(v, qs, scratch, want)
		gm := cf.PredictQuantilesInto(v, qs, scratch, got)
		if wm != gm {
			t.Fatalf("row %d: mean %v != %v", i, gm, wm)
		}
		for j := range qs {
			if got[j] != want[j] {
				t.Fatalf("row %d q=%v: compiled %v != pointer %v", i, qs[j], got[j], want[j])
			}
		}
	}
}

func TestCompiledZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	r := rng.New(6)
	x, y := friedman(r, 200)
	p := forest.Defaults()
	p.Trees = 10
	f := forest.Fit(x, y, p, r)
	cf := CompileForest(f)
	dst := make([]float64, x.Rows)
	if n := testing.AllocsPerRun(20, func() { cf.PredictBatch(x, dst) }); n != 0 {
		t.Fatalf("compiled forest PredictBatch allocates %v per call, want 0", n)
	}
	probe := x.Row(0)
	if n := testing.AllocsPerRun(50, func() { cf.Predict(probe) }); n != 0 {
		t.Fatalf("compiled forest Predict allocates %v per call, want 0", n)
	}
	qs := []float64{0.1, 0.9}
	qdst := make([]float64, 2)
	scratch := make([]float64, cf.E.NumTrees())
	if n := testing.AllocsPerRun(50, func() { cf.PredictQuantilesInto(probe, qs, scratch, qdst) }); n != 0 {
		t.Fatalf("compiled PredictQuantilesInto allocates %v per call, want 0", n)
	}

	gp := gbrt.Defaults()
	gp.Rounds = 20
	gm := gbrt.Fit(x, y, gp, r)
	cgm := CompileGBRT(gm)
	if n := testing.AllocsPerRun(20, func() { cgm.PredictBatch(x, dst) }); n != 0 {
		t.Fatalf("compiled gbrt PredictBatch allocates %v per call, want 0", n)
	}
}

func TestCompiledPanics(t *testing.T) {
	r := rng.New(7)
	x, y := friedman(r, 60)
	p := forest.Defaults()
	p.Trees = 3
	cf := CompileForest(forest.Fit(x, y, p, r))
	for name, fn := range map[string]func(){
		"wrong features": func() { cf.Predict([]float64{1}) },
		"short dst":      func() { cf.PredictBatch(x, make([]float64, 3)) },
		"bad quantile":   func() { cf.PredictQuantilesInto(x.Row(0), []float64{1.5}, nil, make([]float64, 1)) },
		"short qdst":     func() { cf.PredictQuantilesInto(x.Row(0), []float64{0.1, 0.9}, nil, make([]float64, 1)) },
		"short scratch":  func() { cf.PredictQuantilesInto(x.Row(0), []float64{0.1}, make([]float64, 1), make([]float64, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
