package core

import (
	"repro/internal/treec"
)

// compiledInterp is the flattened (struct-of-arrays) form of every
// interpolation forest, aligned with TwoLevelModel.Interp. It is built
// by Compile and immutable afterwards, so any number of goroutines
// may predict through it concurrently.
type compiledInterp struct {
	forests []*treec.Forest
}

// Compile flattens the model's interpolation forests into the treec
// struct-of-arrays layout, the one representation every prediction runs
// on: traversal walks contiguous node tables instead of chasing per-node
// heap pointers, with predictions bit-identical to the pointer forests.
// Fit and Read call it, so callers never need to; it is idempotent and
// safe to call concurrently with predictions.
func (m *TwoLevelModel) Compile() {
	ci := &compiledInterp{forests: make([]*treec.Forest, len(m.Interp))}
	for i, f := range m.Interp {
		ci.forests[i] = treec.CompileForest(f)
	}
	m.compiled.Store(ci)
}

// Clone returns a shallow copy sharing all fitted state (forests,
// centroids, cluster models) and the current compiled form.
// TwoLevelModel is a no-copy type — the compiled pointer is atomic —
// so callers that want an independent Meta (e.g. to attach a different
// calibration) clone instead of copying the struct.
func (m *TwoLevelModel) Clone() *TwoLevelModel {
	c := &TwoLevelModel{
		Cfg:           m.Cfg,
		ParamNames:    m.ParamNames,
		Meta:          m.Meta,
		Interp:        m.Interp,
		Centroids:     m.Centroids,
		ClusterModels: m.ClusterModels,
		TrainConfigs:  m.TrainConfigs,
		Anchors:       m.Anchors,
	}
	c.compiled.Store(m.compiled.Load())
	return c
}
