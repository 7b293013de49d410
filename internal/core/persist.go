package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/tree"
)

// modelFileVersion guards against loading files written by incompatible
// releases.
const modelFileVersion = 1

// modelFile is the on-disk envelope.
type modelFile struct {
	Version int            `json:"version"`
	Model   *TwoLevelModel `json:"model"`
}

// Write serializes the model as JSON.
func (m *TwoLevelModel) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(modelFile{Version: modelFileVersion, Model: m})
}

// Read deserializes a model previously written with Write.
func Read(r io.Reader) (*TwoLevelModel, error) {
	var f modelFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("core: decoding model: %w", err)
	}
	if f.Version != modelFileVersion {
		return nil, fmt.Errorf("core: model file version %d, this build reads %d", f.Version, modelFileVersion)
	}
	if f.Model == nil {
		return nil, fmt.Errorf("core: model file has no model")
	}
	if err := f.Model.validateLoaded(); err != nil {
		return nil, err
	}
	f.Model.Compile()
	return f.Model, nil
}

// Save writes the model to a file path atomically: the JSON is written
// to a temporary file in the same directory, synced, and renamed over
// the destination, so a concurrent reader (e.g. a serving process
// hot-reloading on SIGHUP) can never observe a torn or partial file.
func (m *TwoLevelModel) Save(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			_ = tmp.Close()
			_ = os.Remove(tmp.Name())
		}
	}()
	if err := m.Write(tmp); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	// CreateTemp uses 0600; match the permissions os.Create would give.
	if err := tmp.Chmod(0o644); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	name := tmp.Name()
	tmp = nil // the deferred cleanup no longer owns the file
	if err := os.Rename(name, path); err != nil {
		_ = os.Remove(name)
		return err
	}
	return nil
}

// Load reads a model from a file path.
func Load(path string) (*TwoLevelModel, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// validTree checks that a loaded tree is one Compile can flatten: every
// split names an input feature and has two distinct children placed after
// it that no other split shares, so each walk from the root ends at a
// leaf and the flattened form has one slot per node.
func validTree(t *tree.Tree, features int) error {
	if t == nil || len(t.Nodes) == 0 {
		return fmt.Errorf("empty tree")
	}
	claimed := make([]bool, len(t.Nodes))
	for j, n := range t.Nodes {
		if n.Feature < 0 {
			continue
		}
		l, r := int(n.Left), int(n.Right)
		if n.Feature >= features || l <= j || r <= j || l == r || l >= len(t.Nodes) || r >= len(t.Nodes) || claimed[l] || claimed[r] {
			return fmt.Errorf("node %d splits on feature %d into children %d and %d", j, n.Feature, l, r)
		}
		claimed[l], claimed[r] = true, true
	}
	return nil
}

// validateLoaded sanity-checks structural invariants after deserialization
// so a corrupt file fails at load time, not at first prediction.
func (m *TwoLevelModel) validateLoaded() error {
	if len(m.Interp) != len(m.Cfg.SmallScales) {
		return fmt.Errorf("core: %d interpolation models for %d small scales", len(m.Interp), len(m.Cfg.SmallScales))
	}
	for i, f := range m.Interp {
		if f == nil || len(f.Trees) == 0 {
			return fmt.Errorf("core: interpolation model %d is empty", i)
		}
		if f.Features != len(m.ParamNames) {
			return fmt.Errorf("core: interpolation model %d expects %d features, model has %d params",
				i, f.Features, len(m.ParamNames))
		}
		for ti, t := range f.Trees {
			if err := validTree(t, f.Features); err != nil {
				return fmt.Errorf("core: interpolation model %d tree %d: %w", i, ti, err)
			}
		}
	}
	if len(m.ClusterModels) == 0 {
		return fmt.Errorf("core: no cluster models")
	}
	for i, cm := range m.ClusterModels {
		switch m.Cfg.Mode {
		case ModeAnchored:
			if cm.Multi == nil && len(cm.Single) == 0 {
				return fmt.Errorf("core: anchored cluster %d has no model", i)
			}
			if cm.Multi != nil && cm.Multi.Tasks != len(m.Cfg.LargeScales) {
				return fmt.Errorf("core: anchored cluster %d has %d tasks for %d large scales",
					i, cm.Multi.Tasks, len(m.Cfg.LargeScales))
			}
			if cm.Single != nil && len(cm.Single) != len(m.Cfg.LargeScales) {
				return fmt.Errorf("core: anchored cluster %d has %d single-task models for %d large scales",
					i, len(cm.Single), len(m.Cfg.LargeScales))
			}
		case ModeBasis:
			for _, j := range cm.Support {
				if j < 0 || j >= len(m.Cfg.Basis) {
					return fmt.Errorf("core: cluster %d support index %d outside basis of %d terms",
						i, j, len(m.Cfg.Basis))
				}
			}
			if !m.Cfg.SingleTask && cm.Support == nil {
				return fmt.Errorf("core: basis cluster %d has no support but model is not single-task", i)
			}
		default:
			return fmt.Errorf("core: loaded model has unresolved mode %q", m.Cfg.Mode)
		}
	}
	if m.Centroids != nil && m.Centroids.Rows != len(m.ClusterModels) {
		return fmt.Errorf("core: %d centroids for %d cluster models", m.Centroids.Rows, len(m.ClusterModels))
	}
	if m.Centroids == nil && len(m.ClusterModels) != 1 {
		return fmt.Errorf("core: multiple cluster models without centroids")
	}
	if err := m.Meta.Calibration.Validate(); err != nil {
		return err
	}
	return nil
}
