package core

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/tree"
)

// fitTiny returns a quick model, plus one in-space configuration, for
// persistence tests.
func fitTiny(t *testing.T) (*TwoLevelModel, []float64) {
	t.Helper()
	cfg := smallCfg()
	cfg.Forest.Trees = 10
	train, test := simTables(t, 31, 30, 15, 1, cfg)
	m, err := Fit(rng.New(7), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, test.GroupByConfig()[0].Params
}

func TestSaveLoadRoundtrip(t *testing.T) {
	m, p := fitTiny(t)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	want, got := m.Predict(p), loaded.Predict(p)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("prediction changed across save/load: %v != %v", got, want)
		}
	}
}

// TestSaveAtomicLeavesNoTempFiles asserts Save's temp-file-plus-rename
// protocol cleans up after itself: after overwriting an existing model
// twice, the directory holds exactly the destination file.
func TestSaveAtomicLeavesNoTempFiles(t *testing.T) {
	m, _ := fitTiny(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	for i := 0; i < 2; i++ {
		if err := m.Save(path); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "model.json" {
		names := []string{}
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory after Save holds %v, want only model.json", names)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Fatalf("saved model has mode %v, want 0644", fi.Mode().Perm())
	}
}

// TestSaveFailurePreservesExisting asserts a failing Save (unwritable
// directory) does not destroy an existing good file at the destination.
func TestSaveFailurePreservesExisting(t *testing.T) {
	m, _ := fitTiny(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	if os.Geteuid() == 0 {
		t.Skip("running as root; read-only directory does not fail writes")
	}
	if err := m.Save(path); err == nil {
		t.Fatal("Save into read-only directory succeeded unexpectedly")
	}
	if _, err := Load(path); err != nil {
		t.Fatalf("existing model corrupted by failed Save: %v", err)
	}
}

// TestMetaRoundtrip asserts training provenance survives save/load, so
// the pipeline and the serving layer agree on a file's generation.
func TestMetaRoundtrip(t *testing.T) {
	m, _ := fitTiny(t)
	m.Meta = ModelMeta{App: "smg2000", Generation: 7, TrainHash: "abc123"}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Meta != m.Meta {
		t.Fatalf("Meta round-trip: got %+v, want %+v", loaded.Meta, m.Meta)
	}
}

func TestSaveIntoMissingDirFails(t *testing.T) {
	m, _ := fitTiny(t)
	if err := m.Save(filepath.Join(t.TempDir(), "nope", "model.json")); err == nil {
		t.Fatal("Save into missing directory succeeded unexpectedly")
	}
}

// TestReadRejectsMalformedTrees: Read compiles what it loads, so a tree
// whose splits do not form a tree (a cycle, a shared or out-of-range
// child, an unknown feature) must fail as a load error rather than hang
// or panic inside Compile.
func TestReadRejectsMalformedTrees(t *testing.T) {
	m, _ := fitTiny(t)
	for name, corrupt := range map[string]func(n []tree.Node){
		"cycle to root":      func(n []tree.Node) { n[0].Left = 0 },
		"shared child":       func(n []tree.Node) { n[0].Right = n[0].Left },
		"child out of range": func(n []tree.Node) { n[0].Right = int32(len(n)) },
		"unknown feature":    func(n []tree.Node) { n[0].Feature = len(m.ParamNames) },
	} {
		c := m.Clone()
		c.Interp = slices.Clone(m.Interp)
		f := *c.Interp[0]
		f.Trees = slices.Clone(f.Trees)
		tr := *f.Trees[0]
		tr.Nodes = slices.Clone(tr.Nodes)
		corrupt(tr.Nodes)
		f.Trees[0] = &tr
		c.Interp[0] = &f
		var buf bytes.Buffer
		if err := c.Write(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Read(&buf); err == nil || !strings.Contains(err.Error(), "tree 0") {
			t.Fatalf("%s: Read returned %v, want a tree 0 error", name, err)
		}
	}
}
