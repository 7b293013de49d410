package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/hpcsim"
	"repro/internal/pipeline"
	"repro/internal/rng"
)

// The benchmark's application and model settings. The pipeline
// settings are passed to cmd/serve explicitly so the server retrains
// exactly as the fixture generation was trained.
const (
	appName      = "smg2000"
	fixtureSeed  = 20200518 // history sampling and measurement noise; fixed so the model is the same in every run
	pipelineSeed = 1
	holdoutDenom = 5
	// gateSlack promotes every candidate whose holdout MAPE is within
	// twice the incumbent's, so every cycle runs the whole path through
	// save and hot-swap and retrain_s does not switch between two cycle
	// lengths from seed to seed.
	gateSlack      = 1.0
	newConfigs     = 10 // new configurations appended per retrain cycle
	newAnchors     = 3  // of which this many are also run at the large scales
	coverage       = 0.9
	fixtureVersion = "v1" // bump when the fixture recipe changes, to invalidate cached copies
)

var (
	smallScales = []int{2, 4, 8, 16, 32, 64}
	largeScales = []int{128, 256, 512, 1024}
)

// batchRecords is the number of records one retrain cycle appends; the
// server's -pipeline-min-new is set to it so a pipeline tick that reads
// a half-appended batch never starts a cycle on it.
var batchRecords = newConfigs*len(smallScales) + newAnchors*len(largeScales)

// fixtureSpec describes one cached fixture: a run-record store holding
// a sampled smg2000 history and a pipeline generations directory whose
// generation 1 was trained, calibrated and promoted from that store.
type fixtureSpec struct {
	name    string
	configs int // history configurations at every small scale
	anchors int // of which this many also ran at every large scale
}

// historyConfigs returns the fixture's history configurations.
func (f fixtureSpec) historyConfigs() [][]float64 {
	return hpcsim.NewSMG().Space().SampleLatinHypercube(rng.New(fixtureSeed), f.configs)
}

// fixture is a built fixture on disk.
type fixture struct {
	spec    fixtureSpec
	dir     string
	history [][]float64
}

func (f *fixture) storeDir() string { return filepath.Join(f.dir, "store") }
func (f *fixture) gensDir() string  { return filepath.Join(f.dir, "gens") }

// gen1Path is the fixture's promoted generation-1 model file.
func (f *fixture) gen1Path() string {
	return filepath.Join(f.gensDir(), fmt.Sprintf("%s-gen%06d.json", appName, 1))
}

// pipelineConfig is the pipeline configuration cmd/serve builds from
// the flags in pipelineFlags.
func pipelineConfig() pipeline.Config {
	return pipeline.Config{
		Core:          core.DefaultConfig(),
		Seed:          pipelineSeed,
		Gate:          pipeline.GateConfig{HoldoutDenominator: holdoutDenom, AllowedRegression: gateSlack},
		MinNewRecords: batchRecords,
	}
}

func pipelineFlags(storeDir, gensDir string, interval string) []string {
	return []string{
		"-pipeline-store", storeDir,
		"-pipeline-dir", gensDir,
		"-pipeline-interval", interval,
		"-pipeline-min-new", fmt.Sprint(batchRecords),
		"-pipeline-seed", fmt.Sprint(pipelineSeed),
		"-pipeline-holdout-denom", fmt.Sprint(holdoutDenom),
		"-pipeline-slack", fmt.Sprint(gateSlack),
	}
}

// measureEngine is the simulator that produced the fixture history;
// appended records come from the same noise model.
func measureEngine() *hpcsim.Engine { return hpcsim.NewEngine(nil, fixtureSeed) }

// newFixture describes the fixture cached under work/fixtures; ensure
// builds it.
func newFixture(work string, spec fixtureSpec) *fixture {
	return &fixture{spec: spec, dir: filepath.Join(work, "fixtures", spec.name+"-"+fixtureVersion), history: spec.historyConfigs()}
}

// ensure builds the fixture unless it is already cached. It is written
// to a temporary directory and renamed into place, so a run interrupted
// mid-build leaves no partial cache.
func (f *fixture) ensure() error {
	if _, err := os.Stat(f.gen1Path()); err == nil {
		return nil
	}
	progress("building fixture %s (%d configs, %d anchors)", f.spec.name, f.spec.configs, f.spec.anchors)
	if err := os.MkdirAll(filepath.Dir(f.dir), 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(filepath.Dir(f.dir), ".build-"+f.spec.name+"-")
	if err != nil {
		return err
	}
	ownDir(tmp) // an interrupted build leaves nothing; after the rename this is a no-op
	defer os.RemoveAll(tmp)
	if err := buildFixture(tmp, f.spec, f.history); err != nil {
		return fmt.Errorf("building fixture %s: %w", f.spec.name, err)
	}
	if err := os.Rename(tmp, f.dir); err != nil && !os.IsExist(err) {
		if _, serr := os.Stat(f.gen1Path()); serr != nil {
			return err
		}
	}
	return nil
}

func buildFixture(dir string, spec fixtureSpec, history [][]float64) error {
	app := hpcsim.NewSMG()
	eng := measureEngine()
	table, err := eng.GenerateHistory(app, hpcsim.HistorySpec{Configs: history, Scales: smallScales, Reps: 1})
	if err != nil {
		return err
	}
	anchors, err := eng.GenerateHistory(app, hpcsim.HistorySpec{Configs: history[:spec.anchors], Scales: largeScales, Reps: 1})
	if err != nil {
		return err
	}
	table.Merge(anchors)
	store, err := pipeline.OpenStore(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	if _, _, err := store.ImportTable(table); err != nil {
		return err
	}
	p, err := pipeline.New(store, filepath.Join(dir, "gens"), pipelineConfig(), nil)
	if err != nil {
		return err
	}
	p.Kick(appName)
	res, err := p.RunOnce(appName, "")
	if err != nil {
		return err
	}
	if !res.Promoted {
		return fmt.Errorf("generation 1 not promoted: %s", res.Gate.Reason)
	}
	return nil
}

// copyTree copies the regular files under src into dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		_ = out.Close() // the copy error is the one worth reporting
		return err
	}
	return out.Close()
}

// newRecords returns the records of retrain cycle k: newConfigs fresh
// configurations at every small scale, the first newAnchors of them
// also at every large scale, measured by the fixture's simulator.
func newRecords(cfgs [][]float64) ([]pipeline.Record, error) {
	app := hpcsim.NewSMG()
	eng := measureEngine()
	var recs []pipeline.Record
	add := func(cfg []float64, scales []int) error {
		for _, s := range scales {
			rt, err := eng.Run(app, cfg, s, 0)
			if err != nil {
				return err
			}
			recs = append(recs, pipeline.Record{App: appName, Params: cfg, Scale: s, Runtime: rt})
		}
		return nil
	}
	for i, cfg := range cfgs {
		if err := add(cfg, smallScales); err != nil {
			return nil, err
		}
		if i < newAnchors {
			if err := add(cfg, largeScales); err != nil {
				return nil, err
			}
		}
	}
	return recs, nil
}

// truth is the simulator's noise-free runtime of cfg at every large
// scale: the reference mape_pct is measured against.
func truth(cfg []float64) ([]float64, error) {
	app := hpcsim.NewSMG()
	eng := measureEngine()
	out := make([]float64, len(largeScales))
	for i, s := range largeScales {
		b, err := eng.Breakdown(app, cfg, s)
		if err != nil {
			return nil, err
		}
		out[i] = b.Total()
	}
	return out, nil
}
