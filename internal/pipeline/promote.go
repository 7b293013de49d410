package pipeline

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/serving"
)

// Promoter is the promotion stage: it owns the generations directory of
// model files (one per promoted generation, named app-gen000042.json),
// installs winners into the serving registry, and performs one-step
// rollback. Model files are written with core.Save's temp+rename
// protocol, so a serving process reloading from disk can never observe
// a torn file; files of superseded generations are kept — they are the
// rollback targets and the audit trail's artifacts.
type Promoter struct {
	dir     string
	journal *Journal
	reg     *serving.Registry // optional
}

// NewPromoter builds a promoter writing into dir. reg may be nil.
func NewPromoter(dir string, j *Journal, reg *serving.Registry) *Promoter {
	return &Promoter{dir: dir, journal: j, reg: reg}
}

// ModelPath returns the on-disk path of one generation's model file.
func (p *Promoter) ModelPath(app string, gen int) string {
	return filepath.Join(p.dir, fmt.Sprintf("%s-gen%06d.json", app, gen))
}

// Promote atomically writes the candidate as a generation-numbered
// model file and returns its path and content hash. The journal entry
// and registry install are the caller's next steps (the pipeline
// journals before installing, so a crash between the two is recovered
// by InstallActive).
func (p *Promoter) Promote(m *core.TwoLevelModel, app string, gen int) (path, sha string, err error) {
	path = p.ModelPath(app, gen)
	if err := m.Save(path); err != nil {
		return "", "", err
	}
	// Stream the file through the hash: reading it whole would hold a
	// second copy of the model's bytes (tens of MB) live at the peak of
	// the training cycle.
	f, err := os.Open(path)
	if err != nil {
		return "", "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", "", err
	}
	return path, fmt.Sprintf("%x", h.Sum(nil)), nil
}

// install hot-swaps the model into the registry (when attached) under
// the app's name and notes the promotion for /metrics.
func (p *Promoter) install(app string, gen int, m *core.TwoLevelModel, detail string) {
	if p.reg == nil {
		return
	}
	p.reg.Install(app, m)
	p.reg.NotePromotion(serving.PromotionStatus{
		App: app, Generation: gen, Outcome: serving.PromotionPromoted, Detail: detail,
	})
}

// ActiveModel returns app's currently active generation: the model the
// attached registry serves under app's name when that entry is the
// journal's active generation, and otherwise (on restart, without a
// registry) the generation's file read from disk. A nil model with a nil
// error means no generation has been promoted.
func (p *Promoter) ActiveModel(app string) (*core.TwoLevelModel, int, error) {
	gen, ok := p.journal.Active(app)
	if !ok {
		return nil, 0, nil
	}
	if p.reg != nil {
		if e, ok := p.reg.Get(app); ok && e.Generation == gen && e.Model.Meta.App == app {
			return e.Model, gen, nil
		}
	}
	m, err := core.Load(p.ModelPath(app, gen))
	if err != nil {
		return nil, 0, fmt.Errorf("active generation %d: %w", gen, err)
	}
	return m, gen, nil
}

// InstallActive installs every app's active generation into the
// registry — the restart path: the journal says what should be
// serving, the generations directory has the bytes.
func (p *Promoter) InstallActive() error {
	if p.reg == nil {
		return nil
	}
	apps := map[string]bool{}
	for _, e := range p.journal.Entries() {
		apps[e.App] = true
	}
	for _, app := range sortedKeys(apps) {
		m, _, err := p.ActiveModel(app)
		if err != nil {
			return fmt.Errorf("pipeline: app %q: %w", app, err)
		}
		if m == nil {
			continue
		}
		p.reg.Install(app, m)
	}
	return nil
}

// Rollback reverts app to the generation promoted before the currently
// active one: the model file is re-read, journaled as the new active
// generation, and hot-swapped into the registry. Rolling back twice
// walks back one more promotion each time until none remain.
func (p *Promoter) Rollback(app, now string) (int, error) {
	cur, ok := p.journal.Active(app)
	if !ok {
		return 0, fmt.Errorf("pipeline: app %q has no promoted generation to roll back", app)
	}
	prev, ok := p.journal.PreviousPromoted(app, cur)
	if !ok {
		return 0, fmt.Errorf("pipeline: app %q has no generation before %d to roll back to", app, cur)
	}
	m, err := core.Load(p.ModelPath(app, prev))
	if err != nil {
		return 0, fmt.Errorf("pipeline: loading rollback target gen %d: %w", prev, err)
	}
	if err := p.journal.Append(Entry{
		Gen: prev, App: app, Event: EventRollback,
		Reason: fmt.Sprintf("rolled back from generation %d", cur), Time: now,
	}); err != nil {
		return 0, err
	}
	if p.reg != nil {
		p.reg.Install(app, m)
		p.reg.NotePromotion(serving.PromotionStatus{
			App: app, Generation: prev, Outcome: serving.PromotionRollback,
			Detail: fmt.Sprintf("rolled back from generation %d", cur),
		})
	}
	return prev, nil
}

// sortedKeys returns a map's keys in sorted order (deterministic
// iteration for installs and reports).
func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
