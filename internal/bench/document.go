package bench

import (
	"fmt"
	"os"
	"path/filepath"

	"rendezvous/examples/scenarios"
	"rendezvous/internal/adversary"
	"rendezvous/internal/core"
	"rendezvous/internal/model"
	"rendezvous/internal/scenario"
	"rendezvous/internal/sim"
)

// search is one executed search of a scenario file: the document that
// defines it, the compiled explorer's exploration time E, and the
// adversary's result.
type search struct {
	doc scenario.Search
	e   int
	wc  sim.WorstCase
}

// scenarioOptions lowers the experiment options onto the scenario
// compiler's runner-side defaults.
func (o Options) scenarioOptions() scenario.Options {
	return scenario.Options{Tier: o.Tier, Symmetry: o.Symmetry, TableBudget: o.TableBudget}
}

// runDocument runs the committed scenario document of experiment id —
// the only definition of that experiment's engine searches — and checks
// that it declares exactly want searches, so an experiment can index
// its results without guarding every access.
func (o Options) runDocument(id string, want int) ([]search, error) {
	data, err := scenarios.FS.ReadFile(id + ".json")
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", id, err)
	}
	f, err := scenario.ParseFile(data)
	if err != nil {
		return nil, fmt.Errorf("bench: %s.json: %w", id, err)
	}
	if f.Experiment != id {
		return nil, fmt.Errorf("bench: %s.json names experiment %q, want %q", id, f.Experiment, id)
	}
	if len(f.Searches) != want {
		return nil, fmt.Errorf("bench: %s.json declares %d searches, want %d", id, len(f.Searches), want)
	}
	runs, err := o.runFile(f)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", id, err)
	}
	return runs, nil
}

// runFile compiles every search of f and runs them in file order.
func (o Options) runFile(f *scenario.File) ([]search, error) {
	models, err := f.CompileAll(o.scenarioOptions())
	if err != nil {
		return nil, err
	}
	runs := make([]search, len(models))
	for i, m := range models {
		wc, err := o.searchModel(m)
		if err != nil {
			return nil, fmt.Errorf("searches[%d]: %w", i, err)
		}
		runs[i] = search{doc: f.Searches[i], e: exploration(m), wc: wc}
	}
	return runs, nil
}

// exploration returns the exploration time E of a paper-model search's
// explorer on its graph. Experiment documents hold paper-model searches
// only; other models report 0.
func exploration(m model.Model) int {
	if pm, ok := m.(adversary.PaperModel); ok {
		return pm.Spec.Explorer.Duration(pm.Spec.Graph)
	}
	return 0
}

// searchModel runs one compiled search under the persistence options:
// a store hit short-circuits the engine, a checkpoint directory makes
// the search resumable, and the result is written back to the store.
// Results are identical on every path. The scenario compiler has
// already refused a forced tier the search cannot run, so a store hit
// cannot mask that error.
func (o Options) searchModel(m model.Model) (sim.WorstCase, error) {
	opts := adversary.Options{Workers: o.Workers, Context: o.Context}
	if o.Store == nil && o.CheckpointDir == "" {
		return adversary.SearchModel(m, opts)
	}
	fp, err := m.Fingerprint()
	if err != nil {
		// Unfingerprintable searches run unpersisted so the caller sees
		// the engine's own error.
		return adversary.SearchModel(m, opts)
	}
	if o.Store != nil {
		if wc, ok := o.Store.Get(fp); ok {
			return wc, nil
		}
	}
	var wc sim.WorstCase
	if o.CheckpointDir == "" {
		wc, err = adversary.SearchModel(m, opts)
	} else {
		ckpt := filepath.Join(o.CheckpointDir, fp+".ckpt")
		wc, err = adversary.SearchModelCheckpointed(m, opts, adversary.CheckpointConfig{Path: ckpt, Fingerprint: fp})
		if err == nil {
			// The checkpoint is crash recovery, not a cache (that is
			// the store's job): once the search completed, drop it so
			// the directory does not accumulate stale files.
			os.Remove(ckpt)
		}
	}
	if err != nil {
		return sim.WorstCase{}, err
	}
	if o.Store != nil {
		_ = o.Store.Put(fp, wc) // best-effort: a miss next time recomputes
	}
	return wc, nil
}

// RunScenario compiles and runs every search of a scenario file, in
// file order, through the same path the experiments run their
// documents on (store and checkpoints included). It is rdvbench
// -scenario.
func RunScenario(f *scenario.File, opts Options) ([]sim.WorstCase, error) {
	runs, err := opts.runFile(f)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	results := make([]sim.WorstCase, len(runs))
	for i, r := range runs {
		results[i] = r.wc
	}
	return results, nil
}

// allMet returns an error for the first search some of whose
// executions never meet: every experiment but the ablations (E13)
// measures correct algorithms, so a non-meeting execution there is a
// failure, not a data point.
func allMet(runs []search) error {
	for i, r := range runs {
		if !r.wc.AllMet {
			return fmt.Errorf("bench: searches[%d]: %s on %s: some executions never meet", i, r.doc.Algorithm, r.doc.Graph.Family)
		}
	}
	return nil
}

// relabeling resolves a search's algorithm as FastWithRelabeling with
// its constant weight w.
func relabeling(s scenario.Search) (core.FastWithRelabeling, int, error) {
	algo, err := core.AlgorithmByName(s.Algorithm)
	fwr, ok := algo.(core.FastWithRelabeling)
	if err != nil || !ok {
		return core.FastWithRelabeling{}, 0, fmt.Errorf("bench: algorithm %q is not fwr(w)", s.Algorithm)
	}
	return fwr, fwr.W(s.L), nil
}
