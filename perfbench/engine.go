package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"rendezvous/internal/adversary"
	"rendezvous/internal/model"
	"rendezvous/internal/scenario"
	"rendezvous/internal/sim"
)

// compiledSearch is a parsed, compiled and fingerprinted search
// document, ready to run.
type compiledSearch struct {
	Name        string
	Model       model.Model
	Fingerprint string
	// Configs is the requested configuration count (label pairs ×
	// start pairs × delays) before symmetry reduction.
	Configs int
}

// compileDoc parses, compiles and fingerprints one standalone scenario
// document, recording one span per layer call under a "setup.doc" root.
func compileDoc(rec *recorder, name string, doc []byte) (compiledSearch, error) {
	root := rec.start(nil, name, "setup.doc")
	defer root.end()
	sp := rec.start(root, name, "scenario.parse")
	s, err := scenario.ParseSearch(doc)
	sp.end()
	if err != nil {
		return compiledSearch{}, fmt.Errorf("%s: %w", name, err)
	}
	sp = rec.start(root, name, "scenario.compile")
	m, err := s.Compile(scenario.Options{})
	sp.end()
	if err != nil {
		return compiledSearch{}, fmt.Errorf("%s: %w", name, err)
	}
	sp = rec.start(root, name, "model.fingerprint")
	fp, err := m.Fingerprint()
	sp.end()
	if err != nil {
		return compiledSearch{}, fmt.Errorf("%s: fingerprint: %w", name, err)
	}
	configs, err := requestedConfigs(m)
	if err != nil {
		return compiledSearch{}, fmt.Errorf("%s: %w", name, err)
	}
	return compiledSearch{Name: name, Model: m, Fingerprint: fp, Configs: configs}, nil
}

// requestedConfigs expands the model's configuration space as the
// caller spelled it, before any symmetry reduction.
func requestedConfigs(m model.Model) (int, error) {
	var space sim.SearchSpace
	var n int
	switch m := m.(type) {
	case adversary.PaperModel:
		space, n = m.Space, m.Spec.Graph.N()
	case model.Dynamic:
		space, n = m.Space, m.Graph.N()
	default:
		return 0, fmt.Errorf("unsupported model %q", m.Name())
	}
	lp, sp, d, err := space.Expand(n)
	if err != nil {
		return 0, err
	}
	return len(lp) * len(sp) * len(d), nil
}

// searchOutcome is one search execution as the benchmark saw it.
type searchOutcome struct {
	Result sim.WorstCase
	Tier   adversary.Tier // known only on the traced path
}

// runSearch executes one search on workers engine workers. Untraced
// (rec == nil) it is one adversary.SearchModel call. Traced, the same
// work runs through the engine's public plan API — NewModelPlan, one
// RunShard per shard on its own goroutine, MergeShards — with a span
// around each call, the shards under a sweep span, all under a
// "search" root that also records runs, configurations, the tier and
// the bytes allocated.
func runSearch(rec *recorder, cs compiledSearch, workers int) (searchOutcome, error) {
	if rec == nil {
		wc, err := adversary.SearchModel(cs.Model, adversary.Options{Workers: workers})
		return searchOutcome{Result: wc}, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	root := rec.start(nil, cs.Name, "search")

	sp := rec.start(root, cs.Name, "adversary.plan")
	plan, err := adversary.NewModelPlan(cs.Model, workers)
	sp.end()
	if err != nil {
		root.end()
		return searchOutcome{}, err
	}
	info := plan.Info()

	sweep := rec.start(root, cs.Name, "adversary.sweep")
	results := make([]sim.WorstCase, plan.Shards())
	errs := make([]error, plan.Shards())
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh := rec.start(sweep, cs.Name, "adversary.shard")
			results[i], errs[i] = plan.RunShard(context.Background(), i)
			sh.set("runs", float64(results[i].Runs))
			sh.end()
		}()
	}
	wg.Wait()
	sweep.end()
	for _, err := range errs {
		if err != nil {
			root.end()
			return searchOutcome{}, err
		}
	}

	sp = rec.start(root, cs.Name, "adversary.merge")
	wc := adversary.MergeShards(results)
	sp.end()

	// Reading memory statistics stops the world; keep it out of the
	// root span so the children still account for the root.
	rootEnd := time.Now()
	runtime.ReadMemStats(&after)
	root.set("alloc_bytes", float64(after.TotalAlloc-before.TotalAlloc))
	root.set("runs", float64(wc.Runs))
	root.set("configs", float64(cs.Configs))
	root.set("tier", float64(info.Tier))
	root.endAt(rootEnd)
	return searchOutcome{Result: wc, Tier: info.Tier}, nil
}
