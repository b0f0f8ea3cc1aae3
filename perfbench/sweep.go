package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"rendezvous/internal/adversary"
)

// setupReps is how many times a sweep run repeats its set-up; setup_s
// is the median.
const setupReps = 21

// prepareSweep is the sweep workloads' set-up: generate, parse,
// compile and fingerprint every document of the list, and check each
// fingerprint against the pinned one.
func prepareSweep(rec *recorder, list []sweepSearch, expected map[string]expectedSearch) ([]compiledSearch, []string, error) {
	items := make([]compiledSearch, 0, len(list))
	var failures []string
	for _, s := range list {
		cs, err := compileDoc(rec, s.Name, []byte(s.Doc))
		if err != nil {
			return nil, nil, err
		}
		if want, ok := expected[s.Name]; !ok {
			failures = append(failures, fmt.Sprintf("%s: no expected result pinned", s.Name))
		} else if cs.Fingerprint != want.Fingerprint {
			failures = append(failures, fmt.Sprintf("%s: fingerprint %s, pinned %s", s.Name, cs.Fingerprint, want.Fingerprint))
		}
		items = append(items, cs)
	}
	return items, failures, nil
}

// passStats accumulates one mode's (traced or untraced) sweep passes.
type passStats struct {
	configsPerS  []float64
	searchesPerS []float64
	latenciesMs  map[string][]float64 // by search
}

// latencyMs summarizes per-search latency over a list of searches of
// very different sizes: the p-th percentile of each search's own
// latencies, then the geometric mean across searches, so every search
// weighs the same and a percentile never falls on the boundary between
// two searches.
func (p passStats) latencyMs(pct float64) (float64, int) {
	logSum, n := 0.0, 0
	for _, lat := range p.latenciesMs {
		logSum += math.Log(percentile(lat, pct))
		n += len(lat)
	}
	if len(p.latenciesMs) == 0 {
		return 0, 0
	}
	return math.Exp(logSum / float64(len(p.latenciesMs))), n
}

// runSweep runs a sweep workload: repeated set-up, then passes over the
// search list in a seeded order until the window closes. A traced run
// alternates untraced and traced passes, so the tracing overhead is
// measured on the same machine state, then probes each search's layers
// and the crossover cells.
func runSweep(cfg config, list []sweepSearch) (*report, error) {
	rep := newReport()
	expected, err := loadExpected()
	if err != nil {
		return nil, err
	}
	var rec *recorder
	if cfg.Trace {
		rec = newRecorder()
	}

	var setupS []float64
	var items []compiledSearch
	for r := range setupReps {
		runtime.GC() // every repetition starts from a collected heap
		start := time.Now()
		if r == 0 {
			start = processStart
		}
		var failures []string
		items, failures, err = prepareSweep(rec, list, expected)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if r == 0 {
			rep.Failures = append(rep.Failures, failures...)
			rep.Attempted += len(items)
		}
	}
	rep.set("setup_s", median(setupS), len(setupS))

	modes := [2]passStats{{latenciesMs: make(map[string][]float64)}, {latenciesMs: make(map[string][]float64)}} // [untraced, traced]
	tiers := make(map[string]adversary.Tier)
	var rss rssSlices
	deadline := time.Now().Add(cfg.Window)
	for pass := 0; time.Now().Before(deadline); pass++ {
		traced := cfg.Trace && pass%2 == 1
		var passRec *recorder
		if traced {
			passRec = rec
		} else {
			rss.begin()
		}
		var wall time.Duration
		configs, done := 0, 0
		for _, i := range passOrder(cfg.Seed, pass, len(items)) {
			cs := items[i]
			rep.Attempted++
			// Start every search from a collected heap, so the garbage
			// of the search before does not land in its time.
			runtime.GC()
			start := time.Now()
			out, err := runSearch(passRec, cs, cfg.Workers)
			took := time.Since(start)
			if err != nil {
				rep.fail("%s: %v", cs.Name, err)
				continue
			}
			if want := expected[cs.Name]; out.Result != want.Result {
				rep.fail("%s: result %+v, pinned %+v", cs.Name, out.Result, want.Result)
				continue
			}
			if traced {
				tiers[cs.Name] = out.Tier
			}
			wall += took
			configs += cs.Configs
			done++
			m := &modes[boolIdx(traced)]
			m.latenciesMs[cs.Name] = append(m.latenciesMs[cs.Name], float64(took)/1e6)
		}
		if !traced {
			rss.end()
		}
		if done > 0 {
			m := &modes[boolIdx(traced)]
			m.configsPerS = append(m.configsPerS, float64(configs)/wall.Seconds())
			m.searchesPerS = append(m.searchesPerS, float64(done)/wall.Seconds())
		}
	}
	u := modes[0]
	if len(u.configsPerS) == 0 {
		return nil, errNoWork
	}
	rep.set("configs_per_s", median(u.configsPerS), len(u.configsPerS))
	rep.set("searches_per_s", median(u.searchesPerS), len(u.searchesPerS))
	p50, n := u.latencyMs(50)
	rep.set("miss_p50_ms", p50, n)
	rssMB, slices := rss.value()
	rep.set("peak_rss_mb", rssMB, slices)
	if !cfg.Trace {
		return rep, nil
	}

	t := modes[1]
	if len(t.configsPerS) > 0 {
		rep.set("trace.overhead_configs_per_s", median(u.configsPerS)/median(t.configsPerS), len(t.configsPerS))
		tp50, tn := t.latencyMs(50)
		rep.set("trace.overhead_miss_p50_ms", tp50/p50, tn)
	}
	for _, cs := range items {
		tier, ok := tiers[cs.Name]
		if !ok {
			plan, err := adversary.NewModelPlan(cs.Model, 1)
			if err != nil {
				return nil, err
			}
			tier = plan.Info().Tier
		}
		if err := probeSearch(rec, cs, tier); err != nil {
			return nil, err
		}
	}
	for _, cs := range items {
		if prefix, ok := crossoverCells[cs.Name]; ok {
			if err := measureCrossover(rep, prefix, cs, cfg.Workers); err != nil {
				return nil, err
			}
		}
	}
	return rep, finishTrace(cfg, rec, rep)
}

func boolIdx(b bool) int {
	if b {
		return 1
	}
	return 0
}

// crossoverReps is how many times each forced tier of a crossover cell
// runs; the median run counts.
const crossoverReps = 5

// measureCrossover reports, for one crossover cell, the tier Auto picks
// and the cost per executed run of Auto and of the ring and batch tiers
// forced, each the median of crossoverReps searches.
func measureCrossover(rep *report, prefix string, cs compiledSearch, workers int) error {
	pm := cs.Model.(adversary.PaperModel)
	plan, err := adversary.NewModelPlan(pm, 1)
	if err != nil {
		return err
	}
	rep.set(prefix+".auto_tier", float64(plan.Info().Tier), 1)
	rep.Extra = append(rep.Extra, fmt.Sprintf("%s: Auto picks the %s tier", prefix, plan.Info().Tier))
	for _, tier := range []adversary.Tier{adversary.TierAuto, adversary.TierRing, adversary.TierBatch} {
		pm.Tier = tier
		var nsPerRun []float64
		for range crossoverReps {
			start := time.Now()
			wc, err := adversary.SearchModel(pm, adversary.Options{Workers: workers})
			if err != nil {
				return fmt.Errorf("%s on the %s tier: %w", cs.Name, tier, err)
			}
			nsPerRun = append(nsPerRun, float64(time.Since(start).Nanoseconds())/float64(wc.Runs))
		}
		rep.set(fmt.Sprintf("%s.%s_ns_per_run", prefix, tier), median(nsPerRun), len(nsPerRun))
	}
	return nil
}
