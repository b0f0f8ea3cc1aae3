package bench

import (
	"fmt"
	"math/rand"
	"sort"

	"rendezvous/internal/core"
	"rendezvous/internal/explore"
	"rendezvous/internal/graph"
	"rendezvous/internal/sim"
	"rendezvous/internal/uxs"
)

// E8Exploration reproduces the Section 1.2 discussion of the benchmark
// parameter E: the exploration time achieved by each scenario's
// procedure across graph families, verified against the paper's quoted
// formulas.
func E8Exploration(opts Options) (*Table, error) {
	t := &Table{
		ID:      "E8",
		Title:   "Exploration time E per scenario and graph family (Section 1.2)",
		Claim:   "E = n-1 on rings/Hamiltonian graphs, e-1 with an Eulerian cycle, 2n-2 by DFS with a marked start, Θ(n²) without one",
		Columns: []string{"graph", "n", "m", "explorer", "E", "formula", "verified"},
		Notes: []string{
			"every (explorer, graph) pair is verified: plans have exactly E steps and visit all nodes from every start",
			"unmarked DFS charges retreats explicitly: E = 2n(2n-2) vs the paper's n(2n-2); both Θ(n²) (DESIGN.md substitution)",
		},
	}
	rng := rand.New(rand.NewSource(5))
	type entry struct {
		name    string
		g       *graph.Graph
		ex      explore.Explorer
		formula string
		want    func(g *graph.Graph) int
	}
	entries := []entry{
		{"oriented-ring-24", graph.OrientedRing(24), explore.OrientedRingSweep{}, "n-1", func(g *graph.Graph) int { return g.N() - 1 }},
		{"torus-3x4", graph.Torus(3, 4), explore.Hamiltonian{}, "n-1", func(g *graph.Graph) int { return g.N() - 1 }},
		{"torus-3x4", graph.Torus(3, 4), explore.Eulerian{}, "e-1", func(g *graph.Graph) int { return g.M() - 1 }},
		{"hypercube-3", graph.Hypercube(3), explore.Hamiltonian{}, "n-1", func(g *graph.Graph) int { return g.N() - 1 }},
		{"star-12", graph.Star(12), explore.DFS{}, "2n-2", func(g *graph.Graph) int { return 2 * (g.N() - 1) }},
		{"tree-14", graph.RandomTree(14, rng), explore.DFS{}, "2n-2", func(g *graph.Graph) int { return 2 * (g.N() - 1) }},
		{"grid-3x4", graph.Grid(3, 4), explore.DFS{}, "2n-2", func(g *graph.Graph) int { return 2 * (g.N() - 1) }},
		{"grid-5x5", graph.Grid(5, 5), explore.DFS{}, "2n-2", func(g *graph.Graph) int { return 2 * (g.N() - 1) }},
		{"hypercube-4", graph.Hypercube(4), explore.Hamiltonian{}, "n-1", func(g *graph.Graph) int { return g.N() - 1 }},
		{"torus-4x6", graph.Torus(4, 6), explore.Hamiltonian{}, "n-1", func(g *graph.Graph) int { return g.N() - 1 }},
		{"complete-7", graph.Complete(7), explore.Eulerian{}, "e-1", func(g *graph.Graph) int { return g.M() - 1 }},
		{"ring-8-unmarked", graph.OrientedRing(8), explore.UnmarkedDFS{}, "2n(2n-2)", func(g *graph.Graph) int { return 2 * g.N() * (2 * (g.N() - 1)) }},
		{"tree-7-unmarked", graph.RandomTree(7, rng), explore.UnmarkedDFS{}, "2n(2n-2)", func(g *graph.Graph) int { return 2 * g.N() * (2 * (g.N() - 1)) }},
		{"tree-20-unmarked", graph.RandomTree(20, rng), explore.UnmarkedDFS{}, "2n(2n-2)", func(g *graph.Graph) int { return 2 * g.N() * (2 * (g.N() - 1)) }},
	}
	allOK := true
	for _, en := range entries {
		if err := opts.err(); err != nil {
			return nil, err
		}
		e := en.ex.Duration(en.g)
		verified := explore.Verify(en.ex, en.g) == nil && e == en.want(en.g)
		if !verified {
			allOK = false
		}
		t.AddRow(en.name, en.g.N(), en.g.M(), en.ex.Name(), e, en.formula, verified)
	}
	t.AddCheck("all exploration formulas and contracts", allOK, "every plan has exactly E steps and covers all nodes from all starts")
	return t, nil
}

// E9UnknownE reproduces the Conclusion's doubling construction: without
// any bound on the graph size, iterating each algorithm over the
// EXPLORE_i family preserves rendezvous, and telescoping keeps the
// overhead factor over the known-E run constant.
func E9UnknownE(opts Options) (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   "Unknown graph size: iterated EXPLORE_i doubling (Conclusion)",
		Claim:   "iterating the algorithms over UXS-based EXPLORE_i with E_i geometric preserves the time and cost complexities (telescoping)",
		Columns: []string{"graph", "algorithm", "level j", "E_j", "worst direct time", "worst doubling time", "factor"},
		Notes: []string{
			"EXPLORE_i simulated with DFS under R(m) = 2m-2; a genuine log-space UXS has larger R but identical telescoping (DESIGN.md)",
		},
	}
	fam := uxs.Family{}
	rng := rand.New(rand.NewSource(11))
	const L = 4
	params := core.Params{L: L}
	allMet := true
	factorOK := true
	for _, cfg := range []struct {
		name string
		g    *graph.Graph
	}{
		{"ring-13", graph.OrientedRing(13)},
		{"tree-9", graph.RandomTree(9, rng)},
		{"grid-3x3", graph.Grid(3, 3)},
	} {
		level := fam.LevelFor(cfg.g.N())
		ej := fam.Level(level).Duration(cfg.g)
		for _, algo := range []core.Algorithm{core.Cheap{}, core.Fast{}} {
			if err := opts.err(); err != nil {
				return nil, err
			}
			worstDirect, worstDoubling := 0, 0
			n := cfg.g.N()
			for sa := 0; sa < n; sa++ {
				for _, sb := range []int{(sa + 1) % n, (sa + n/2) % n, (sa + n - 1) % n} {
					if sa == sb {
						continue
					}
					direct, err := sim.Run(sim.Scenario{
						Graph:    cfg.g,
						Explorer: fam.Level(level),
						A:        sim.AgentSpec{Label: 1, Start: sa, Wake: 1, Schedule: algo.Schedule(1, params)},
						B:        sim.AgentSpec{Label: 3, Start: sb, Wake: 1, Schedule: algo.Schedule(3, params)},
					})
					if err != nil {
						return nil, err
					}
					res, err := core.RunDoubling(core.DoublingScenario{
						Graph: cfg.g, Family: fam, Algo: algo, Params: params,
						A:      sim.AgentSpec{Label: 1, Start: sa, Wake: 1},
						B:      sim.AgentSpec{Label: 3, Start: sb, Wake: 1},
						Levels: level + 1,
					})
					if err != nil {
						return nil, err
					}
					if !direct.Met || !res.Met {
						allMet = false
						continue
					}
					if direct.Time() > worstDirect {
						worstDirect = direct.Time()
					}
					if res.Time() > worstDoubling {
						worstDoubling = res.Time()
					}
				}
			}
			factor := float64(worstDoubling) / float64(worstDirect)
			if factor > 4 {
				factorOK = false
			}
			t.AddRow(cfg.name, algo.Name(), level, ej, worstDirect, worstDoubling, factor)
		}
	}
	t.AddCheck("rendezvous without knowing E", allMet, "all executions of the doubling wrapper met")
	t.AddCheck("telescoping overhead bounded", factorOK, "doubling/direct worst-time factor <= 4 everywhere")
	return t, nil
}

// E10TradeoffCurve regenerates the paper's headline tradeoff picture:
// the (cost, time) frontier of all algorithms at a fixed E and L. Cheap
// anchors the cheap-but-slow end, Fast the fast-but-costly end, and the
// FastWithRelabeling family interpolates.
func E10TradeoffCurve(opts Options) (*Table, error) {
	// Row labels, one per search: the oracle reference point first,
	// then the algorithm family over one shared label sample.
	names := []string{
		"oracle-wait-for-mate", "cheap-simultaneous", "cheap",
		"fwr(w=1)", "fwr(w=2)", "fwr(w=3)", "fwr(w=4)", "fast",
	}
	runs, err := opts.runDocument("E10", len(names))
	if err != nil {
		return nil, err
	}
	if err := allMet(runs); err != nil {
		return nil, err
	}
	n, L, e := runs[0].doc.Graph.N, runs[0].doc.L, runs[0].e
	t := &Table{
		ID:      "E10",
		Title:   fmt.Sprintf("Time-versus-cost tradeoff frontier (oriented ring n=%d, L=%d)", n, L),
		Claim:   "Cheap and Fast capture the tradeoff between time and cost of rendezvous almost tightly; FastWithRelabeling interpolates",
		Columns: []string{"algorithm", "worst cost", "cost/E", "worst time", "time/E", "time·cost/E²"},
		Notes: []string{
			"oracle-wait-for-mate is the E/E reference point (it assumes knowledge the model forbids)",
			"rows sorted by worst cost: moving down the table buys time with cost, tracing the tradeoff curve",
		},
	}
	type point struct {
		name       string
		cost, time int
	}
	points := make([]point, len(runs))
	for i, r := range runs {
		points[i] = point{names[i], r.wc.Cost.Value, r.wc.Time.Value}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].cost != points[j].cost {
			return points[i].cost < points[j].cost
		}
		return points[i].time < points[j].time
	})
	for _, p := range points {
		t.AddRow(p.name, p.cost, float64(p.cost)/float64(e), p.time, float64(p.time)/float64(e),
			float64(p.time)*float64(p.cost)/float64(e*e))
	}

	byName := make(map[string]point, len(points))
	for _, p := range points {
		byName[p.name] = p
	}
	cheapEnd := byName["cheap-simultaneous"].cost <= e && byName["cheap-simultaneous"].time > byName["fast"].time
	fastEnd := byName["fast"].time < byName["cheap"].time && byName["fast"].cost > byName["cheap"].cost
	interp := byName["fwr(w=2)"].cost < byName["fast"].cost && byName["fwr(w=2)"].time < byName["cheap-simultaneous"].time
	t.AddCheck("Cheap anchors the low-cost end", cheapEnd, "cost <= E but time above Fast's")
	t.AddCheck("Fast anchors the low-time end", fastEnd, "time below Cheap's but cost above Cheap's")
	t.AddCheck("FastWithRelabeling interpolates", interp, "fwr(w=2) beats Fast on cost and Cheap on time")
	return t, nil
}

// E11Separation reproduces the separation of Section 1.3: Algorithm
// FastWithRelabeling solves rendezvous at cost O(E) while beating the
// Ω(EL) time that Theorem 3.1 imposes on every cost-(E+o(E)) algorithm:
// cost Θ(E) is strictly weaker than cost E+o(E).
func E11Separation(opts Options) (*Table, error) {
	t := &Table{
		ID:      "E11",
		Title:   "Separation: cost Θ(E) rendezvous in time o(EL) (Section 1.3)",
		Claim:   "FastWithRelabeling(2) works at cost O(E) and in time O(L^{1/2}E), so the Ω(EL) time bound for cost E+o(E) does not extend to cost Θ(E)",
		Columns: []string{"L", "cheap-sim time/E", "fwr(2) time/E", "time ratio", "fwr(2) cost/E", "fast cost/E"},
	}
	// Per L, the document lists cheap-sim, fwr(2) and fast.
	runs, err := opts.runDocument("E11", 12)
	if err != nil {
		return nil, err
	}
	if err := allMet(runs); err != nil {
		return nil, err
	}
	sepOK, costOK := true, true
	var ratios []float64
	for i := 0; i < len(runs); i += 3 {
		cheapWC, fwrWC, fastWC := runs[i].wc, runs[i+1].wc, runs[i+2].wc
		e := runs[i].e
		ratio := float64(cheapWC.Time.Value) / float64(fwrWC.Time.Value)
		ratios = append(ratios, ratio)
		if fwrWC.Cost.Value > core.RelabelingCostSafe(e, 2) {
			costOK = false
		}
		t.AddRow(runs[i].doc.L, float64(cheapWC.Time.Value)/float64(e), float64(fwrWC.Time.Value)/float64(e),
			ratio, float64(fwrWC.Cost.Value)/float64(e), float64(fastWC.Cost.Value)/float64(e))
	}
	// The separation widens with L: Θ(L) vs Θ(L^{1/2}).
	for i := 1; i < len(ratios); i++ {
		if ratios[i] <= ratios[i-1] {
			sepOK = false
		}
	}
	t.AddCheck("time separation widens with L", sepOK, "cheap-sim/fwr(2) worst-time ratios %v", ratios)
	t.AddCheck("fwr(2) cost stays O(E)", costOK, "worst cost <= (4·2+2)E across the sweep")
	return t, nil
}
