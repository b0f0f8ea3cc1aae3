package bench

import (
	"rendezvous/internal/core"
)

// E15ExplorerSensitivity measures how the choice of EXPLORE — and hence
// the benchmark parameter E — propagates into rendezvous performance.
// Section 1.2 argues that a sharper E improves everything linearly:
// the algorithms' guarantees are all of the form c(L)·E, so running the
// same algorithm on the same graph with a slack-free exploration
// (E = n-1 ring sweep) versus a slack-heavy one (DFS's 2n-2, the
// rotor-router's simulated cover time, the unmarked-map Θ(n²) DFS)
// should change absolute time proportionally to E while the time/E
// ratio stays within the same band.
func E15ExplorerSensitivity(opts Options) (*Table, error) {
	t := &Table{
		ID:      "E15",
		Title:   "Sensitivity to the exploration procedure (Section 1.2)",
		Claim:   "time and cost of rendezvous scale linearly in E: sharper explorations improve everything proportionally, and the time/E ratio is explorer-independent",
		Columns: []string{"graph", "explorer", "E", "worst time", "time/E", "worst cost", "cost/E", "Fast bound/E"},
		Notes: []string{
			"same algorithm (Fast, L=8), same graphs, same adversary; only EXPLORE changes",
			"rotor-router explores without a map (agent-private rotors); its E is the exact simulated worst-case cover time",
			"sweep sizes (n up to 20, unmarked-map E up to 1520) rely on the engine's meeting-table tier; the generic executor pays O(|schedule|·E) per execution and previously capped this table at n ≈ 12",
		},
	}
	// Row labels, one per search; the document groups each graph's
	// explorers together.
	names := []string{
		"oriented-ring-16", "oriented-ring-16", "oriented-ring-16", "oriented-ring-16",
		"tree-14", "tree-14", "tree-14",
		"torus-4x4", "torus-4x4", "torus-4x4", "torus-4x4",
		"grid-4x5", "grid-4x5",
	}
	runs, err := opts.runDocument("E15", len(names))
	if err != nil {
		return nil, err
	}
	if err := allMet(runs); err != nil {
		return nil, err
	}
	allBounded := true
	ratiosTight := true
	for i, r := range runs {
		e, wc := r.e, r.wc
		bound := core.FastTimeBound(e, r.doc.L)
		if wc.Time.Value > bound {
			allBounded = false
		}
		timePerE := float64(wc.Time.Value) / float64(e)
		boundPerE := float64(bound) / float64(e)
		if timePerE > boundPerE {
			ratiosTight = false
		}
		t.AddRow(names[i], r.doc.Explorer, e, wc.Time.Value, timePerE, wc.Cost.Value,
			float64(wc.Cost.Value)/float64(e), boundPerE)
	}
	t.AddCheck("Prop 2.2 holds for every explorer", allBounded, "time <= (4log(L-1)+9)E with each explorer's own E")
	t.AddCheck("time/E ratio explorer-independent", ratiosTight, "the normalized worst case never exceeds the normalized bound")
	return t, nil
}
