package bench

import (
	"fmt"
	"math"

	"rendezvous/internal/core"
	"rendezvous/internal/scenario"
)

// E1CheapSimultaneous reproduces the simultaneous-start variant of
// Algorithm Cheap (Section 1.3 / Section 2): cost exactly E in the
// worst case and time at most ℓE ≤ (L-1)E, exhaustively over all label
// pairs and all ring offsets.
func E1CheapSimultaneous(opts Options) (*Table, error) {
	t := &Table{
		ID:      "E1",
		Title:   "Algorithm Cheap, simultaneous start, oriented rings",
		Claim:   "a version of Algorithm Cheap for simultaneous start has cost exactly E (worst case) and time at most ℓE",
		Columns: []string{"n", "E", "L", "worst cost", "claim cost=E", "worst time", "bound (L-1)E", "time/EL"},
		Notes: []string{
			"'cost exactly E' is worst-case: with the optimal ring sweep the adversary forces the full exploration; executions that meet earlier cost less",
		},
	}
	runs, err := opts.runDocument("E1", 9)
	if err != nil {
		return nil, err
	}
	if err := allMet(runs); err != nil {
		return nil, err
	}
	costOK, timeOK := true, true
	for _, r := range runs {
		e, L := r.e, r.doc.L
		if r.wc.Cost.Value != e {
			costOK = false
		}
		if r.wc.Time.Value > (L-1)*e {
			timeOK = false
		}
		t.AddRow(r.doc.Graph.N, e, L, r.wc.Cost.Value, e, r.wc.Time.Value, (L-1)*e,
			float64(r.wc.Time.Value)/float64(e*L))
	}
	t.AddCheck("cost exactly E (worst case)", costOK, "every configuration's worst cost equals E")
	t.AddCheck("time <= (L-1)E", timeOK, "every configuration's worst time within the per-label bound")
	return t, nil
}

// E2CheapArbitraryDelay reproduces Proposition 2.1: the general
// Algorithm Cheap meets at cost at most 3E and in time at most
// (2ℓ+3)E ≤ (2L+1)E, for arbitrary wake-up delays, on several graph
// families.
func E2CheapArbitraryDelay(opts Options) (*Table, error) {
	t := &Table{
		ID:      "E2",
		Title:   "Algorithm Cheap, arbitrary delays (Proposition 2.1)",
		Claim:   "Algorithm Cheap completes rendezvous with cost at most 3E and in time at most (2L+1)E",
		Columns: []string{"graph", "explorer", "E", "L", "delays", "worst cost", "3E", "worst time", "(2L+1)E"},
	}
	// Row labels the document cannot spell, one per search.
	names := []string{"ring-18", "ring-18/dfs", "tree-10", "tree-16", "torus-3x4", "torus-4x4",
		"star-9", "grid-3x3", "grid-4x4", "grid-3x3-unmarked"}
	runs, err := opts.runDocument("E2", len(names))
	if err != nil {
		return nil, err
	}
	if err := allMet(runs); err != nil {
		return nil, err
	}
	costOK, timeOK := true, true
	for i, r := range runs {
		e, L := r.e, r.doc.L
		if r.wc.Cost.Value > core.CheapCostBound(e) {
			costOK = false
		}
		if r.wc.Time.Value > core.CheapWorstTimeBound(e, L) {
			timeOK = false
		}
		t.AddRow(names[i], r.doc.Explorer, e, L, fmt.Sprint(scenario.DelaysFor(e)),
			r.wc.Cost.Value, core.CheapCostBound(e), r.wc.Time.Value, core.CheapWorstTimeBound(e, L))
	}
	t.AddCheck("Prop 2.1: cost <= 3E", costOK, "across all graphs, delays, label and start pairs")
	t.AddCheck("Prop 2.1: time <= (2L+1)E", timeOK, "across all graphs, delays, label and start pairs")
	return t, nil
}

// E3Fast reproduces Proposition 2.2: Algorithm Fast meets in time at
// most (4·log(L-1)+9)E and cost at most twice that, with the
// logarithmic growth in L visible in the measured worst cases.
func E3Fast(opts Options) (*Table, error) {
	t := &Table{
		ID:      "E3",
		Title:   "Algorithm Fast (Proposition 2.2), oriented ring n=24",
		Claim:   "Algorithm Fast completes rendezvous in time at most (4log(L-1)+9)E and at cost at most (8log(L-1)+18)E",
		Columns: []string{"L", "pairs", "worst time", "time bound", "time/E", "worst cost", "cost bound", "cost/E"},
		Notes: []string{
			"L <= 32 is exhaustive over label pairs; larger L uses seeded sampling plus the structurally adversarial pairs (shared transformed-label prefixes)",
		},
	}
	runs, err := opts.runDocument("E3", 10)
	if err != nil {
		return nil, err
	}
	if err := allMet(runs); err != nil {
		return nil, err
	}
	timeOK, costOK := true, true
	var prevTimePerE float64
	monotone := true
	for _, r := range runs {
		e, L, wc := r.e, r.doc.L, r.wc
		pairs := L * (L - 1)
		if s := r.doc.LabelSample; s != nil {
			pairs = min(s.Count, pairs)
		}
		timeBound := core.FastTimeBound(e, L)
		costBound := core.FastCostBound(e, L)
		if wc.Time.Value > timeBound {
			timeOK = false
		}
		if wc.Cost.Value > costBound {
			costOK = false
		}
		timePerE := float64(wc.Time.Value) / float64(e)
		if timePerE < prevTimePerE {
			monotone = false
		}
		prevTimePerE = timePerE
		t.AddRow(L, pairs, wc.Time.Value, timeBound, timePerE, wc.Cost.Value, costBound,
			float64(wc.Cost.Value)/float64(e))
	}
	t.AddCheck("Prop 2.2: time <= (4log(L-1)+9)E", timeOK, "across the L sweep")
	t.AddCheck("Prop 2.2: cost <= (8log(L-1)+18)E", costOK, "across the L sweep")
	t.AddCheck("time grows ~logarithmically in L", monotone, "worst time/E non-decreasing, bounded by the O(log L) envelope")
	return t, nil
}

// E4FastWithRelabeling reproduces Proposition 2.3: cost O(w·E) and time
// at most (4t+5)E where C(t, w) >= L, sweeping both w and L.
func E4FastWithRelabeling(opts Options) (*Table, error) {
	t := &Table{
		ID:      "E4",
		Title:   "Algorithm FastWithRelabeling(w) (Proposition 2.3), oriented ring n=24",
		Claim:   "FastWithRelabeling(w) completes rendezvous at cost at most (2w)E and in time at most (4t+5)E, C(t,w) >= L",
		Columns: []string{"w", "L", "t", "worst time", "(4t+5)E", "worst cost", "claimed 2wE", "safe (4w+2)E"},
		Notes: []string{
			"the paper's stated cost constant 2wE charges each 1 of the new label once, but Algorithm 2's schedule doubles every bit and prepends an exploration; the literal schedule obeys (4w+2)E (see core.RelabelingCostClaimed)",
		},
	}
	runs, err := opts.runDocument("E4", 21)
	if err != nil {
		return nil, err
	}
	if err := allMet(runs); err != nil {
		return nil, err
	}
	timeOK, costSafeOK := true, true
	claimedHolds := true
	for _, r := range runs {
		e, L, wc := r.e, r.doc.L, r.wc
		algo, w, err := relabeling(r.doc)
		if err != nil {
			return nil, err
		}
		if wc.Time.Value > core.RelabelingTimeBound(e, L, w) {
			timeOK = false
		}
		if wc.Cost.Value > core.RelabelingCostSafe(e, w) {
			costSafeOK = false
		}
		if wc.Cost.Value > core.RelabelingCostClaimed(e, w) {
			claimedHolds = false
		}
		t.AddRow(w, L, algo.T(L), wc.Time.Value, core.RelabelingTimeBound(e, L, w),
			wc.Cost.Value, core.RelabelingCostClaimed(e, w), core.RelabelingCostSafe(e, w))
	}
	t.AddCheck("Prop 2.3: time <= (4t+5)E", timeOK, "across the (w, L) sweep")
	t.AddCheck("cost <= (4w+2)E (literal-schedule bound)", costSafeOK, "across the (w, L) sweep")
	constantNote := "the literal schedule also fits the stated 2wE"
	if !claimedHolds {
		constantNote = "the literal schedule exceeds the stated 2wE constant (expected: T doubles bits); asymptotics Θ(wE) hold"
	}
	t.AddCheck("cost within O(wE) as claimed", costSafeOK, "%s", constantNote)
	return t, nil
}

// E5RelabelScaling reproduces Corollary 2.1: with constant weight
// w(L) = c, FastWithRelabeling has cost O(E) and time O(L^{1/c}·E); the
// measured scaling exponent of worst time against L approaches 1/c.
func E5RelabelScaling(opts Options) (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "Corollary 2.1: time scaling exponent of FastWithRelabeling(c)",
		Claim:   "for constant w(L)=c, FastWithRelabeling works with cost O(E) and in time O(L^{1/c}·E)",
		Columns: []string{"c", "L range", "fitted exponent", "expected 1/c", "max cost/E", "cost bound (4c+2)"},
		Notes: []string{
			"exponent fitted by least squares on log(worst time/E) vs log L; discreteness of t = SmallestT(L,c) flattens small-L points",
		},
	}
	runs, err := opts.runDocument("E5", 18)
	if err != nil {
		return nil, err
	}
	if err := allMet(runs); err != nil {
		return nil, err
	}
	exponentsOK := true
	costFlatOK := true
	// One table row per weight c: the document lists each c's L sweep
	// as a consecutive run of searches.
	for lo := 0; lo < len(runs); {
		hi := lo
		for hi < len(runs) && runs[hi].doc.Algorithm == runs[lo].doc.Algorithm {
			hi++
		}
		group := runs[lo:hi]
		lo = hi
		_, c, err := relabeling(group[0].doc)
		if err != nil {
			return nil, err
		}
		var xs, ys []float64
		maxCostPerE := 0.0
		for _, r := range group {
			xs = append(xs, float64(r.doc.L))
			ys = append(ys, float64(r.wc.Time.Value)/float64(r.e))
			if costPerE := float64(r.wc.Cost.Value) / float64(r.e); costPerE > maxCostPerE {
				maxCostPerE = costPerE
			}
		}
		got := fitExponent(xs, ys)
		want := 1 / float64(c)
		if math.Abs(got-want) > 0.35 {
			exponentsOK = false
		}
		if maxCostPerE > float64(4*c+2) {
			costFlatOK = false
		}
		t.AddRow(c, fmt.Sprintf("%d..%d", group[0].doc.L, group[len(group)-1].doc.L), got, want, maxCostPerE, 4*c+2)
	}
	t.AddCheck("time ~ L^{1/c}", exponentsOK, "fitted exponents within 0.35 of 1/c")
	t.AddCheck("cost O(E), independent of L", costFlatOK, "worst cost/E stays below 4c+2 across the L sweep")
	return t, nil
}

// fitExponent fits the least-squares slope of log(y) against log(x) —
// used to estimate empirical scaling exponents such as Corollary 2.1's
// L^{1/c}.
func fitExponent(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}
