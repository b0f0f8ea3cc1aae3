package bench

import (
	"fmt"
	"math/bits"

	"rendezvous/internal/core"
)

// E14TradeoffCurveFine addresses the paper's stated open problem
// ("establishing the entire precise tradeoff curve ... finding, for each
// cost value between Θ(E) and Θ(E log L), the minimum time of rendezvous
// that can be performed at this cost"), empirically: it charts the
// (cost, time) frontier of the FastWithRelabeling(w) family for every
// weight w from 1 (the Cheap end) to ⌈log L⌉ and beyond (the Fast end),
// at L = 4096 — feasible only with the segment-level ring executor,
// which runs in O(|schedule|) per execution instead of O(|schedule|·E).
//
// The searches are those of examples/scenarios/E14.json; the engine's
// automatic tier dispatch routes every execution on the canonical
// oriented ring with the sweep explorer to exactly that segment-level
// executor.
//
// The paper asks whether FastWithRelabeling is on or near the optimal
// curve; the measured frontier is convex-ish and strictly tradeoff-
// shaped (time falls as cost rises), consistent with it being near-
// optimal between the two proven-tight endpoints.
func E14TradeoffCurveFine(opts Options) (*Table, error) {
	runs, err := opts.runDocument("E14", 15)
	if err != nil {
		return nil, err
	}
	if err := allMet(runs); err != nil {
		return nil, err
	}
	// The document sweeps fwr(w) for w = 1..⌈log L⌉+2, then Fast itself
	// (the far end of the curve).
	n, L, e := runs[0].doc.Graph.N, runs[0].doc.L, runs[0].e
	logL := bits.Len(uint(L - 1)) // ⌈log2 L⌉ = 12
	if len(runs) != logL+3 {
		return nil, fmt.Errorf("bench: E14.json: %d searches, want fwr(1..%d) then fast", len(runs), logL+2)
	}
	t := &Table{
		ID:      "E14",
		Title:   fmt.Sprintf("Fine-grained tradeoff curve (open problem), oriented ring n=%d, L=%d", n, L),
		Claim:   "for each cost value between Θ(E) and Θ(E log L), what is the minimum rendezvous time? (Conclusion, open problem — charted empirically over the FastWithRelabeling family)",
		Columns: []string{"w", "t(L,w)", "worst cost", "cost/E", "worst time", "time/E", "time bound (4t+5)E"},
		Notes: []string{
			"measured with the engine's segment-level ring tier; 160 sampled adversarial label pairs x all 23 offsets x delays {0,1,E}",
			"w sweeps the whole curve: w=1 is the Cheap-like end (time Θ(EL)), w=⌈log L⌉ is the Fast-like end (time Θ(E log L))",
		},
	}

	type point struct {
		w, cost, time int
	}
	var curve []point
	for _, r := range runs[:len(runs)-1] {
		algo, w, err := relabeling(r.doc)
		if err != nil {
			return nil, err
		}
		wc := r.wc
		curve = append(curve, point{w, wc.Cost.Value, wc.Time.Value})
		t.AddRow(w, algo.T(L), wc.Cost.Value, float64(wc.Cost.Value)/float64(e), wc.Time.Value, float64(wc.Time.Value)/float64(e),
			core.RelabelingTimeBound(e, L, w))
	}
	fastWC := runs[len(runs)-1].wc
	t.AddRow("fast", "-", fastWC.Cost.Value, float64(fastWC.Cost.Value)/float64(e), fastWC.Time.Value, float64(fastWC.Time.Value)/float64(e), core.FastTimeBound(e, L))

	// Shape checks: the frontier is a genuine tradeoff — time decreases
	// (weakly, with small-w discreteness) while cost increases.
	timeFalls := curve[len(curve)-1].time < curve[0].time/4
	costRises := curve[len(curve)-1].cost > curve[0].cost
	t.AddCheck("time falls steeply along the curve", timeFalls,
		"w=1 worst time %d vs w=%d worst time %d", curve[0].time, curve[len(curve)-1].w, curve[len(curve)-1].time)
	t.AddCheck("cost rises along the curve", costRises,
		"w=1 worst cost %d vs w=%d worst cost %d", curve[0].cost, curve[len(curve)-1].w, curve[len(curve)-1].cost)

	// Near the Fast end, FWR(⌈log L⌉) should be within a small factor of
	// Fast on both axes.
	end := curve[logL-1]
	nearFast := end.time <= 2*fastWC.Time.Value && fastWC.Cost.Value <= 4*end.cost
	t.AddCheck("FWR(⌈log L⌉) meets the Fast end of the curve", nearFast,
		"fwr(%d): (cost %d, time %d) vs fast: (cost %d, time %d)", logL, end.cost, end.time, fastWC.Cost.Value, fastWC.Time.Value)

	// Monotone frontier (weakly decreasing time in w), allowing
	// discreteness wobble of one E.
	// Finding: the frontier is U-shaped in w, not monotone. The time
	// bound is (4t+5)E with t = SmallestT(L, w), and t(L, w) itself is
	// minimized at an interior w* (increasing w first shrinks t sharply,
	// then t >= w forces it back up). At the minimum, FastWithRelabeling
	// beats Fast on BOTH axes — evidence for the paper's conjecture that
	// the family is at or near the optimal curve, and a sharper picture
	// than the asymptotic endpoints alone suggest.
	curveTimes := make([]int, len(curve))
	argmin := 0
	for i := range curve {
		curveTimes[i] = curve[i].time
		if curve[i].time < curve[argmin].time {
			argmin = i
		}
	}
	uShaped := true
	for i := 1; i <= argmin; i++ {
		if curve[i].time > curve[i-1].time {
			uShaped = false
		}
	}
	for i := argmin + 1; i < len(curve); i++ {
		if curve[i].time+e < curve[i-1].time {
			uShaped = false
		}
	}
	t.AddCheck("frontier is U-shaped with an interior optimum", uShaped,
		"times %v, minimum at w=%d", curveTimes, curve[argmin].w)
	t.AddCheck("interior optimum beats Fast on both axes", curve[argmin].time < fastWC.Time.Value && curve[argmin].cost < fastWC.Cost.Value,
		"fwr(w=%d): (cost %d, time %d) vs fast: (cost %d, time %d)",
		curve[argmin].w, curve[argmin].cost, curve[argmin].time, fastWC.Cost.Value, fastWC.Time.Value)
	return t, nil
}
