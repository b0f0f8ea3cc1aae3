package orbits

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rendezvous/internal/graph"
)

// allPairs returns every ordered distinct pair over n nodes in the
// search engine's canonical enumeration order.
func allPairs(n int) [][2]int {
	pairs := make([][2]int, 0, n*(n-1))
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				pairs = append(pairs, [2]int{u, v})
			}
		}
	}
	return pairs
}

// TestRingOrbits: on the oriented n-ring the ordered distinct pairs
// fall into n-1 orbits keyed by clockwise gap, each represented by its
// first listed member (0, gap).
func TestRingOrbits(t *testing.T) {
	n := 5
	g := graph.OrientedRing(n)
	o, err := Compute(graph.Automorphisms(g), allPairs(n))
	if err != nil {
		t.Fatal(err)
	}
	if o.Count() != n-1 {
		t.Fatalf("Count = %d, want %d", o.Count(), n-1)
	}
	reps := o.Representatives()
	for i, want := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}} {
		if reps[i] != want {
			t.Errorf("reps[%d] = %v, want %v", i, reps[i], want)
		}
	}
	rep, ok := o.Representative([2]int{3, 1})
	if !ok || rep != [2]int{0, 3} {
		t.Errorf("Representative((3,1)) = %v,%v; want (0,3) — gap (1-3) mod 5 = 3", rep, ok)
	}
}

// TestLiftTransportsRepresentatives: for every pair, the lift-back
// automorphism is genuine and carries the representative exactly onto
// the pair.
func TestLiftTransportsRepresentatives(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"ring-6":    graph.OrientedRing(6),
		"torus-3x3": graph.Torus(3, 3),
		"cube-3":    graph.Hypercube(3),
		"grid-2x3":  graph.Grid(2, 3),
	} {
		t.Run(name, func(t *testing.T) {
			pairs := allPairs(g.N())
			o, err := Compute(graph.Automorphisms(g), pairs)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pairs {
				rep, ok := o.Representative(p)
				if !ok {
					t.Fatalf("pair %v unclassified", p)
				}
				phi, ok := o.Lift(p)
				if !ok {
					t.Fatalf("pair %v has no lift", p)
				}
				if !g.IsAutomorphism(phi) {
					t.Fatalf("lift of %v is not an automorphism: %v", p, phi)
				}
				if phi[rep[0]] != p[0] || phi[rep[1]] != p[1] {
					t.Fatalf("lift of %v maps rep %v to (%d,%d)", p, rep, phi[rep[0]], phi[rep[1]])
				}
			}
		})
	}
}

// TestTrivialGroupKeepsEveryPair: with only the identity, every listed
// pair is its own orbit and the representative list is the input.
func TestTrivialGroupKeepsEveryPair(t *testing.T) {
	id := graph.Automorphism{0, 1, 2, 3}
	pairs := [][2]int{{0, 1}, {2, 3}, {3, 0}}
	o, err := Compute([]graph.Automorphism{id}, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if o.Count() != len(pairs) {
		t.Fatalf("Count = %d, want %d", o.Count(), len(pairs))
	}
	for i, p := range pairs {
		if o.Representatives()[i] != p {
			t.Errorf("reps[%d] = %v, want %v", i, o.Representatives()[i], p)
		}
	}
}

// TestDuplicatesAndSubsets: duplicate pairs collapse into their first
// occurrence, and a subset holding several members of one orbit keeps
// only the first.
func TestDuplicatesAndSubsets(t *testing.T) {
	auts := graph.Automorphisms(graph.OrientedRing(6))
	o, err := Compute(auts, [][2]int{{1, 3}, {1, 3}, {4, 0}, {0, 5}})
	if err != nil {
		t.Fatal(err)
	}
	// (1,3) and (4,0) both have gap 2; (0,5) has gap 5.
	if o.Count() != 2 {
		t.Fatalf("Count = %d, want 2", o.Count())
	}
	if reps := o.Representatives(); reps[0] != [2]int{1, 3} || reps[1] != [2]int{0, 5} {
		t.Fatalf("reps = %v", reps)
	}
	if rep, _ := o.Representative([2]int{4, 0}); rep != [2]int{1, 3} {
		t.Errorf("Representative((4,0)) = %v, want (1,3)", rep)
	}
}

// TestComputeErrors: out-of-range pair entries have no orbit action
// and must be rejected, including against the empty group.
func TestComputeErrors(t *testing.T) {
	auts := graph.Automorphisms(graph.OrientedRing(4))
	for _, pairs := range [][][2]int{
		{{0, 4}},
		{{-1, 2}},
		{{9, 9}},
	} {
		if _, err := Compute(auts, pairs); err == nil {
			t.Errorf("pairs %v: want error", pairs)
		}
	}
	if _, err := Compute(nil, [][2]int{{0, 1}}); err == nil {
		t.Error("empty group with nonempty pairs: want out-of-range error")
	}
	o, err := Compute(auts, nil)
	if err != nil || o.Count() != 0 {
		t.Errorf("empty pair list: got %v, %v", o.Count(), err)
	}
	if _, ok := o.Representative([2]int{0, 1}); ok {
		t.Error("unlisted pair must not resolve")
	}
	if _, ok := o.Lift([2]int{0, 1}); ok {
		t.Error("unlisted pair must not lift")
	}
}

// TestMissingIdentityStillClassifiesReps: a caller-supplied group
// without the identity (not produced by graph.Automorphisms, but
// allowed by the signature) must still classify each representative
// into its own orbit.
func TestMissingIdentityStillClassifiesReps(t *testing.T) {
	rot := graph.Automorphism{1, 2, 3, 0} // rotation only, no identity
	o, err := Compute([]graph.Automorphism{rot}, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if o.Count() != 1 {
		t.Fatalf("Count = %d, want 1 ((1,2) is the rotation image of (0,1))", o.Count())
	}
	rep, ok := o.Representative([2]int{0, 1})
	if !ok || rep != [2]int{0, 1} {
		t.Fatalf("representative lost without identity: %v %v", rep, ok)
	}
	if phi, ok := o.Lift([2]int{0, 1}); !ok || phi[0] != 0 {
		t.Fatalf("lift of the representative should be the identity fallback, got %v %v", phi, ok)
	}
}

// refPairs is the map-based decomposition Compute used before its dense
// tables, kept as the oracle of TestDenseMatchesReference.
type refPairs struct {
	reps    [][2]int
	classOf map[[2]int]int
	via     map[[2]int]graph.Automorphism
}

func refCompute(auts []graph.Automorphism, pairs [][2]int) (*refPairs, error) {
	n := 0
	if len(auts) > 0 {
		n = len(auts[0])
	}
	o := &refPairs{
		classOf: make(map[[2]int]int, len(pairs)),
		via:     make(map[[2]int]graph.Automorphism, len(pairs)),
	}
	for i, p := range pairs {
		if p[0] < 0 || p[0] >= n || p[1] < 0 || p[1] >= n {
			return nil, fmt.Errorf("orbits: pair %d = %v out of range [0,%d)", i, p, n)
		}
		if _, seen := o.classOf[p]; seen {
			continue
		}
		class := len(o.reps)
		o.reps = append(o.reps, p)
		for _, a := range auts {
			img := [2]int{a[p[0]], a[p[1]]}
			if _, seen := o.classOf[img]; !seen {
				o.classOf[img] = class
				o.via[img] = a
			}
		}
		if _, seen := o.classOf[p]; !seen {
			id := make(graph.Automorphism, n)
			for i := range id {
				id[i] = i
			}
			o.classOf[p] = class
			o.via[p] = id
		}
	}
	return o, nil
}

// randomGroup draws one automorphism list: a closed group of a
// symmetric family (ring, torus, hypercube, circulant; closed form or
// the generic propagation), or a list that is not a group — a single
// rotation, a group missing its identity, a group with duplicates in
// shuffled order, or arbitrary permutations.
func randomGroup(rng *rand.Rand) (string, []graph.Automorphism) {
	n := 2 + rng.Intn(8)
	switch rng.Intn(9) {
	case 0:
		n = 3 + rng.Intn(8)
		return fmt.Sprintf("ring-%d", n), graph.Automorphisms(graph.OrientedRing(n))
	case 1:
		r, c := 1+rng.Intn(4), 1+rng.Intn(4)
		return fmt.Sprintf("torus-translations-%dx%d", r, c), graph.TorusTranslations(r, c)
	case 2:
		r, c := 3+rng.Intn(2), 3+rng.Intn(2)
		return fmt.Sprintf("torus-%dx%d", r, c), graph.Automorphisms(graph.Torus(r, c))
	case 3:
		d := 1 + rng.Intn(4)
		return fmt.Sprintf("hypercube-%d", d), graph.Automorphisms(graph.Hypercube(d))
	case 4:
		return fmt.Sprintf("circulant-%d", n), graph.Automorphisms(graph.CirculantComplete(n))
	case 5:
		k := rng.Intn(n)
		return fmt.Sprintf("rotation-%d-of-%d", k, n), graph.RingRotations(n)[k : k+1]
	case 6:
		return fmt.Sprintf("ring-%d-without-identity", n), graph.RingRotations(n)[1:]
	case 7:
		group := graph.HypercubeTranslations(rng.Intn(4))
		auts := append([]graph.Automorphism(nil), group...)
		for i := rng.Intn(4); i > 0; i-- {
			auts = append(auts, group[rng.Intn(len(group))])
		}
		rng.Shuffle(len(auts), func(i, j int) { auts[i], auts[j] = auts[j], auts[i] })
		return fmt.Sprintf("hypercube-%d-duplicated-shuffled", len(group)), auts
	default:
		auts := make([]graph.Automorphism, 1+rng.Intn(4))
		for i := range auts {
			auts[i] = rng.Perm(n)
		}
		return fmt.Sprintf("%d-random-permutations-of-%d", len(auts), n), auts
	}
}

// TestDenseMatchesReference is the differential test of the dense
// tables: on seeded random automorphism lists and seeded random pair
// lists with duplicates, Compute agrees with the map-based oracle on
// Count, Representatives, and Representative and Lift of every pair in
// [-1, n]², including those outside every orbit and out of range.
func TestDenseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for c := 0; c < 400; c++ {
		name, auts := randomGroup(rng)
		n := len(auts[0])
		pairs := make([][2]int, rng.Intn(2*n*n+1))
		for i := range pairs {
			pairs[i] = [2]int{rng.Intn(n), rng.Intn(n)}
			if i > 0 && rng.Intn(4) == 0 {
				pairs[i] = pairs[rng.Intn(i)] // duplicate an earlier entry
			}
		}
		if len(pairs) > 0 && rng.Intn(20) == 0 {
			pairs[rng.Intn(len(pairs))] = [2]int{n, rng.Intn(n)} // out of range
		}
		want, wantErr := refCompute(auts, pairs)
		got, err := Compute(auts, pairs)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("case %d %s: error %v, want %v", c, name, err, wantErr)
		}
		if err != nil {
			continue
		}
		if got.Count() != len(want.reps) || !slices.Equal(got.Representatives(), want.reps) {
			t.Fatalf("case %d %s: reps %v, want %v", c, name, got.Representatives(), want.reps)
		}
		for u := -1; u <= n; u++ {
			for v := -1; v <= n; v++ {
				p := [2]int{u, v}
				class, wantOK := want.classOf[p]
				var wantRep [2]int
				if wantOK {
					wantRep = want.reps[class]
				}
				if rep, ok := got.Representative(p); ok != wantOK || rep != wantRep {
					t.Fatalf("case %d %s: Representative(%v) = %v,%v; want %v,%v", c, name, p, rep, ok, wantRep, wantOK)
				}
				phi, ok := got.Lift(p)
				if wantPhi, wantOK := want.via[p]; ok != wantOK || !slices.Equal(phi, wantPhi) {
					t.Fatalf("case %d %s: Lift(%v) = %v,%v; want %v,%v", c, name, p, phi, ok, wantPhi, wantOK)
				}
			}
		}
	}
}

// ringOffsets returns the pairs (0, k), k = 1..n-1: one per orbit of
// the oriented n-ring, so the reduction keeps every pair.
func ringOffsets(n int) [][2]int {
	pairs := make([][2]int, 0, n-1)
	for k := 1; k < n; k++ {
		pairs = append(pairs, [2]int{0, k})
	}
	return pairs
}

// TestComputeAllocs bounds Compute's allocations on the largest ring
// the daemon serves by a constant: the dense tables make the count
// independent of |reps|·|Aut| (262k images here), which a per-image
// allocation would multiply.
func TestComputeAllocs(t *testing.T) {
	auts := graph.Automorphisms(graph.OrientedRing(512))
	offsets := ringOffsets(512)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Compute(auts, offsets); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 32 {
		t.Errorf("Compute(ring512 group, offsets) made %.0f allocations, want <= 32", allocs)
	}
}

func BenchmarkComputeRing512Offsets(b *testing.B) {
	auts := graph.Automorphisms(graph.OrientedRing(512))
	offsets := ringOffsets(512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(auts, offsets); err != nil {
			b.Fatal(err)
		}
	}
}
