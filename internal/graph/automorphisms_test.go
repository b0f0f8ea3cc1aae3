package graph

import (
	"math/rand"
	"testing"
)

// TestFamilyGeneratorsAreGenuineAutomorphisms: every per-family
// generator produces permutations that preserve adjacency AND port
// labels on its family, at several small sizes.
func TestFamilyGeneratorsAreGenuineAutomorphisms(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		auts []Automorphism
	}{
		{"ring-3", OrientedRing(3), RingRotations(3)},
		{"ring-6", OrientedRing(6), RingRotations(6)},
		{"ring-7", OrientedRing(7), RingRotations(7)},
		{"torus-3x3", Torus(3, 3), TorusTranslations(3, 3)},
		{"torus-3x4", Torus(3, 4), TorusTranslations(3, 4)},
		{"torus-4x4", Torus(4, 4), TorusTranslations(4, 4)},
		{"hypercube-1", Hypercube(1), HypercubeTranslations(1)},
		{"hypercube-3", Hypercube(3), HypercubeTranslations(3)},
		{"hypercube-4", Hypercube(4), HypercubeTranslations(4)},
		{"circulant-2", CirculantComplete(2), CirculantRotations(2)},
		{"circulant-5", CirculantComplete(5), CirculantRotations(5)},
		{"circulant-6", CirculantComplete(6), CirculantRotations(6)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.g.Validate(); err != nil {
				t.Fatal(err)
			}
			for i, a := range tc.auts {
				if !tc.g.IsAutomorphism(a) {
					t.Errorf("generator %d (%v) is not a port-preserving automorphism", i, a)
				}
			}
		})
	}
}

// TestAutomorphismsMatchFamilyGenerators: the generic anchored search
// finds exactly the closed-form group on every consistently-labeled
// family — no more (the groups are provably maximal at |Aut| = n) and
// no fewer.
func TestAutomorphismsMatchFamilyGenerators(t *testing.T) {
	key := func(a Automorphism) [32]int {
		var k [32]int
		for i, v := range a {
			k[i] = v + 1
		}
		return k
	}
	cases := []struct {
		name string
		g    *Graph
		want []Automorphism
	}{
		{"ring-5", OrientedRing(5), RingRotations(5)},
		{"ring-6", OrientedRing(6), RingRotations(6)},
		{"torus-3x3", Torus(3, 3), TorusTranslations(3, 3)},
		{"torus-3x4", Torus(3, 4), TorusTranslations(3, 4)},
		{"hypercube-3", Hypercube(3), HypercubeTranslations(3)},
		{"circulant-5", CirculantComplete(5), CirculantRotations(5)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Automorphisms(tc.g)
			if len(got) != len(tc.want) {
				t.Fatalf("|Aut| = %d, want %d", len(got), len(tc.want))
			}
			wantSet := make(map[[32]int]bool, len(tc.want))
			for _, a := range tc.want {
				wantSet[key(a)] = true
			}
			for _, a := range got {
				if !wantSet[key(a)] {
					t.Errorf("unexpected automorphism %v", a)
				}
			}
		})
	}
}

// TestAutomorphismsTrivialOnInsertionOrderFamilies: insertion-order
// port labelings break every symmetry — the generic search must find
// only the identity on paths (n >= 3), stars, grids, binary trees and
// the increasing-order Complete, because an agent can distinguish the
// "symmetric-looking" nodes by the ports it observes.
func TestAutomorphismsTrivialOnInsertionOrderFamilies(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
	}{
		{"path-3", Path(3)},
		{"path-5", Path(5)},
		{"star-5", Star(5)},
		{"grid-3x3", Grid(3, 3)},
		{"binary-tree-7", CompleteBinaryTree(7)},
		{"complete-4", Complete(4)},
		{"complete-5", Complete(5)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			auts := Automorphisms(tc.g)
			if len(auts) != 1 {
				t.Fatalf("|Aut| = %d, want 1 (identity only): %v", len(auts), auts)
			}
			for v, img := range auts[0] {
				if img != v {
					t.Fatalf("sole automorphism is not the identity: %v", auts[0])
				}
			}
		})
	}
}

// TestAutomorphismsEdgeCases: the identity is always present, the
// 2-node path admits its swap (both endpoints look identical through
// ports), and the empty graph yields the empty identity.
func TestAutomorphismsEdgeCases(t *testing.T) {
	if auts := Automorphisms(&Graph{}); len(auts) != 1 || len(auts[0]) != 0 {
		t.Errorf("empty graph: got %v, want the empty identity", auts)
	}
	auts := Automorphisms(Path(2))
	if len(auts) != 2 {
		t.Fatalf("path-2: |Aut| = %d, want 2 (identity + swap)", len(auts))
	}
	if !Path(2).IsAutomorphism(Automorphism{1, 0}) {
		t.Error("path-2 swap should be port-preserving")
	}
	id := Automorphisms(OrientedRing(5))[0]
	for v, img := range id {
		if img != v {
			t.Fatalf("first automorphism (sorted by image of 0) must be the identity, got %v", id)
		}
	}
}

// TestRingReflectionsAreNotPortPreserving documents why the oriented
// ring's group is rotations-only: a reflection swaps the clockwise
// port 0 with the counterclockwise port 1, which agents observe.
func TestRingReflectionsAreNotPortPreserving(t *testing.T) {
	n := 6
	g := OrientedRing(n)
	reflect := make(Automorphism, n)
	for v := 0; v < n; v++ {
		reflect[v] = (n - v) % n
	}
	if g.IsAutomorphism(reflect) {
		t.Error("reflection must not be port-preserving on the oriented ring")
	}
}

// TestIsAutomorphismRejectsMalformedInput: wrong length, non-bijective
// tables and adjacency-breaking permutations are all rejected.
func TestIsAutomorphismRejectsMalformedInput(t *testing.T) {
	g := OrientedRing(5)
	if g.IsAutomorphism(Automorphism{0, 1, 2}) {
		t.Error("short table accepted")
	}
	if g.IsAutomorphism(Automorphism{0, 0, 1, 2, 3}) {
		t.Error("non-bijection accepted")
	}
	if g.IsAutomorphism(Automorphism{0, 1, 2, 4, 3}) {
		t.Error("adjacency-breaking permutation accepted")
	}
	if g.IsAutomorphism(Automorphism{0, 1, 2, 3, 7}) {
		t.Error("out-of-range image accepted")
	}
	if !g.IsAutomorphism(Automorphism{1, 2, 3, 4, 0}) {
		t.Error("genuine rotation rejected")
	}
}

// TestOrbitCountsHandComputed pins the start-pair orbit structure the
// search engine's reduction relies on, against hand-computed values:
// ordered distinct pairs fall into n-1 orbits on the oriented ring
// (one per clockwise gap), n-1 orbits on the oriented torus and
// circulant complete graph (translations act freely), and stay fully
// distinct (n(n-1)) on the asymmetric Complete.
func TestOrbitCountsHandComputed(t *testing.T) {
	countOrbits := func(g *Graph) int {
		n := g.N()
		auts := Automorphisms(g)
		seen := make(map[[2]int]bool)
		orbits := 0
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u == v || seen[[2]int{u, v}] {
					continue
				}
				orbits++
				for _, a := range auts {
					seen[[2]int{a[u], a[v]}] = true
				}
			}
		}
		return orbits
	}
	cases := []struct {
		name string
		g    *Graph
		want int
	}{
		{"ring-5", OrientedRing(5), 4},
		{"ring-6", OrientedRing(6), 5},
		{"torus-3x3", Torus(3, 3), 8},
		{"torus-4x4", Torus(4, 4), 15},
		{"hypercube-3", Hypercube(3), 7},
		{"circulant-5", CirculantComplete(5), 4},
		{"complete-5", Complete(5), 20},
		{"star-4", Star(4), 12},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := countOrbits(tc.g); got != tc.want {
				t.Errorf("orbit count = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestShuffledPortsBreakSymmetry: port shuffling is exactly what
// destroys port-preserving symmetry — the shuffled ring's group
// collapses (almost surely to the identity), which is why the engine
// computes the group per graph instead of assuming it per family.
func TestShuffledPortsBreakSymmetry(t *testing.T) {
	g := Ring(9, rand.New(rand.NewSource(7)))
	auts := Automorphisms(g)
	if len(auts) >= 9 {
		t.Errorf("shuffled ring kept %d automorphisms; shuffling should break the rotation group", len(auts))
	}
	for _, a := range auts {
		if !g.IsAutomorphism(a) {
			t.Errorf("reported automorphism %v fails verification", a)
		}
	}
}

// TestCirculantCompleteStructure: the circulant labeling still builds
// K_n — every ordered pair adjacent, degree n-1 — and stays valid.
func TestCirculantCompleteStructure(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		g := CirculantComplete(n)
		if err := g.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if g.N() != n || g.M() != n*(n-1)/2 {
			t.Fatalf("n=%d: N=%d M=%d", n, g.N(), g.M())
		}
		for v := 0; v < n; v++ {
			if g.Degree(v) != n-1 {
				t.Fatalf("n=%d: degree(%d) = %d", n, v, g.Degree(v))
			}
		}
	}
}

// TestTorusPortsAreDirectionConsistent pins the oriented torus
// labeling contract the symmetry layer and TorusTranslations rely on:
// port 0 = east entering 1, port 2 = south entering 3, at every node.
func TestTorusPortsAreDirectionConsistent(t *testing.T) {
	rows, cols := 3, 4
	g := Torus(rows, cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if to, entry := g.Neighbor(id(r, c), 0); to != id(r, (c+1)%cols) || entry != 1 {
				t.Fatalf("(%d,%d) port 0: got (%d,%d), want east", r, c, to, entry)
			}
			if to, entry := g.Neighbor(id(r, c), 2); to != id((r+1)%rows, c) || entry != 3 {
				t.Fatalf("(%d,%d) port 2: got (%d,%d), want south", r, c, to, entry)
			}
		}
	}
}

// TestClosedFormGroupAllocs bounds the allocations of the ring's
// closed-form group on the largest ring the daemon serves by a
// constant: the rotations share one backing slab rather than taking an
// allocation each.
func TestClosedFormGroupAllocs(t *testing.T) {
	g := OrientedRing(512)
	allocs := testing.AllocsPerRun(5, func() { Automorphisms(g) })
	if allocs > 4 {
		t.Errorf("Automorphisms(ring512) made %.0f allocations, want <= 4", allocs)
	}
}

// TestSlabGroupMembersAreCapped: the closed-form groups share one
// backing array, so each member's capacity must end at its own length
// — an append to one automorphism must not overwrite the next.
func TestSlabGroupMembersAreCapped(t *testing.T) {
	for name, auts := range map[string][]Automorphism{
		"ring-5":      RingRotations(5),
		"torus-3x4":   TorusTranslations(3, 4),
		"hypercube-3": HypercubeTranslations(3),
	} {
		next := append(Automorphism(nil), auts[1]...)
		_ = append(auts[0], -1)
		for v, img := range auts[1] {
			if img != next[v] {
				t.Fatalf("%s: appending to member 0 overwrote member 1: %v, want %v", name, auts[1], next)
			}
		}
	}
}
