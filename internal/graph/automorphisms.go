package graph

// Port-preserving automorphisms.
//
// In Miller & Pelc's model agents navigate exclusively by port numbers:
// an agent's whole trajectory is a deterministic function of its
// schedule and of the local port structure it observes (degrees, ports
// taken, ports of entry). A node bijection φ therefore carries
// executions onto executions — same meeting round, same traversal
// counts — exactly when it preserves that structure:
//
//	Neighbor(v, p) = (u, q)  ⇒  Neighbor(φ(v), p) = (φ(u), q)
//
// for every node v and port p. Such φ are the port-preserving
// automorphisms. They are far more rigid than abstract graph
// automorphisms: because ports at a node are distinct, the image of one
// node forces the image of each of its neighbors (follow the same
// port), so a port-preserving automorphism of a connected graph is
// determined by the image of any single node and the whole group has at
// most n elements. Consequently the full group is computable exactly in
// O(n·(n+m)) time — no refinement heuristics needed — and families with
// consistently-labeled ports (oriented rings, oriented tori, hypercubes,
// circulant complete graphs) attain the maximum |Aut| = n, while the
// insertion-order labelings of paths, stars, grids and Complete break
// every non-trivial symmetry (the adversary can tell starts apart by
// entry ports alone).
//
// The adversary-search engine quotients its start-pair space by this
// group (internal/orbits): two start pairs in the same orbit produce
// identical worst-case contributions for every algorithm, explorer
// schedule and delay, so only one representative per orbit need run.

// Automorphism is a port-preserving automorphism, represented as the
// image table perm[v] = φ(v).
type Automorphism []int

// IsAutomorphism reports whether perm is a port-preserving automorphism
// of g: a bijection on nodes that maps every half-edge (v, p) → (u, q)
// onto (perm[v], p) → (perm[u], q).
func (g *Graph) IsAutomorphism(perm Automorphism) bool {
	n := g.N()
	if len(perm) != n {
		return false
	}
	seen := make([]bool, n)
	for _, w := range perm {
		if w < 0 || w >= n || seen[w] {
			return false
		}
		seen[w] = true
	}
	for v := 0; v < n; v++ {
		if g.Degree(perm[v]) != g.Degree(v) {
			return false
		}
		for p := 0; p < g.Degree(v); p++ {
			u, q := g.Neighbor(v, p)
			u2, q2 := g.Neighbor(perm[v], p)
			if u2 != perm[u] || q2 != q {
				return false
			}
		}
	}
	return true
}

// Automorphisms returns every port-preserving automorphism of g, in
// deterministic order (sorted by the image of node 0). The identity is
// always included. The generic algorithm anchors node 0 at each
// candidate image and propagates the forced mapping along ports,
// rejecting candidates on the first inconsistency — O(n+m) per
// candidate, O(n·(n+m)) total; recognized canonical families (the
// oriented ring) shortcut to their closed-form group, which the generic
// propagation provably reproduces (pinned by tests).
func Automorphisms(g *Graph) []Automorphism {
	n := g.N()
	if n == 0 {
		return []Automorphism{{}}
	}
	if IsCanonicalOrientedRing(g) {
		return RingRotations(n)
	}
	auts := make([]Automorphism, 0, 1)
	for w := 0; w < n; w++ {
		if perm, ok := anchoredAutomorphism(g, w); ok {
			auts = append(auts, perm)
		}
	}
	return auts
}

// anchoredAutomorphism attempts to extend the assignment φ(0) = w to a
// full port-preserving automorphism by propagating along ports, and
// reports whether the extension is consistent. On a connected graph the
// extension is unique if it exists.
func anchoredAutomorphism(g *Graph, w int) (Automorphism, bool) {
	n := g.N()
	if g.Degree(w) != g.Degree(0) {
		return nil, false
	}
	perm := make(Automorphism, n)
	inv := make([]int, n)
	for i := range perm {
		perm[i] = -1
		inv[i] = -1
	}
	perm[0], inv[w] = w, 0
	queue := make([]int, 0, n)
	queue = append(queue, 0)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for p := 0; p < g.Degree(v); p++ {
			u, q := g.Neighbor(v, p)
			u2, q2 := g.Neighbor(perm[v], p)
			if q2 != q {
				return nil, false
			}
			if perm[u] >= 0 {
				if perm[u] != u2 {
					return nil, false
				}
				continue
			}
			if inv[u2] >= 0 || g.Degree(u2) != g.Degree(u) {
				return nil, false
			}
			perm[u], inv[u2] = u2, u
			queue = append(queue, u)
		}
	}
	// Connectivity gives full coverage; Validate()'d graphs cannot leave
	// holes, but a defensive scan keeps the contract independent of it.
	for _, img := range perm {
		if img < 0 {
			return nil, false
		}
	}
	return perm, true
}

// RingRotations returns the automorphism group of the canonical
// oriented ring OrientedRing(n): the n clockwise rotations
// φ_k(v) = (v+k) mod n. Reflections are NOT port-preserving — they
// swap the clockwise port 0 with the counterclockwise port 1, which an
// agent can observe — so the group is exactly cyclic.
func RingRotations(n int) []Automorphism {
	auts := slabGroup(n, n)
	for k, perm := range auts {
		for v := range perm {
			w := v + k
			if w >= n {
				w -= n
			}
			perm[v] = w
		}
	}
	return auts
}

// slabGroup returns k automorphisms of n nodes carved from one backing
// array, each capped at its own length so an append to one cannot
// overwrite the next: the closed-form groups cost two allocations
// instead of k+1.
func slabGroup(k, n int) []Automorphism {
	slab := make([]int, k*n)
	auts := make([]Automorphism, k)
	for i := range auts {
		auts[i] = slab[i*n : (i+1)*n : (i+1)*n]
	}
	return auts
}

// TorusTranslations returns the automorphism group of the oriented
// torus Torus(rows, cols): the rows·cols translations
// φ_{dr,dc}(r, c) = (r+dr mod rows, c+dc mod cols). Row/column swaps
// and reflections are not port-preserving (they permute the four
// direction ports), so the group is exactly the translation lattice.
func TorusTranslations(rows, cols int) []Automorphism {
	n := rows * cols
	auts := slabGroup(n, n)
	for dr := 0; dr < rows; dr++ {
		for dc := 0; dc < cols; dc++ {
			perm := auts[dr*cols+dc]
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					perm[r*cols+c] = ((r+dr)%rows)*cols + (c+dc)%cols
				}
			}
		}
	}
	return auts
}

// HypercubeTranslations returns the automorphism group of the
// dimension-consistent hypercube Hypercube(d): the 2^d bit-flip
// translations φ_m(v) = v XOR m. Coordinate permutations, though
// adjacency-preserving, relabel which port flips which bit and so are
// not port-preserving; the group is exactly the translation group
// (Z/2)^d.
func HypercubeTranslations(d int) []Automorphism {
	n := 1 << d
	auts := slabGroup(n, n)
	for m, perm := range auts {
		for v := range perm {
			perm[v] = v ^ m
		}
	}
	return auts
}

// CirculantRotations returns the automorphism group of
// CirculantComplete(n): the n rotations φ_k(v) = (v+k) mod n. With the
// circulant port labeling every rotation preserves ports; no port
// labeling of K_n can do better, since a port-preserving automorphism
// group never exceeds n elements.
func CirculantRotations(n int) []Automorphism {
	return RingRotations(n)
}
