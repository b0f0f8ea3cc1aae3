// Package orbits computes orbit decompositions of adversary start-pair
// spaces under a group of port-preserving graph automorphisms
// (graph.Automorphisms), with canonical representatives and witness
// lift-back maps.
//
// Because a port-preserving automorphism φ carries whole executions
// onto executions — the trajectory of any schedule from φ(v) is the
// φ-image of its trajectory from v — two ordered start pairs in the
// same orbit yield identical Met/Time/Cost outcomes for every label
// pair and every delay. The adversary search therefore executes one
// representative per orbit and still observes the exact worst case.
//
// The canonicalization rule is chosen so reduction is invisible except
// in the execution count: the representative of each orbit is the
// FIRST member of that orbit in the enumeration order of the given
// pair list. Under the engine's first-strictly-greater witness rule,
// the first configuration achieving a maximum in the full enumeration
// always has a representative start pair (its orbit's first member
// achieves the same value no later), so the reduced search reports
// bit-for-bit the same witnesses and values as the unreduced one; only
// Runs shrinks, by a factor of up to |Aut|.
//
// Cost model: Compute writes each representative's |Aut| images into
// two dense tables indexed by p[0]*n + p[1] — an orbit index and an
// index into the automorphism list — so it does O(|reps|·|Aut|) plain
// array writes and holds 2·n² int32 (2 MB at n = 512) regardless of how
// many pairs are listed.
package orbits

import (
	"fmt"

	"rendezvous/internal/graph"
)

// Pairs is the orbit decomposition of an ordered start-pair list.
type Pairs struct {
	n    int
	auts []graph.Automorphism
	reps [][2]int
	// classOf[p[0]*n+p[1]] is p's orbit index, -1 while unclassified.
	classOf []int32
	// via[p[0]*n+p[1]] indexes the automorphism that maps p's
	// representative onto p — the witness lift-back: a worst case
	// observed at the representative transports to the equivalent
	// configuration at p by applying it to both starts. -1 stands for
	// the identity (see Compute).
	via []int32
}

// Compute decomposes pairs into orbits under the given automorphisms,
// which must all be permutations of the same node set [0, n). Pairs are
// classified in list order, so each orbit's representative is its first
// listed member; duplicates join the class of their first occurrence.
// Pair entries outside [0, n) are an error — no orbit action exists
// there.
func Compute(auts []graph.Automorphism, pairs [][2]int) (*Pairs, error) {
	n := 0
	if len(auts) > 0 {
		n = len(auts[0])
	}
	o := &Pairs{
		n:       n,
		auts:    auts,
		classOf: make([]int32, n*n),
		via:     make([]int32, n*n),
	}
	for i := range o.classOf {
		o.classOf[i] = -1
	}
	for i, p := range pairs {
		if p[0] < 0 || p[0] >= n || p[1] < 0 || p[1] >= n {
			return nil, fmt.Errorf("orbits: pair %d = %v out of range [0,%d)", i, p, n)
		}
		at := p[0]*n + p[1]
		if o.classOf[at] >= 0 {
			continue
		}
		class := int32(len(o.reps))
		o.reps = append(o.reps, p)
		for k, a := range auts {
			img := a[p[0]]*n + a[p[1]]
			if o.classOf[img] < 0 {
				o.classOf[img] = class
				o.via[img] = int32(k)
			}
		}
		// Defensive: guarantee the representative is classified even if
		// the caller's group misses the identity.
		if o.classOf[at] < 0 {
			o.classOf[at] = class
			o.via[at] = -1
		}
	}
	return o, nil
}

// index returns p's table index, and false for pairs outside [0, n)².
func (o *Pairs) index(p [2]int) (int, bool) {
	if p[0] < 0 || p[0] >= o.n || p[1] < 0 || p[1] >= o.n {
		return 0, false
	}
	at := p[0]*o.n + p[1]
	return at, o.classOf[at] >= 0
}

// Count returns the number of orbits among the listed pairs.
func (o *Pairs) Count() int { return len(o.reps) }

// Representatives returns one start pair per orbit — the first listed
// member of each — in first-occurrence order, which is a subsequence
// of the original enumeration order. The caller must not mutate it.
func (o *Pairs) Representatives() [][2]int { return o.reps }

// Representative returns the canonical representative of p's orbit,
// and whether p belongs to any computed orbit.
func (o *Pairs) Representative(p [2]int) ([2]int, bool) {
	at, ok := o.index(p)
	if !ok {
		return [2]int{}, false
	}
	return o.reps[o.classOf[at]], true
}

// Lift returns the automorphism carrying p's representative onto p —
// the witness lift-back map: if a worst case is witnessed at starts
// (r0, r1) = Representative(p), the identical outcome occurs at
// (φ(r0), φ(r1)) = p for φ = Lift(p). The caller must not mutate it.
func (o *Pairs) Lift(p [2]int) (graph.Automorphism, bool) {
	at, ok := o.index(p)
	if !ok {
		return nil, false
	}
	if k := o.via[at]; k >= 0 {
		return o.auts[k], true
	}
	id := make(graph.Automorphism, o.n)
	for i := range id {
		id[i] = i
	}
	return id, true
}
