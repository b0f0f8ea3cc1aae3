package adversary

import (
	"fmt"

	"rendezvous/internal/resultstore"
	"rendezvous/internal/sim"
)

// Fingerprint returns the canonical content address of the search —
// the resultstore key under which its WorstCase is cached. Requests
// that denote the same computation fingerprint identically however
// they are spelled (see resultstore's canonicalization rules), and
// output-invariant options (Workers, Tier, TableBudget, Context) do
// not contribute: only the symmetry mode does, because it changes
// Runs.
func Fingerprint(spec Spec, space sim.SearchSpace, opts Options) (string, error) {
	return resultstore.Fingerprint(resultstore.Key{
		Graph:       spec.Graph,
		Explorer:    spec.Explorer,
		ScheduleFor: spec.ScheduleFor,
		Space:       space,
		Symmetry:    opts.Symmetry.String(),
	})
}

// ValidateTier reports the dispatch errors that do not depend on the
// search space: an unknown forced tier, and TierRing forced on a spec
// that is not ring-eligible. Every store front runs it before
// consulting the store, because the fingerprint deliberately excludes
// the tier (it is output-invariant for every *valid* configuration) —
// without this check a cache hit could mask the error a cold search
// would return. SearchCached runs it itself; the scenario compiler
// runs it on every paper-model search, which covers every front end
// that compiles through internal/scenario (rdvd's /search and /shard,
// rdvbench, the bench experiments). Every other cold-search error
// either fails Fingerprint too (invalid space, explorer rejecting the
// graph) or recurs on recompute (per-execution errors are never
// stored), so no other hit can mask one.
func ValidateTier(spec Spec, opts Options) error {
	tier := opts.Tier
	switch tier {
	case TierAuto, TierGeneric, TierTable, TierBatch:
		return nil
	case TierRing:
		if !spec.FastPathEligible() {
			return fmt.Errorf("adversary: TierRing forced but the spec is not ring-eligible (graph %v, explorer %s)", spec.Graph, spec.Explorer.Name())
		}
		return nil
	default:
		return fmt.Errorf("adversary: unknown tier %v", tier)
	}
}

// SearchCached is Search fronted by a result store: a fingerprint hit
// returns the stored WorstCase without touching the engine; a miss
// (including one caused by a corrupt record) runs the search and
// writes the result back. The store is best-effort — a failed
// write-back is ignored (the next caller recomputes), and a search
// that cannot be fingerprinted (one the engine would reject anyway,
// or whose explorer rejects the graph) falls through to an uncached
// Search. cached reports whether the result came from the store.
func SearchCached(store *resultstore.Store, spec Spec, space sim.SearchSpace, opts Options) (wc sim.WorstCase, cached bool, err error) {
	if store == nil {
		wc, err = Search(spec, space, opts)
		return wc, false, err
	}
	fp, ferr := Fingerprint(spec, space, opts)
	if ferr != nil {
		wc, err = Search(spec, space, opts)
		return wc, false, err
	}
	if err := ValidateTier(spec, opts); err != nil {
		return sim.WorstCase{}, false, err
	}
	if wc, ok := store.Get(fp); ok {
		return wc, true, nil
	}
	wc, err = Search(spec, space, opts)
	if err != nil {
		return sim.WorstCase{}, false, err
	}
	_ = store.Put(fp, wc) // best-effort: a miss next time just recomputes
	return wc, false, nil
}
