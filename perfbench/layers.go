package main

import (
	"fmt"
	"sort"

	"rendezvous/internal/adversary"
)

// childSumTolerance is how far the sequential children of a search's
// root span (an engine search or a layer probe) may sum away from the
// root's own duration.
const childSumTolerance = 0.10

// finishTrace derives the span-based per-layer metrics, checks that
// every root span's children account for it, and writes the spans and
// the per-layer self times out.
func finishTrace(cfg config, rec *recorder, rep *report) error {
	ss := indexSpans(rec.snapshot())

	set := func(name string, v float64, spanName string) { rep.set(name, v, len(ss.byName[spanName])) }
	set("adversary.plan_ms", ss.meanMs("adversary.plan"), "adversary.plan")
	set("adversary.sweep_ms", ss.meanMs("adversary.sweep"), "adversary.sweep")
	set("adversary.merge_us", ss.meanMs("adversary.merge")*1000, "adversary.merge")
	set("adversary.runs", ss.meanAttr("search", "runs"), "search")
	if kconfigs := ss.sumAttr("search", "configs") / 1000; kconfigs > 0 {
		set("adversary.alloc_mb_per_kconfig", ss.sumAttr("search", "alloc_bytes")/(1<<20)/kconfigs, "search")
	}
	// Tier counts are per distinct search, not per execution.
	tierOf := make(map[string]adversary.Tier)
	for _, s := range ss.byName["search"] {
		tierOf[s.Search] = adversary.Tier(s.Attrs["tier"])
	}
	for _, tier := range []adversary.Tier{adversary.TierRing, adversary.TierBatch, adversary.TierTable, adversary.TierGeneric} {
		n := 0
		for _, t := range tierOf {
			if t == tier {
				n++
			}
		}
		rep.set("adversary.tier_searches."+tier.String(), float64(n), len(tierOf))
	}
	shards := ss.durationsMs("adversary.shard")
	set("adversary.shard_ms_p50", percentile(shards, 50), "adversary.shard")
	set("adversary.shard_ms_max", percentile(shards, 100), "adversary.shard")

	set("orbits.reduce_ms", ss.meanMs("orbits.reduce"), "orbits.reduce")
	if reps := ss.sumAttr("orbits.reduce", "reps"); reps > 0 {
		set("orbits.reduction_ratio", ss.sumAttr("orbits.reduce", "start_pairs")/reps, "orbits.reduce")
	}
	set("meetoracle.table_build_ms", ss.meanMs("meetoracle.table_build"), "meetoracle.table_build")
	set("meetoracle.table_bytes", ss.meanAttr("meetoracle.table_build", "bytes"), "meetoracle.table_build")
	set("meetoracle.precompile_ms", ss.meanMs("meetoracle.precompile"), "meetoracle.precompile")
	set("meetoracle.batch_ns_per_run", ss.nsPer("meetoracle.batch", "runs"), "meetoracle.batch")
	set("meetoracle.table_ns_per_run", ss.nsPer("meetoracle.table", "runs"), "meetoracle.table")
	set("ringsim.ns_per_run", ss.nsPer("ringsim.run", "runs"), "ringsim.run")
	set("sim.ns_per_run", ss.nsPer("sim.meet", "runs"), "sim.meet")
	// Trajectory compilation is spanned per label pair; report it per
	// probed search.
	searches := make(map[string]bool)
	for _, s := range ss.byName["sim.trajectory"] {
		searches[s.Search] = true
	}
	if len(searches) > 0 {
		set("sim.trajectory_ms", ss.meanMs("sim.trajectory")*float64(len(ss.byName["sim.trajectory"]))/float64(len(searches)), "sim.trajectory")
	}
	set("scenario.parse_us", ss.meanMs("scenario.parse")*1000, "scenario.parse")
	set("scenario.compile_us", ss.meanMs("scenario.compile")*1000, "scenario.compile")
	set("model.fingerprint_us", ss.meanMs("model.fingerprint")*1000, "model.fingerprint")
	set("resultstore.get_us", ss.meanMs("resultstore.get")*1000, "resultstore.get")
	set("resultstore.put_ms", ss.meanMs("resultstore.put"), "resultstore.put")

	worst, violations := ss.childSumDeviation(childSumTolerance, "search", "probe")
	rep.set("trace.child_sum_max_dev", worst, len(ss.all))
	if violations > 0 {
		rep.fail("%d root spans whose children sum more than %.0f%% away from the root", violations, childSumTolerance*100)
	}

	self := ss.selfTimes()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rep.Extra = append(rep.Extra, fmt.Sprintf("self time %-28s %12.3f ms over %d spans", name, float64(self[name])/1e6, len(ss.byName[name])))
	}
	path, err := writeSpans(cfg.Out, cfg.Workload, cfg.Seed, ss)
	if err != nil {
		return err
	}
	rep.Extra = append(rep.Extra, "spans written to "+path)
	return nil
}
