package main

import (
	"fmt"

	"rendezvous/internal/adversary"
	"rendezvous/internal/graph"
	"rendezvous/internal/meetoracle"
	"rendezvous/internal/orbits"
	"rendezvous/internal/ringsim"
	"rendezvous/internal/sim"
)

// This file holds the traced run's layer probes. A probe re-executes
// one paper-model search serially through the public functions of the
// layers the engine composes — the automorphism group and orbit
// reduction, then the executor of the tier Auto picked — with a span
// around each call and the run count recorded at the same boundary,
// so each layer's cost per execution is measured where the work
// happens. Probes run after the timed window and feed only per-layer
// metrics. A search on another model has nothing to probe: the
// dynamic model's executor is private to its package.

// probeSearch probes one search whose engine tier is tier.
func probeSearch(rec *recorder, cs compiledSearch, tier adversary.Tier) error {
	pm, ok := cs.Model.(adversary.PaperModel)
	if !ok {
		return nil
	}
	spec := pm.Spec
	labelPairs, startPairs, delays, err := pm.Space.Expand(spec.Graph.N())
	if err != nil {
		return err
	}
	root := rec.start(nil, cs.Name, "probe")
	defer root.end()

	sp := rec.start(root, cs.Name, "orbits.reduce")
	reps := startPairs
	if auts := graph.Automorphisms(spec.Graph); len(auts) > 1 {
		orbs, err := orbits.Compute(auts, startPairs)
		if err != nil {
			sp.end()
			return fmt.Errorf("%s: orbits: %w", cs.Name, err)
		}
		reps = orbs.Representatives()
	}
	sp.set("start_pairs", float64(len(startPairs)))
	sp.set("reps", float64(len(reps)))
	sp.end()

	switch tier {
	case adversary.TierRing:
		return probeRing(rec, root, cs.Name, spec, labelPairs, reps, delays)
	case adversary.TierTable, adversary.TierBatch:
		return probeTables(rec, root, cs.Name, spec, tier, labelPairs, reps, delays)
	default:
		return probeGeneric(rec, root, cs.Name, spec, labelPairs, reps, delays)
	}
}

func probeRing(rec *recorder, root *openSpan, name string, spec adversary.Spec, labelPairs, startPairs [][2]int, delays []int) error {
	n := spec.Graph.N()
	scheds := make(map[int]sim.Schedule)
	for _, lp := range labelPairs {
		for _, l := range lp {
			if _, ok := scheds[l]; !ok {
				scheds[l] = spec.ScheduleFor(l)
			}
		}
	}
	sp := rec.start(root, name, "ringsim.run")
	defer sp.end()
	runs := 0
	for _, lp := range labelPairs {
		for _, st := range startPairs {
			for _, d := range delays {
				if _, err := ringsim.Run(n,
					ringsim.Agent{Schedule: scheds[lp[0]], Start: st[0], Wake: 1},
					ringsim.Agent{Schedule: scheds[lp[1]], Start: st[1], Wake: 1 + d}); err != nil {
					return fmt.Errorf("%s: ringsim: %w", name, err)
				}
				runs++
			}
		}
	}
	sp.set("runs", float64(runs))
	return nil
}

func probeTables(rec *recorder, root *openSpan, name string, spec adversary.Spec, tier adversary.Tier, labelPairs, startPairs [][2]int, delays []int) error {
	g, ex := spec.Graph, spec.Explorer
	sp := rec.start(root, name, "meetoracle.table_build")
	oracle, err := meetoracle.New(g, ex)
	if err != nil {
		sp.end()
		return fmt.Errorf("%s: meetoracle: %w", name, err)
	}
	e := oracle.E()
	phases := len(meetoracle.Phases(e, delays))
	if tier == adversary.TierBatch {
		oracle.PrepareBatch(delays)
		sp.set("bytes", float64(meetoracle.EstimateBatchBytes(g.N(), e, phases, len(delays))))
	} else {
		oracle.Prepare(delays)
		sp.set("bytes", float64(meetoracle.EstimateBytes(g.N(), e, phases)))
	}
	sp.end()

	// The engine compiles every (label, start) pairing each side of
	// the sweep can touch, once per search.
	sp = rec.start(root, name, "meetoracle.precompile")
	// rows[side][label][start], as the engine lays them out.
	rows := [2]map[int][]meetoracle.Compiled{{}, {}}
	for side := range 2 {
		for _, lp := range labelPairs {
			l := lp[side]
			if rows[side][l] != nil {
				continue
			}
			sched := spec.ScheduleFor(l)
			row := make([]meetoracle.Compiled, g.N())
			for _, st := range startPairs {
				if row[st[side]].Valid() {
					continue
				}
				c, err := oracle.Compile(st[side], sched)
				if err != nil {
					sp.end()
					return fmt.Errorf("%s: compile label %d: %w", name, l, err)
				}
				row[st[side]] = c
			}
			rows[side][l] = row
		}
	}
	sp.set("schedules", float64(len(rows[0])+len(rows[1])))
	sp.end()

	sp = rec.start(root, name, "meetoracle.table")
	runs := 0
	for _, lp := range labelPairs {
		ra, rb := rows[0][lp[0]], rows[1][lp[1]]
		for _, st := range startPairs {
			for _, d := range delays {
				oracle.Meet(ra[st[0]], rb[st[1]], 1, 1+d, false)
				runs++
			}
		}
	}
	sp.set("runs", float64(runs))
	sp.end()

	if tier != adversary.TierBatch {
		return nil
	}
	sp = rec.start(root, name, "meetoracle.batch")
	defer sp.end()
	var as, bs [meetoracle.BatchLanes]meetoracle.Compiled
	var rounds, costs [meetoracle.BatchLanes]int
	runs = 0
	for _, lp := range labelPairs {
		ra, rb := rows[0][lp[0]], rows[1][lp[1]]
		for base := 0; base < len(startPairs); base += meetoracle.BatchLanes {
			block := startPairs[base:min(base+meetoracle.BatchLanes, len(startPairs))]
			for i, st := range block {
				as[i], bs[i] = ra[st[0]], rb[st[1]]
			}
			k := len(block)
			for _, d := range delays {
				oracle.MeetBatchWorst(as[:k], bs[:k], d, rounds[:k], costs[:k])
				runs += k
			}
		}
	}
	sp.set("runs", float64(runs))
	return nil
}

// probeGeneric compiles trajectories one label pair at a time and
// drops them afterwards, so the probe does not hold a second copy of
// the engine's trajectory cache. Each label pair gets a compile span
// and a meet span.
func probeGeneric(rec *recorder, root *openSpan, name string, spec adversary.Spec, labelPairs, startPairs [][2]int, delays []int) error {
	for _, lp := range labelPairs {
		sp := rec.start(root, name, "sim.trajectory")
		var traj [2]map[int]sim.Trajectory
		for side := range 2 {
			traj[side] = make(map[int]sim.Trajectory)
			sched := spec.ScheduleFor(lp[side])
			for _, st := range startPairs {
				if _, ok := traj[side][st[side]]; ok {
					continue
				}
				tr, err := sim.CompileTrajectory(spec.Graph, spec.Explorer, st[side], sched)
				if err != nil {
					sp.end()
					return fmt.Errorf("%s: trajectory: %w", name, err)
				}
				traj[side][st[side]] = tr
			}
		}
		sp.set("trajectories", float64(len(traj[0])+len(traj[1])))
		sp.end()

		sp = rec.start(root, name, "sim.meet")
		runs := 0
		for _, st := range startPairs {
			for _, d := range delays {
				sim.Meet(traj[0][st[0]], traj[1][st[1]], 1, 1+d, false)
				runs++
			}
		}
		sp.set("runs", float64(runs))
		sp.end()
	}
	return nil
}
