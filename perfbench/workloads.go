package main

import (
	"encoding/json"
	"fmt"

	"rendezvous/internal/scenario"
)

// This file is the seeded input generator. Everything a workload sends
// to the engine or the daemon is a pure function of the workload seed
// (and, for served requests, the request index), so one seed always
// yields byte-identical documents and request bodies.

// sweepSearch is one entry of a sweep workload's fixed search list: a
// standalone scenario document and a stable name for reports.
type sweepSearch struct {
	Name string
	Doc  string
}

// sweepStatic is the sweep-static list: paper-model searches on static
// graphs that span the tier crossover. The first two are the ROADMAP's
// crossover cells (Auto picks the ring tier on both; batch wins the
// second and loses the first).
var sweepStatic = []sweepSearch{
	{"ring512-l4-fast", `{"version":1,"graph":{"family":"ring","n":512},"explorer":"ring-sweep","algorithm":"fast","l":4,"ringOffsets":true}`},
	{"ring24-l32-fast", `{"version":1,"graph":{"family":"ring","n":24},"explorer":"ring-sweep","algorithm":"fast","l":32,"delays":[0,1,23]}`},
	{"torus6x6-l32-fast", `{"version":1,"graph":{"family":"torus","rows":6,"cols":6},"algorithm":"fast","l":32,"delayPattern":"spread"}`},
	{"hypercube5-l32-fwr2", `{"version":1,"graph":{"family":"hypercube","n":5},"algorithm":"fwr(2)","l":32,"delayPattern":"spread"}`},
	{"grid5x5-l32-cheap", `{"version":1,"graph":{"family":"grid","rows":5,"cols":5},"algorithm":"cheap","l":32,"delayPattern":"basic"}`},
}

// sweepGeneric is the sweep-generic list: searches that only the
// generic (trajectory) tier executes — two dynamic-graph models with
// two-phase edge schedules, and one paper search pinned to the generic
// tier whose trajectory cache dominates the process's memory.
var sweepGeneric = []sweepSearch{
	{"dyn-ring32-l16-fast", `{"version":1,"model":"dynamic","graph":{"family":"ring","n":32},"explorer":"ring-sweep","algorithm":"fast","l":16,"delayPattern":"basic","phases":[{"rounds":5,"disable":[[0,1],[16,17]]},{"rounds":11}]}`},
	{"dyn-grid4x4-l16-cheap", `{"version":1,"model":"dynamic","graph":{"family":"grid","rows":4,"cols":4},"algorithm":"cheap","l":16,"delayPattern":"basic","phases":[{"rounds":3,"disable":[[5,6]]},{"rounds":7}]}`},
	{"ring96-l512-fast-generic", `{"version":1,"graph":{"family":"ring","n":96},"explorer":"ring-sweep","algorithm":"fast","l":512,"labelSample":{"count":64,"seed":7},"ringOffsets":true,"tier":"generic"}`},
}

// crossoverCells maps the sweep-static searches whose forced-tier
// costs the traced run reports (the ROADMAP's tier-crossover cells) to
// their metric prefixes.
var crossoverCells = map[string]string{"ring24-l32-fast": "crossover.ring24_l32", "ring512-l4-fast": "crossover.ring512_l4"}

// mix64 is the splitmix64 finalizer: a stateless hash that turns
// (seed, index) into independent-looking bits, so any request of the
// sequence can be generated without replaying the ones before it.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw returns the hash of (seed, stream, i); distinct streams give
// unrelated values for the same index.
func draw(seed int64, stream, i uint64) uint64 {
	return mix64(mix64(mix64(uint64(seed))^stream) ^ i)
}

// passOrder is the seeded order in which pass number pass runs the n
// searches of a sweep list (a Fisher–Yates shuffle driven by draw).
func passOrder(seed int64, pass, n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(draw(seed, 0x5eed0000+uint64(pass), uint64(i)) % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// graphSpec is the graph field both request forms share.
type graphSpec struct {
	Family string `json:"family"`
	N      int    `json:"n,omitempty"`
	Rows   int    `json:"rows,omitempty"`
	Cols   int    `json:"cols,omitempty"`
}

// shape is a served search's size class: the graph, algorithm,
// label-space size and label-pair count, with every axis spelled
// explicitly so the inline and scenario forms denote the same search.
type shape struct {
	Name      string
	Graph     graphSpec
	Nodes     int
	Explorer  string
	Algorithm string
	L         int
	Pairs     int
	Delays    []int
}

// serveShapes are the served size classes. Each runs roughly 10–30 ms
// of serial engine time on its automatic tier (ring, batch, batch).
var serveShapes = []shape{
	{Name: "ring", Graph: graphSpec{Family: "ring", N: 48}, Nodes: 48, Explorer: "ring-sweep", Algorithm: "fast", L: 512, Pairs: 160, Delays: []int{0, 1, 47}},
	{Name: "torus", Graph: graphSpec{Family: "torus", Rows: 8, Cols: 8}, Nodes: 64, Algorithm: "fast", L: 256, Pairs: 160, Delays: []int{0, 1, 60, 127, 128, 255}},
	{Name: "grid", Graph: graphSpec{Family: "grid", Rows: 5, Cols: 5}, Nodes: 25, Algorithm: "cheap", L: 64, Pairs: 128, Delays: []int{0, 1, 24, 48, 49, 96}},
}

// hotSetSize is the number of pre-warmed searches hot requests repeat.
const hotSetSize = 64

// servedSearch is one search of the serve-mixed workload.
type servedSearch struct {
	Shape      *shape
	LabelPairs [][2]int
}

// Configs is the search's requested configuration count (label pairs
// × ordered start pairs × delays), before symmetry reduction.
func (s servedSearch) Configs() int {
	n := s.Shape.Nodes
	return len(s.LabelPairs) * n * (n - 1) * len(s.Shape.Delays)
}

// inlineBody renders the search in the inline /search form.
func (s servedSearch) inlineBody() []byte {
	return mustJSON(struct {
		Graph      graphSpec `json:"graph"`
		Explorer   string    `json:"explorer,omitempty"`
		Algorithm  string    `json:"algorithm"`
		L          int       `json:"L"`
		LabelPairs [][2]int  `json:"labelPairs"`
		Delays     []int     `json:"delays"`
	}{s.Shape.Graph, s.Shape.Explorer, s.Shape.Algorithm, s.Shape.L, s.LabelPairs, s.Shape.Delays})
}

// scenarioDoc renders the search as a standalone scenario document.
func (s servedSearch) scenarioDoc() []byte {
	return mustJSON(struct {
		Version    int       `json:"version"`
		Graph      graphSpec `json:"graph"`
		Explorer   string    `json:"explorer,omitempty"`
		Algorithm  string    `json:"algorithm"`
		L          int       `json:"l"`
		LabelPairs [][2]int  `json:"labelPairs"`
		Delays     []int     `json:"delays"`
	}{scenario.Version, s.Shape.Graph, s.Shape.Explorer, s.Shape.Algorithm, s.Shape.L, s.LabelPairs, s.Shape.Delays})
}

// scenarioBody renders the search in the scenario /search form.
func (s servedSearch) scenarioBody() []byte {
	return mustJSON(struct {
		Scenario json.RawMessage `json:"scenario"`
	}{s.scenarioDoc()})
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal %T: %v", v, err)) // only plain structs are marshalled
	}
	return b
}

// hotSearch is hot-set entry j. The hot set does not depend on the
// workload seed: every seed repeats the same 64 searches.
func hotSearch(j int) servedSearch {
	sh := &serveShapes[j%len(serveShapes)]
	return servedSearch{Shape: sh, LabelPairs: scenario.SampledLabelPairs(sh.L, sh.Pairs, int64(1_000_000+j))}
}

// request is one entry of the serve-mixed request sequence.
type request struct {
	Index  int
	Hot    bool
	HotIdx int // hot-set entry, when Hot
	Inline bool
	Search servedSearch
}

// Body renders the request body in its form.
func (r request) Body() []byte {
	if r.Inline {
		return r.Search.inlineBody()
	}
	return r.Search.scenarioBody()
}

// requestBlock is the length of the request sequence's balanced
// blocks: three hot repeats and one cold search of each served shape,
// in a seeded order, so every stretch of the sequence carries the same
// mix and the mix cannot differ from seed to seed.
const requestBlock = 6

// nextRequest is entry i of the seed's request sequence: half hot
// repeats of the hot set, half cold searches whose label sample is
// drawn from (seed, i), and alternately inline and scenario bodies.
func nextRequest(seed int64, i int) request {
	block, pos := i/requestBlock, i%requestBlock
	slot := passOrder(seed, block, requestBlock)[pos]
	r := request{Index: i, Hot: slot < 3, Inline: (slot+block)%2 == 0}
	if r.Hot {
		r.HotIdx = int(draw(seed, 0x407, uint64(i)) % hotSetSize)
		r.Search = hotSearch(r.HotIdx)
		return r
	}
	sh := &serveShapes[slot-3]
	sampleSeed := int64(draw(seed, 0x5a3791e, uint64(i)) >> 1)
	r.Search = servedSearch{Shape: sh, LabelPairs: scenario.SampledLabelPairs(sh.L, sh.Pairs, sampleSeed)}
	return r
}
