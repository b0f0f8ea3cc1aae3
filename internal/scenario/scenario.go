// Package scenario defines the engine's declarative search format:
// versioned JSON documents that name a rendezvous model and its
// parameters, validated against the same caps the daemon serves under,
// and compiled onto the internal/model contract. One scenario document
// denotes exactly one search; a scenario file bundles the searches of
// one experiment. Every front end that accepts searches — both body
// forms of the rdvd daemon's /search and /shard (the inline fields are
// lowered onto a Search), rdvbench -scenario, and the bench
// experiments, which run the committed documents of examples/scenarios
// — validates and compiles through this package, so there is one
// validator and one caps table and the accepted surface cannot drift
// between them.
//
// The format is deliberately generator-friendly: a document can spell
// its configuration space either explicitly (labelPairs, startPairs,
// delays) or through the same canonical generators the benchmark
// experiments use (exhaustive label pairs from l, seeded adversarial
// samples, ring offsets, delay patterns derived from the exploration
// time E). Two spellings that expand to the same space compile to
// models with identical fingerprints: equivalence is semantic, pinned
// by the engine's content addressing, not textual.
package scenario

import (
	"fmt"
	"sort"

	"rendezvous/internal/model"
)

// Format caps. Both /search body forms reach the shared daemon process
// through this package, so these are the daemon's caps too: one
// request must not be able to allocate it to death or pin a CPU
// before admission. The one deliberate difference is the label-space
// cap: the benchmark experiments sweep L up to 4096 (E3, E4, E11,
// E14), so the format accepts that, while the daemon additionally
// enforces its own stricter per-request cap (serve.MaxL) on every
// search it serves.
const (
	// Version is the format version this package parses.
	Version = 1
	// MaxNodes caps the graph size (nodes).
	MaxNodes = 512
	// MaxL caps the label-space size of a scenario document. The
	// daemon's per-request cap (serve.MaxL) is stricter.
	MaxL = 4096
	// MaxDelay caps each wake delay. An unbounded delay would drive the
	// generic executor's meeting scan to a horizon of wakeB +
	// |schedule| rounds — an effectively infinite loop no context can
	// cancel mid-execution.
	MaxDelay = 1 << 20
	// MaxListLen caps each explicit enumeration list (labelPairs,
	// startPairs, delays) and the phase list.
	MaxListLen = 1 << 16
	// MaxTreeDraws caps the draws list of the tree family. Build
	// generates every tree up to take, so the list length multiplies
	// the graph-construction work done per request; the committed
	// experiments draw at most two trees from one stream.
	MaxTreeDraws = 64
	// MaxSearches caps the search count of a scenario file.
	MaxSearches = 4096
)

// Models returns the registered model names, sorted. A scenario's
// "model" field must name one of them.
func Models() []string {
	names := []string{"paper", "dynamic"}
	sort.Strings(names)
	return names
}

// UnknownModelError reports a scenario that names an unregistered
// model, carrying the registered set so front ends can return a
// structured error instead of a bare string.
type UnknownModelError struct {
	// Model is the rejected name.
	Model string
	// Known is the registered model list (sorted).
	Known []string
}

func (e *UnknownModelError) Error() string {
	return fmt.Sprintf("scenario: unknown model %q (registered models: %v)", e.Model, e.Known)
}

// GraphSpec names a graph family and its parameters. Families are
// deterministic — including tree, which pins its random generator's
// seed and draw sequence — so a spec denotes exactly one graph.
type GraphSpec struct {
	// Family is one of ring (the canonical oriented ring), path, star,
	// complete, circulant, grid, torus, hypercube, tree.
	Family string `json:"family"`
	// N is the node count (the dimension for hypercube).
	N int `json:"n,omitempty"`
	// Rows and Cols parameterize grid and torus.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// Seed, Draws and Take parameterize tree: Draws lists the sizes of
	// the random trees drawn, in order, from one generator seeded with
	// Seed, and Take selects which draw this spec denotes. The
	// indirection exists because the experiments draw several trees
	// from one shared stream; a tree defined by (seed, size) alone
	// could not reproduce the later draws.
	Seed  int64 `json:"seed,omitempty"`
	Draws []int `json:"draws,omitempty"`
	Take  int   `json:"take,omitempty"`
}

// LabelSample selects the canonical seeded adversarial label-pair
// sample (SampledLabelPairs) instead of an explicit list: Count pairs
// drawn with Seed, always including the structurally adversarial ones.
type LabelSample struct {
	Count int   `json:"count"`
	Seed  int64 `json:"seed"`
}

// Delay patterns, each derived from the compiled explorer's
// exploration time E.
const (
	// DelayBasic is {0, 1, E}.
	DelayBasic = "basic"
	// DelaySpread is {0, 1, E/2, E, E+1, 2E} (DelaysFor).
	DelaySpread = "spread"
	// DelayRange is {0, 1, ..., E}.
	DelayRange = "range"
	// DelayDoubled is {0, 2E, 4E}.
	DelayDoubled = "doubled"
)

// Search is one declarative search: a model, its parameters, and a
// configuration space. The zero value of every optional field selects
// the engine default (exhaustive enumeration, automatic tier and
// symmetry), exactly as in sim.SearchSpace and adversary.Options.
type Search struct {
	// Version is the format version. Required (== 1) in a standalone
	// document; inside a File it is inherited and must be omitted.
	Version int `json:"version,omitempty"`
	// Model selects the rendezvous model: "paper" (default) or
	// "dynamic".
	Model string `json:"model,omitempty"`
	// Graph is the (base) graph.
	Graph GraphSpec `json:"graph"`
	// Explorer is auto (default), dfs, unmarked-dfs, ring-sweep,
	// eulerian, hamiltonian or rotor-router.
	Explorer string `json:"explorer,omitempty"`
	// Algorithm is cheap, cheap-sim, cheap-lazy, fast, fast-undoubled,
	// fwr(w) or oracle.
	Algorithm string `json:"algorithm"`
	// L is the label-space size. Required unless LabelPairs is given
	// (then it defaults to the largest label listed); required with
	// LabelSample.
	L int `json:"l,omitempty"`
	// LabelPairs, StartPairs and Delays spell the configuration space
	// explicitly; each is mutually exclusive with its generator field
	// below, and an empty/omitted axis selects the exhaustive default.
	LabelPairs [][2]int `json:"labelPairs,omitempty"`
	StartPairs [][2]int `json:"startPairs,omitempty"`
	Delays     []int    `json:"delays,omitempty"`
	// LabelSample generates the label pairs instead of listing them.
	LabelSample *LabelSample `json:"labelSample,omitempty"`
	// RingOffsets generates the start pairs (0, d) for d in 1..n-1 —
	// the exhaustive relative-offset space of an oriented ring.
	RingOffsets bool `json:"ringOffsets,omitempty"`
	// DelayPattern generates the delays from the exploration time E:
	// basic, spread, range or doubled.
	DelayPattern string `json:"delayPattern,omitempty"`
	// Symmetry is auto (default), off or forced. Paper model only.
	Symmetry string `json:"symmetry,omitempty"`
	// Tier forces an execution tier (auto, generic, table, ring,
	// batch). Paper model only; empty inherits the runner's tier.
	Tier string `json:"tier,omitempty"`
	// Phases is the periodic edge schedule of the dynamic model
	// (required there, rejected elsewhere).
	Phases []model.Phase `json:"phases,omitempty"`
}

// File bundles the searches of one experiment: a versioned, named list
// of Search documents, optionally bound to the internal/bench
// experiment it defines (Experiment).
type File struct {
	// Version is the format version (== 1). Required.
	Version int `json:"version"`
	// Name and Notes document the file.
	Name  string   `json:"name,omitempty"`
	Notes []string `json:"notes,omitempty"`
	// Experiment names the internal/bench experiment (e.g. "E3") whose
	// engine searches this file defines, in the order the experiment
	// reads them. Empty for standalone files.
	Experiment string `json:"experiment,omitempty"`
	// Searches are the file's searches, in canonical order.
	Searches []Search `json:"searches"`
}
