// Package rendezvous is a reproduction of Miller & Pelc, "Time Versus
// Cost Tradeoffs for Deterministic Rendezvous in Networks" (PODC 2014):
// deterministic rendezvous of two labeled mobile agents in anonymous
// port-labeled networks, with the paper's algorithms (Cheap, Fast,
// FastWithRelabeling), its execution model, and the constructive
// machinery of its lower-bound proofs.
//
// This package is the public facade: it re-exports the library's stable
// surface from the internal packages so applications depend on a single
// import path.
//
//	g := rendezvous.OrientedRing(24)
//	ex := rendezvous.RingSweepExplorer()
//	algo := rendezvous.Fast{}
//	params := rendezvous.Params{L: 64}
//	res, err := rendezvous.Run(rendezvous.Scenario{
//	    Graph:    g,
//	    Explorer: ex,
//	    A: rendezvous.AgentSpec{Label: 5, Start: 0, Wake: 1, Schedule: algo.Schedule(5, params)},
//	    B: rendezvous.AgentSpec{Label: 9, Start: 12, Wake: 4, Schedule: algo.Schedule(9, params)},
//	})
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every claim.
package rendezvous

import (
	"context"
	"io"
	"math/rand"
	"time"

	"rendezvous/internal/adversary"
	"rendezvous/internal/cluster"
	"rendezvous/internal/core"
	"rendezvous/internal/explore"
	"rendezvous/internal/graph"
	"rendezvous/internal/lowerbound"
	"rendezvous/internal/meetoracle"
	"rendezvous/internal/model"
	"rendezvous/internal/resultstore"
	"rendezvous/internal/ringsim"
	"rendezvous/internal/scenario"
	"rendezvous/internal/serve"
	"rendezvous/internal/sim"
	"rendezvous/internal/uxs"
)

// Model types.
type (
	// Graph is an anonymous, undirected, connected, port-labeled graph.
	Graph = graph.Graph
	// Walk is a port sequence routing an agent through a Graph.
	Walk = graph.Walk
	// Explorer produces fixed-duration all-node exploration plans; its
	// Duration is the benchmark parameter E.
	Explorer = explore.Explorer
	// Plan is a fixed-length sequence of port moves and waits.
	Plan = explore.Plan
	// Algorithm maps an agent label to its schedule of E-round segments.
	Algorithm = core.Algorithm
	// Params carries the label-space size L shared by both agents.
	Params = core.Params
	// Schedule is a sequence of E-round explore/wait segments.
	Schedule = sim.Schedule
	// AgentSpec describes one agent: label, start node, wake round and
	// schedule.
	AgentSpec = sim.AgentSpec
	// Scenario is a complete two-agent execution setup.
	Scenario = sim.Scenario
	// Result reports whether/where/when the agents met and at what cost.
	Result = sim.Result
	// Trajectory is a compiled solo execution.
	Trajectory = sim.Trajectory
)

// The paper's algorithms (Section 2) and the reference baselines.
type (
	// Cheap is Algorithm 1: cost <= 3E, time <= (2L+1)E (Prop 2.1).
	Cheap = core.Cheap
	// CheapSimultaneous is the simultaneous-start variant: worst-case
	// cost exactly E, time <= LE. Incorrect under delays.
	CheapSimultaneous = core.CheapSimultaneous
	// Fast is Algorithm 2: time and cost O(E log L) (Prop 2.2).
	Fast = core.Fast
	// FastWithRelabeling trades between the two: cost O(wE), time
	// O(L^{1/w}E) for constant w (Prop 2.3, Cor 2.1).
	FastWithRelabeling = core.FastWithRelabeling
	// WaitForMate is the oracle baseline realising time = cost = E.
	WaitForMate = core.WaitForMate
)

// NewFastWithRelabeling returns FastWithRelabeling with constant weight
// w(L) = c (Corollary 2.1).
func NewFastWithRelabeling(c int) FastWithRelabeling { return core.NewFastWithRelabeling(c) }

// Graph generators.
func OrientedRing(n int) *Graph               { return graph.OrientedRing(n) }
func Ring(n int, rng *rand.Rand) *Graph       { return graph.Ring(n, rng) }
func Path(n int) *Graph                       { return graph.Path(n) }
func Star(n int) *Graph                       { return graph.Star(n) }
func Complete(n int) *Graph                   { return graph.Complete(n) }
func CirculantComplete(n int) *Graph          { return graph.CirculantComplete(n) }
func Grid(rows, cols int) *Graph              { return graph.Grid(rows, cols) }
func Torus(rows, cols int) *Graph             { return graph.Torus(rows, cols) }
func Hypercube(d int) *Graph                  { return graph.Hypercube(d) }
func RandomTree(n int, rng *rand.Rand) *Graph { return graph.RandomTree(n, rng) }
func RandomConnected(n int, p float64, rng *rand.Rand) *Graph {
	return graph.RandomConnected(n, p, rng)
}

// Explorers (the EXPLORE procedures of Section 1.2).
func DFSExplorer() Explorer         { return explore.DFS{} }
func UnmarkedDFSExplorer() Explorer { return explore.UnmarkedDFS{} }
func RingSweepExplorer() Explorer   { return explore.OrientedRingSweep{} }
func EulerianExplorer() Explorer    { return explore.Eulerian{} }
func HamiltonianExplorer() Explorer { return explore.Hamiltonian{} }

// BestExplorer returns the cheapest applicable explorer for g,
// attempting the exponential Hamiltonian search only for graphs up to
// hamiltonianBudget nodes.
func BestExplorer(g *Graph, hamiltonianBudget int) Explorer {
	return explore.Best(g, hamiltonianBudget)
}

// VerifyExplorer checks the Explorer contract (exact duration, full
// coverage, every start) on a graph.
func VerifyExplorer(ex Explorer, g *Graph) error { return explore.Verify(ex, g) }

// Run executes a two-agent scenario to completion.
func Run(sc Scenario) (Result, error) { return sim.Run(sc) }

// CompileTrajectory expands a schedule into a solo trajectory.
func CompileTrajectory(g *Graph, ex Explorer, start int, sched Schedule) (Trajectory, error) {
	return sim.CompileTrajectory(g, ex, start, sched)
}

// Meet scans two solo trajectories for the first meeting round.
func Meet(a, b Trajectory, wakeA, wakeB int, parachuted bool) Result {
	return sim.Meet(a, b, wakeA, wakeB, parachuted)
}

// Adversary search: the engine behind every experiment table. It
// enumerates a configuration space (label pairs × start pairs × wake
// delays), executes every configuration, and reports the worst
// rendezvous time and cost with their witnessing configurations.
type (
	// SearchSpace selects the adversary's choices; zero fields default
	// to exhaustive enumeration (see sim.SearchSpace).
	SearchSpace = sim.SearchSpace
	// Witness is the configuration realising an extreme value.
	Witness = sim.Witness
	// WorstCase is the adversary's report: worst time and cost with
	// witnesses, the number of executions, and whether all met.
	WorstCase = sim.WorstCase
	// SearchOptions tunes execution: worker count, cancellation context,
	// dispatch tier, meeting-table memory budget and symmetry
	// reduction. The zero value is serial with automatic tier dispatch
	// and automatic symmetry reduction.
	SearchOptions = adversary.Options
	// SearchTier identifies an execution tier of the engine (generic
	// trajectory scan, meeting tables scalar or 64-lane batched,
	// segment-level ring); TierAuto picks the fastest eligible one,
	// the others force it.
	SearchTier = adversary.Tier
	// Symmetry selects the engine's start-pair orbit reduction: before
	// dispatch, start pairs are quotiented by the graph's
	// port-preserving automorphism group and only one representative
	// per orbit executes. Values, witnesses and AllMet are bit-for-bit
	// unchanged; only Runs (and wall-clock time) shrink — by a factor
	// of n on vertex-transitive families such as oriented rings and
	// tori, hypercubes and circulant complete graphs.
	Symmetry = adversary.Symmetry
	// GraphAutomorphism is a port-preserving automorphism of a Graph —
	// the node bijections the symmetry reduction quotients by.
	GraphAutomorphism = graph.Automorphism
)

// The engine's execution tiers, for SearchOptions.Tier. Forcing a tier
// never changes results, only which executor produces them.
const (
	TierAuto    = adversary.TierAuto
	TierGeneric = adversary.TierGeneric
	TierTable   = adversary.TierTable
	TierRing    = adversary.TierRing
	TierBatch   = adversary.TierBatch
)

// The symmetry-reduction modes, for SearchOptions.Symmetry.
const (
	// SymmetryAuto (the zero value) reduces whenever the graph's
	// automorphism group permits.
	SymmetryAuto = adversary.SymmetryAuto
	// SymmetryOff runs every listed start pair — the unreduced
	// reference for equivalence tests and benchmarks.
	SymmetryOff = adversary.SymmetryOff
	// SymmetryForced always applies the reduction machinery and makes
	// inapplicable spaces an error.
	SymmetryForced = adversary.SymmetryForced
)

// Automorphisms returns every port-preserving automorphism of g — the
// exact symmetry group the search engine's reduction quotients start
// pairs by. The identity is always present; on consistently-labeled
// transitive families (OrientedRing, Torus, Hypercube,
// CirculantComplete) the group has n elements.
func Automorphisms(g *Graph) []GraphAutomorphism { return graph.Automorphisms(g) }

// Search runs the adversary serially over the space for the algorithm
// given as a label → schedule function. On the canonical oriented ring
// with the sweep explorer, executions are automatically routed through
// the O(|schedule|) segment-level engine. Results are deterministic.
func Search(g *Graph, ex Explorer, scheduleFor func(label int) Schedule, space SearchSpace) (WorstCase, error) {
	return adversary.Search(adversary.Spec{Graph: g, Explorer: ex, ScheduleFor: scheduleFor}, space, adversary.Options{})
}

// SearchParallel is Search sharded across the given number of worker
// goroutines (≤ 0 selects GOMAXPROCS) under a cancellable context. Its
// output — witnesses, Runs, AllMet — is bit-for-bit identical to Search
// for every worker count. scheduleFor is called concurrently from every
// worker: it must be a deterministic function safe for concurrent use
// (any of the paper's Algorithm.Schedule methods qualifies), not a
// memoizing closure over shared state.
func SearchParallel(ctx context.Context, g *Graph, ex Explorer, scheduleFor func(label int) Schedule, space SearchSpace, workers int) (WorstCase, error) {
	if workers <= 0 {
		workers = -1
	}
	return adversary.Search(
		adversary.Spec{Graph: g, Explorer: ex, ScheduleFor: scheduleFor},
		space,
		adversary.Options{Workers: workers, Context: ctx},
	)
}

// SearchWith runs the adversary with explicit options, for callers that
// need full control (e.g. disabling the ring fast path).
func SearchWith(g *Graph, ex Explorer, scheduleFor func(label int) Schedule, space SearchSpace, opts SearchOptions) (WorstCase, error) {
	return adversary.Search(adversary.Spec{Graph: g, Explorer: ex, ScheduleFor: scheduleFor}, space, opts)
}

// Persistence (internal/resultstore): worst-case values are immutable
// once computed, so searches are cached on disk under a canonical
// content fingerprint and long sweeps checkpoint per shard. cmd/rdvd
// serves this store over HTTP.
type (
	// Store is the content-addressed on-disk cache of WorstCase
	// results: versioned, checksummed JSON records written atomically;
	// corruption reads as a miss, never an error.
	Store = resultstore.Store
	// StoreEntry is one record in a Store's index.
	StoreEntry = resultstore.Entry
	// CheckpointConfig tunes SearchCheckpointed: the checkpoint file,
	// the shard granularity, and an optional progress callback.
	CheckpointConfig = adversary.CheckpointConfig
)

// OpenStore opens (creating if needed) a result store rooted at dir.
func OpenStore(dir string) (*Store, error) { return resultstore.Open(dir) }

// SearchFingerprint returns the canonical content address of a search:
// requests that denote the same computation fingerprint identically
// however they are spelled (spaces are expanded, graphs hashed by
// structure, explorers by behaviour), and output-invariant options
// (Workers, Tier, TableBudget) do not contribute.
func SearchFingerprint(g *Graph, ex Explorer, scheduleFor func(label int) Schedule, space SearchSpace, opts SearchOptions) (string, error) {
	return adversary.Fingerprint(adversary.Spec{Graph: g, Explorer: ex, ScheduleFor: scheduleFor}, space, opts)
}

// SearchCached is Search fronted by a result store: a fingerprint hit
// returns the stored WorstCase without running the engine; a miss
// (including one caused by a corrupt record) computes the result and
// writes it back. cached reports which path answered.
func SearchCached(store *Store, g *Graph, ex Explorer, scheduleFor func(label int) Schedule, space SearchSpace, opts SearchOptions) (wc WorstCase, cached bool, err error) {
	return adversary.SearchCached(store, adversary.Spec{Graph: g, Explorer: ex, ScheduleFor: scheduleFor}, space, opts)
}

// SearchCheckpointed is Search with shard-granular checkpoint/resume:
// completed shards are appended to cfg.Path as they finish, and a
// rerun of the same search resumes from them with bit-for-bit
// identical merged output (for every worker count, interruption point
// and tier). With an empty cfg.Path it degrades to a plain sharded
// search that reports shard-level progress via cfg.Progress.
func SearchCheckpointed(g *Graph, ex Explorer, scheduleFor func(label int) Schedule, space SearchSpace, opts SearchOptions, cfg CheckpointConfig) (WorstCase, error) {
	return adversary.SearchCheckpointed(adversary.Spec{Graph: g, Explorer: ex, ScheduleFor: scheduleFor}, space, opts, cfg)
}

// Pluggable models and declarative scenarios (internal/model +
// internal/scenario): the engine executes any implementation of the
// Model contract — the paper's own model is its first implementation —
// and a versioned JSON scenario document selects a model, a graph, an
// algorithm and a configuration space declaratively. (The name
// "Scenario" itself is taken by the simulator's two-agent execution
// setup above; the declarative documents are ScenarioSearch and
// ScenarioFile.)
type (
	// Model is the pluggable rendezvous-model contract: a space
	// enumeration, a compiled per-shard executor, and a canonical
	// fingerprint for the result store.
	Model = model.Model
	// ScenarioSearch is one declarative search document (versioned
	// JSON; any registered model).
	ScenarioSearch = scenario.Search
	// ScenarioFile is a named collection of scenario searches,
	// optionally bound to a bench experiment for equivalence
	// verification.
	ScenarioFile = scenario.File
	// ScenarioOptions supplies runner-side defaults (tier, symmetry,
	// table budget) a document does not pin.
	ScenarioOptions = scenario.Options
)

// ParseScenario parses and validates one declarative search document.
func ParseScenario(data []byte) (*ScenarioSearch, error) { return scenario.ParseSearch(data) }

// ParseScenarioFile parses and validates a scenario file.
func ParseScenarioFile(data []byte) (*ScenarioFile, error) { return scenario.ParseFile(data) }

// ScenarioModels lists the registered model names (sorted).
func ScenarioModels() []string { return scenario.Models() }

// SearchModel runs the adversary search over any model — a compiled
// scenario, or a custom Model implementation — with the engine's full
// determinism contract: bit-for-bit identical output for every worker
// count. Only execution options (Workers, Context) are read from opts.
func SearchModel(m Model, opts SearchOptions) (WorstCase, error) {
	return adversary.SearchModel(m, opts)
}

// Distributed search (internal/cluster + internal/serve): the engine's
// fixed, worker-count-independent shard decomposition — the same plan
// checkpoint/resume is built on — dispatched across rdvd worker
// daemons and merged bit-for-bit identically to a single-node Search.
type (
	// SearchRequest is the named (wire) form of a search — the JSON
	// body POST /search and the cluster shard protocol carry. Unlike
	// the Spec-based entry points it names the graph family, explorer
	// and algorithm, because closures cannot cross machines.
	SearchRequest = serve.Request
	// SearchGraphSpec names a graph family and its parameters inside a
	// SearchRequest.
	SearchGraphSpec = scenario.GraphSpec
)

// DistributedConfig tunes SearchDistributed.
type DistributedConfig struct {
	// Peers lists rdvd worker daemon base URLs (required), e.g.
	// http://hostA:8377.
	Peers []string
	// Shards fixes the shard count (0 = the engine default, clamped to
	// the label-pair space). The decomposition is a pure function of
	// the search and this count, never of the peer count.
	Shards int
	// ShardTimeout bounds each shard attempt on each peer (0 = 2m).
	ShardTimeout time.Duration
	// ShardAttempts bounds the attempts per shard across peers before
	// the search fails (0 = 3).
	ShardAttempts int
	// ShardInflight is how many shards are kept in flight on each peer
	// at once (0 = 1); raise it toward the workers' engine-pool size to
	// keep multi-core workers busy.
	ShardInflight int
	// SearchTimeout bounds the whole distributed search. The dispatcher
	// deliberately keeps probing when every peer is down (so it rides
	// out a rolling restart), which means an unreachable peer list
	// would otherwise hang forever; this deadline is what fails it
	// loudly. 0 means 10 minutes (the serving layer's default);
	// negative disables the bound (the caller's ctx is then the only
	// limit).
	SearchTimeout time.Duration
	// Store, when non-nil, caches shard results locally so a repeated
	// or resumed distributed search re-dispatches only missing shards.
	Store *Store
	// Progress, when non-nil, is called after every completed shard
	// with (completed, total); calls are serialized.
	Progress func(completed, total int)
	// AuthToken, when non-empty, is presented as a bearer token on
	// every shard request and peer probe — required when the worker
	// daemons run with -auth-tokens.
	AuthToken string
}

// SearchDistributed fans the search out across a pool of rdvd worker
// daemons: the request is compiled and fingerprinted locally, split
// into the engine's fixed shard plan, dispatched shard-by-shard over
// POST /shard with per-shard retry/requeue on peer failure or timeout
// (a failing peer must pass a /healthz probe before taking more work),
// and merged in shard order with the engine's strictly-greater merge —
// so the result is bit-for-bit identical to a single-node Search of
// the same request for every peer count and every failure/recovery
// interleaving that completes. A shard that exhausts its attempts
// fails the whole search rather than merging a partial result.
func SearchDistributed(ctx context.Context, req SearchRequest, cfg DistributedConfig) (WorstCase, error) {
	d, err := cluster.New(cluster.Config{
		Peers:           cfg.Peers,
		ShardTimeout:    cfg.ShardTimeout,
		MaxAttempts:     cfg.ShardAttempts,
		PerPeerInflight: cfg.ShardInflight,
		Store:           cfg.Store,
		AuthToken:       cfg.AuthToken,
	})
	if err != nil {
		return WorstCase{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	timeout := cfg.SearchTimeout
	if timeout == 0 {
		timeout = serve.DefaultSearchTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	wc, _, err := serve.Distribute(ctx, d, req, cfg.Shards, cfg.Progress)
	return wc, err
}

// Unknown-size support (Conclusion): the EXPLORE_i doubling hierarchy.
type (
	// ExplorationFamily is the EXPLORE_i hierarchy with E_i = R(2^i).
	ExplorationFamily = uxs.Family
	// DoublingScenario runs an algorithm iterated over the hierarchy.
	DoublingScenario = core.DoublingScenario
)

// RunDoubling executes the unknown-E wrapper for both agents.
func RunDoubling(sc DoublingScenario) (Result, error) { return core.RunDoubling(sc) }

// Segment-level exact ring execution (internal/ringsim): O(|schedule|)
// per execution instead of O(|schedule|·E), bit-for-bit equal to Run
// with the ring sweep. Use for large-L adversarial sweeps on oriented
// rings.
type (
	// RingAgent is one agent in the segment-level ring model.
	RingAgent = ringsim.Agent
	// RingResult is the segment-level execution outcome.
	RingResult = ringsim.Result
)

// RunOnRing executes two schedules on the oriented ring of size n with
// the optimal sweep as EXPLORE (E = n-1), in O(|schedules|) time.
func RunOnRing(n int, a, b RingAgent) (RingResult, error) { return ringsim.Run(n, a, b) }

// Meeting-table execution (internal/meetoracle): the segment-level
// trick generalized from the ring to every graph family. A MeetOracle
// precomputes, once per (graph, explorer), the walk and meeting tables
// that make any execution an O(|schedule|) scan independent of E; it
// is what the search engine's TierTable dispatches to.
type (
	// MeetOracle holds the precomputed meeting structure of one
	// (graph, explorer) pair; safe for concurrent use.
	MeetOracle = meetoracle.Oracle
	// CompiledSchedule is a schedule lowered onto an oracle's tables.
	CompiledSchedule = meetoracle.Compiled
)

// NewMeetOracle precomputes the meeting tables of a (graph, explorer)
// pair. Its Run method is bit-for-bit equal to Run with the same graph
// and explorer; its Meet method is the segment-level analogue of Meet.
func NewMeetOracle(g *Graph, ex Explorer) (*MeetOracle, error) { return meetoracle.New(g, ex) }

// Trace renders a two-agent execution as a round-by-round timeline.
func Trace(w io.Writer, sc Scenario, maxRows int) error { return sim.Trace(w, sc, maxRows) }

// Lower-bound machinery (Section 3).
type (
	// Theorem1Report carries the Ω(EL) time-bound construction's output.
	Theorem1Report = lowerbound.Theorem1Report
	// Theorem2Report carries the Ω(E log L) cost-bound construction's
	// output.
	Theorem2Report = lowerbound.Theorem2Report
)

// RunTheorem1 executes the Theorem 3.1 pipeline (Trim + eagerness
// tournament) against an algorithm on the oriented ring.
func RunTheorem1(n, L int, algo Algorithm) (*Theorem1Report, error) {
	return lowerbound.RunTheorem1(n, L, algo)
}

// RunTheorem2 executes the Theorem 3.2 pipeline (sector/block progress
// vectors) against an algorithm on the oriented ring.
func RunTheorem2(n, L int, algo Algorithm) (*Theorem2Report, error) {
	return lowerbound.RunTheorem2(n, L, algo)
}

// Claimed bounds of the propositions, as executable formulas.
func CheapCostBound(e int) int               { return core.CheapCostBound(e) }
func CheapTimeBound(e, smallerLabel int) int { return core.CheapTimeBound(e, smallerLabel) }
func CheapWorstTimeBound(e, L int) int       { return core.CheapWorstTimeBound(e, L) }
func FastTimeBound(e, L int) int             { return core.FastTimeBound(e, L) }
func FastCostBound(e, L int) int             { return core.FastCostBound(e, L) }
func RelabelingTimeBound(e, L, w int) int    { return core.RelabelingTimeBound(e, L, w) }
func RelabelingCostSafe(e, w int) int        { return core.RelabelingCostSafe(e, w) }
