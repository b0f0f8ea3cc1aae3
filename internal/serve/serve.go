// Package serve implements the HTTP JSON search service behind
// cmd/rdvd: a thin always-on layer in front of the adversary-search
// engine and the result store.
//
// The request path is ordered so that repeated traffic is as cheap as
// possible:
//
//  1. Parse the request and lower it onto a scenario.Search (the
//     inline fields are sugar for a paper-model scenario document),
//     then validate and compile it through internal/scenario. Every
//     malformed request dies here with a 400 — nothing below this
//     line can panic the daemon.
//  2. Fingerprint the compiled search (resultstore canonicalization:
//     equivalent request spellings collide) and look it up in the
//     store. A hit is answered immediately without touching the
//     engine.
//  3. Deduplicate identical in-flight searches: concurrent requests
//     with the same fingerprint join one engine run (single-flight)
//     and all receive its result.
//  4. Run the search on a bounded worker pool (at most MaxConcurrent
//     engine runs at once) under a context that is cancelled when
//     every request waiting on the flight has gone away, and write
//     the result back to the store.
//
// Progress streaming: a request with "stream": true receives
// newline-delimited JSON — one {"type":"progress"} event per
// completed shard, then a final {"type":"result"} (or
// {"type":"error"}) line.
//
// Multi-tenancy: when Config.Auth is set, every /search, /shard and
// /index request must carry a granted bearer token; the token's tenant
// identity drives per-tenant weighted-fair admission to the bounded
// engine pool (internal/admission), per-tenant rate limits (429 +
// Retry-After), the /metrics series and the structured request log.
// With auth disabled every request is the anonymous tenant and the
// pipeline behaves exactly as the single-tenant daemon always did.
//
// Cluster roles: every server additionally serves POST /shard — one
// shard of a search's fixed decomposition, with exactly the same
// request validation and caps as /search, cached per shard in the
// store — which makes any daemon usable as a cluster worker. A server
// configured with Peers becomes a coordinator: /search keeps its whole
// pipeline (validation, cache-first answering, single-flight,
// streaming), but instead of running the engine locally it fans the
// shard plan out to the peers through internal/cluster and merges the
// results bit-for-bit identically to a local run.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rendezvous/internal/admission"
	"rendezvous/internal/adversary"
	"rendezvous/internal/auth"
	"rendezvous/internal/cluster"
	"rendezvous/internal/metrics"
	"rendezvous/internal/model"
	"rendezvous/internal/resultstore"
	"rendezvous/internal/scenario"
	"rendezvous/internal/sim"
	"rendezvous/internal/trace"
)

// Request size caps. The daemon is a shared process: one oversized
// request must not be able to allocate it to death (a Go out-of-memory
// is a fatal throw no middleware can recover). Both body forms lower
// onto a scenario.Search and are validated against the scenario
// format's caps (graph size, delays, list lengths, tree draws), so
// the two forms cannot drift on what they admit; the daemon adds only
// the two caps below. Oversized requests are 400s.
const (
	// MaxL caps the served label-space size. Deliberately stricter than
	// the format-level scenario.MaxL (which admits offline benchmark
	// sweeps); enforced on the resolved L of both body forms.
	MaxL = 512
	// MaxBodyBytes caps the request body read off the wire, so a
	// multi-gigabyte JSON document dies at the decoder, not in the
	// allocator.
	MaxBodyBytes = 8 << 20
)

// Request is the body of POST /search. A search is spelled one of
// two ways: the inline fields below (the paper model only), or a
// complete declarative scenario document in Scenario (any registered
// model). The inline fields are sugar for a paper-model scenario
// document, so both spellings share one validator and one caps table,
// and equal searches get equal fingerprints. The two spellings are
// mutually exclusive; the transport options (workers, stream, timings)
// belong to the envelope and apply to both.
type Request struct {
	// Scenario, when present, is a standalone internal/scenario Search
	// document (with its own "version", "model", tier and symmetry
	// fields), validated by the scenario parser and lowered onto a
	// model. It is kept raw here so cluster dispatch re-embeds the
	// client's exact document and workers re-validate it identically.
	Scenario json.RawMessage `json:"scenario,omitempty"`

	// Graph, Explorer, Algorithm, LabelPairs, StartPairs, Delays and
	// Symmetry mean exactly what the scenario.Search fields of the
	// same names mean.
	Graph     scenario.GraphSpec `json:"graph"`
	Explorer  string             `json:"explorer,omitempty"`
	Algorithm string             `json:"algorithm"`
	// L is the label-space size (the scenario document's "l").
	// Required when LabelPairs is omitted; when LabelPairs is given,
	// defaults to the largest label listed.
	L int `json:"L,omitempty"`
	// Empty LabelPairs, StartPairs and Delays default to exhaustive
	// enumeration exactly as in sim.SearchSpace.
	LabelPairs [][2]int `json:"labelPairs,omitempty"`
	StartPairs [][2]int `json:"startPairs,omitempty"`
	Delays     []int    `json:"delays,omitempty"`
	Symmetry   string   `json:"symmetry,omitempty"`
	// Workers overrides the per-search worker count (0 = server
	// default, negative = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Stream selects the NDJSON progress-streaming response.
	Stream bool `json:"stream,omitempty"`
	// Timings opts into the explain API: the response (or the final
	// stream event) carries the request's per-phase duration breakdown.
	// Requires the server to run with tracing enabled; silently absent
	// otherwise. A transport option like Stream — it never reaches the
	// engine or the fingerprint.
	Timings bool `json:"timings,omitempty"`
}

// search returns the scenario.Search the request spells: the inline
// fields lowered onto a standalone document, or the parsed scenario
// document, whose presence requires every inline field to be absent
// so a request can never half-override what the document pins.
func (r Request) search() (*scenario.Search, error) {
	inline := scenario.Search{
		Graph:      r.Graph,
		Explorer:   r.Explorer,
		Algorithm:  r.Algorithm,
		L:          r.L,
		LabelPairs: r.LabelPairs,
		StartPairs: r.StartPairs,
		Delays:     r.Delays,
		Symmetry:   r.Symmetry,
	}
	if r.Scenario == nil {
		inline.Version = scenario.Version
		return &inline, nil
	}
	if !reflect.ValueOf(inline).IsZero() {
		return nil, fmt.Errorf("serve: scenario and inline search fields are mutually exclusive")
	}
	return scenario.ParseSearch(r.Scenario)
}

// compile validates the request and lowers it onto a model.Model
// through the scenario compiler. defaultWorkers is the server-wide
// per-search worker count used when the request does not override it;
// it lands in the returned execution options alongside nothing else
// (tier, symmetry and budgets are the model's own state).
func (r Request) compile(defaultWorkers int) (model.Model, adversary.Options, error) {
	var opts adversary.Options
	opts.Workers = r.Workers
	if opts.Workers == 0 {
		opts.Workers = defaultWorkers
	}
	sc, err := r.search()
	if err != nil {
		return nil, opts, err
	}
	// The format admits benchmark-scale label spaces; the daemon
	// does not (scenario.MaxL > serve.MaxL).
	if l := sc.EffectiveL(); l > MaxL {
		return nil, opts, fmt.Errorf("serve: L %d exceeds the served maximum %d", l, MaxL)
	}
	m, err := sc.Compile(scenario.Options{})
	if err != nil {
		return nil, opts, err
	}
	return m, opts, nil
}

// Response is the body of a non-streaming POST /search answer.
type Response struct {
	// Fingerprint is the search's content address in the store.
	Fingerprint string `json:"fingerprint"`
	// Cached reports that the result was served from the store without
	// invoking the engine.
	Cached bool `json:"cached"`
	// Shared reports that the request joined an identical in-flight
	// search instead of starting its own engine run.
	Shared bool `json:"shared,omitempty"`
	// Result is the search outcome (absent on error).
	Result *sim.WorstCase `json:"result,omitempty"`
	// Error is the failure description (absent on success).
	Error string `json:"error,omitempty"`
	// Code classifies machine-actionable errors. The only value today
	// is "unsupported_model": the request named a model this daemon
	// does not serve; Models then lists what it does.
	Code string `json:"code,omitempty"`
	// Models is the daemon's registered model list (present only with
	// Code == "unsupported_model").
	Models []string `json:"models,omitempty"`
	// TraceID names this request's trace (present when the server
	// traces; also sent as the X-Rdv-Trace response header). Inspect it
	// via GET /debug/traces on the daemon's -debug-addr listener.
	TraceID string `json:"traceId,omitempty"`
	// Timings is the per-phase duration breakdown (present when the
	// request opted in with "timings": true and the server traces).
	Timings []trace.PhaseTiming `json:"timings,omitempty"`
}

// errorResponse shapes a compile/validation failure into the 400
// body. An unknown-model rejection from the scenario parser comes
// back structured — a stable code plus the registered model list — so
// clients can distinguish "this daemon doesn't speak that model" from
// a malformed document without parsing prose.
func errorResponse(err error) Response {
	resp := Response{Error: err.Error()}
	var ume *scenario.UnknownModelError
	if errors.As(err, &ume) {
		resp.Code = "unsupported_model"
		resp.Models = ume.Known
	}
	return resp
}

// StreamEvent is one NDJSON line of a streaming answer.
type StreamEvent struct {
	// Type is progress, result or error.
	Type string `json:"type"`
	// Completed and Total report shard progress (Type == progress).
	Completed int `json:"completed,omitempty"`
	Total     int `json:"total,omitempty"`
	// The remaining fields mirror Response (Type == result / error).
	Fingerprint string              `json:"fingerprint,omitempty"`
	Cached      bool                `json:"cached,omitempty"`
	Shared      bool                `json:"shared,omitempty"`
	Result      *sim.WorstCase      `json:"result,omitempty"`
	Error       string              `json:"error,omitempty"`
	TraceID     string              `json:"traceId,omitempty"`
	Timings     []trace.PhaseTiming `json:"timings,omitempty"`
}

// searchFunc is the engine entry point, injectable in tests: any
// model, driven through the model-generic checkpoint driver. progress
// may be nil; obs's zero value observes nothing.
type searchFunc func(ctx context.Context, m model.Model, opts adversary.Options, progress func(completed, total int), obs adversary.SearchObserver) (sim.WorstCase, error)

// engineSearch is the production searchFunc: the checkpointed engine
// driven for shard-level progress (without a checkpoint file — the
// store persists finished results; the daemon's unit of recovery is
// the request).
func engineSearch(ctx context.Context, m model.Model, opts adversary.Options, progress func(completed, total int), obs adversary.SearchObserver) (sim.WorstCase, error) {
	opts.Context = ctx
	return adversary.SearchModelCheckpointed(m, opts, adversary.CheckpointConfig{Progress: progress, Observer: obs})
}

// Config tunes a Server.
type Config struct {
	// Store caches results; nil disables caching (every request runs
	// the engine).
	Store *resultstore.Store
	// MaxConcurrent bounds how many engine searches run at once
	// (further requests queue). 0 means GOMAXPROCS.
	MaxConcurrent int
	// Workers is the per-search default worker count when a request
	// does not set one, following the engine convention: 0 and 1 run
	// serially, negative selects GOMAXPROCS.
	Workers int
	// SearchTimeout bounds each engine run server-side, so requests
	// near the size caps cannot pin pool slots for days while their
	// clients hold the connection open. 0 means DefaultSearchTimeout;
	// negative disables the bound.
	SearchTimeout time.Duration
	// Peers lists worker daemon base URLs. Non-empty turns the server
	// into a cluster coordinator: /search dispatches the shard plan to
	// the peers instead of running the engine locally.
	Peers []string
	// Shards fixes the shard count of distributed searches
	// (0 = the engine's DefaultCheckpointShards, clamped per search).
	Shards int
	// ShardTimeout bounds each shard attempt on each peer
	// (0 = cluster.DefaultShardTimeout).
	ShardTimeout time.Duration
	// ShardAttempts bounds the attempts per shard across peers before
	// a distributed search fails (0 = cluster.DefaultMaxAttempts).
	ShardAttempts int
	// ShardInflight is how many shards the coordinator keeps in flight
	// on each peer at once (0 = 1); raise it toward the workers'
	// -max-concurrent to keep multi-core workers busy.
	ShardInflight int
	// Auth verifies bearer tokens and maps them to tenants. Nil
	// disables authentication: every request is the anonymous tenant
	// and the daemon behaves exactly as before auth existed.
	Auth *auth.Authenticator
	// QueueDepth bounds each tenant's admission queue; the next search
	// past it is refused with 429 + Retry-After
	// (0 = admission.DefaultQueueDepth).
	QueueDepth int
	// RequestLog, when non-nil, receives one structured record per
	// request (endpoint, tenant, status, duration, fingerprint,
	// cache/dedup disposition).
	RequestLog *slog.Logger
	// PeerToken is the bearer token the coordinator presents to its
	// workers (required when the workers run with -auth-tokens).
	PeerToken string
	// AdmissionClock injects the admission layer's time source (tests
	// only; nil = real clock).
	AdmissionClock admission.Clock
	// Tracer records per-request span trees (nil disables tracing; the
	// request path is then byte-identical to the untraced daemon).
	Tracer *trace.Tracer
	// Instance labels this daemon's spans (typically the listen
	// address), so a cluster trace shows which daemon ran which span.
	Instance string
	// SlowRequest, when positive, logs the full phase breakdown at WARN
	// for any /search or /shard exceeding it (needs RequestLog and
	// Tracer).
	SlowRequest time.Duration
}

// DefaultSearchTimeout is the per-search deadline when
// Config.SearchTimeout is zero — generous for every experiment-scale
// sweep, small enough that stuck maximal requests release their pool
// slots the same hour they took them.
const DefaultSearchTimeout = 10 * time.Minute

// flight is one in-flight engine run, shared by every concurrent
// request with the same fingerprint.
type flight struct {
	fp     string
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed when wc/err are final

	mu        sync.Mutex
	subs      map[chan StreamEvent]struct{} // guarded by mu
	completed int                           // guarded by mu
	total     int                           // guarded by mu

	refs     int  // guarded by Server.mu
	finished bool // guarded by Server.mu

	wc  sim.WorstCase
	err error
}

// subscribe registers a progress listener and returns the latest
// progress snapshot so late joiners start from the current state.
func (f *flight) subscribe() (ch chan StreamEvent, completed, total int) {
	ch = make(chan StreamEvent, 64)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.subs[ch] = struct{}{}
	return ch, f.completed, f.total
}

func (f *flight) unsubscribe(ch chan StreamEvent) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.subs, ch)
}

// broadcast fans a progress event out to every subscriber without
// blocking the engine: a subscriber that cannot keep up misses
// intermediate events (the final result is delivered via done, never
// dropped).
func (f *flight) broadcast(completed, total int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.completed, f.total = completed, total
	ev := StreamEvent{Type: "progress", Completed: completed, Total: total}
	//lint:ignore detrange delivery order across independent subscriber channels is unobservable; each client sees its own in-order stream
	for ch := range f.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// Server is the HTTP search service.
type Server struct {
	store         *resultstore.Store
	adm           *admission.Controller // the engine pool, shared fairly between tenants
	auth          *auth.Authenticator   // nil = anonymous tenant
	fpSem         chan struct{}
	workers       int
	searchTimeout time.Duration
	search        searchFunc
	cluster       *cluster.Dispatcher // nil = run searches locally
	shards        int                 // requested shard count for distributed searches
	reqLog        *slog.Logger        // nil = no per-request log
	tracer        *trace.Tracer       // nil = tracing disabled
	instance      string              // span "instance" attribute
	slowReq       time.Duration       // 0 = no slow-request logging

	// Metrics (always registered; /metrics renders them).
	reg          *metrics.Registry
	mRequests    *metrics.Vec          // rdv_requests_total{endpoint,tenant,code}
	mCacheHits   *metrics.Vec          // rdv_cache_hits_total
	mCacheMisses *metrics.Vec          // rdv_cache_misses_total
	mSearchSec   *metrics.HistogramVec // rdv_search_seconds{tier}

	mu       sync.Mutex
	inflight map[string]*flight // guarded by mu

	// planMu guards a tiny MRU cache of compiled shard plans, so the N
	// /shard requests of one search share one plan (meeting tables,
	// trajectory caches) instead of rebuilding it N times. Plans are
	// read-only and safe for concurrent RunShard. The cap is small
	// because a cached table-tier plan can hold up to TableBudget of
	// tables: one active search plus one predecessor is the working set
	// of a worker behind a coordinator.
	planMu sync.Mutex
	plans  []cachedPlan // newest last, at most maxCachedPlans; guarded by planMu
}

// cachedPlan is one entry of the worker's shard-plan cache, keyed by
// fingerprint + shard count (everything RunShard's output depends on).
type cachedPlan struct {
	key  string
	plan *adversary.Plan
}

// maxCachedPlans bounds the shard-plan cache.
const maxCachedPlans = 2

// planFor returns the cached plan for the key, refreshing its MRU
// position, or nil.
func (s *Server) planFor(key string) *adversary.Plan {
	s.planMu.Lock()
	defer s.planMu.Unlock()
	for i, e := range s.plans {
		if e.key == key {
			s.plans = append(append(s.plans[:i], s.plans[i+1:]...), e)
			return e.plan
		}
	}
	return nil
}

// storePlan inserts a plan, evicting the least recently used entry
// beyond the cap. Two racing builders of the same key just insert
// twice; the duplicate ages out.
func (s *Server) storePlan(key string, p *adversary.Plan) {
	s.planMu.Lock()
	defer s.planMu.Unlock()
	s.plans = append(s.plans, cachedPlan{key: key, plan: p})
	if len(s.plans) > maxCachedPlans {
		s.plans = append(s.plans[:0:0], s.plans[len(s.plans)-maxCachedPlans:]...)
	}
}

// New returns a server over the given configuration. It errors only
// on an unusable cluster configuration (a malformed peer URL).
func New(cfg Config) (*Server, error) {
	maxConcurrent := cfg.MaxConcurrent
	if maxConcurrent <= 0 {
		maxConcurrent = runtime.GOMAXPROCS(0)
	}
	searchTimeout := cfg.SearchTimeout
	if searchTimeout == 0 {
		searchTimeout = DefaultSearchTimeout
	}
	if searchTimeout < 0 {
		searchTimeout = 0 // no bound
	}
	s := &Server{
		store:         cfg.Store,
		searchTimeout: searchTimeout,
		auth:          cfg.Auth,
		// Fingerprinting must run before the store lookup (a hit needs
		// the address), so it cannot sit behind the engine pool; it
		// gets its own CPU-sized bound instead, so a burst of maximal
		// requests cannot saturate the process with pre-pool hashing.
		fpSem:    make(chan struct{}, runtime.GOMAXPROCS(0)),
		workers:  cfg.Workers,
		search:   engineSearch,
		shards:   cfg.Shards,
		reqLog:   cfg.RequestLog,
		tracer:   cfg.Tracer,
		instance: cfg.Instance,
		slowReq:  cfg.SlowRequest,
		inflight: make(map[string]*flight),
		reg:      metrics.NewRegistry(),
	}
	s.mRequests = s.reg.Counter("rdv_requests_total",
		"Requests served, by endpoint, tenant and HTTP status.",
		"endpoint", "tenant", "code")
	s.mCacheHits = s.reg.Counter("rdv_cache_hits_total",
		"Searches answered from the result store without touching the engine.")
	s.mCacheMisses = s.reg.Counter("rdv_cache_misses_total",
		"Searches that missed the result store.")
	s.mSearchSec = s.reg.Histogram("rdv_search_seconds",
		"Search latency by serving tier (cache, engine, cluster, shard).",
		nil, "tier")
	mQueueWait := s.reg.Histogram("rdv_queue_wait_seconds",
		"Time each admitted request spent queued for an engine slot, by tenant.",
		nil, "tenant")
	// The engine pool is the admission controller: per-tenant
	// weighted-fair queues (deficit round-robin) in front of
	// maxConcurrent slots, replacing the old first-come semaphore.
	s.adm = admission.New(admission.Config{
		Slots:      maxConcurrent,
		QueueDepth: cfg.QueueDepth,
		Clock:      cfg.AdmissionClock,
		OnWait: func(tenant string, wait time.Duration) {
			mQueueWait.Observe(wait.Seconds(), tenant)
		},
	})
	s.reg.GaugeFunc("rdv_engine_pool_slots", "Engine pool size.", nil,
		func() []metrics.Sample { return []metrics.Sample{{Value: float64(s.adm.Slots())}} })
	s.reg.GaugeFunc("rdv_engine_pool_in_use", "Engine pool slots currently held.", nil,
		func() []metrics.Sample { return []metrics.Sample{{Value: float64(s.adm.Stats().InUse)}} })
	s.reg.GaugeFunc("rdv_queue_depth", "Admission queue depth, by tenant.", []string{"tenant"},
		func() []metrics.Sample {
			st := s.adm.Stats()
			// Sorted so /metrics exposition order is stable scrape to
			// scrape (gauge funcs bypass the registry's sorted render).
			tenants := make([]string, 0, len(st.Queued))
			for tenant := range st.Queued {
				tenants = append(tenants, tenant)
			}
			sort.Strings(tenants)
			samples := make([]metrics.Sample, 0, len(tenants))
			for _, tenant := range tenants {
				samples = append(samples, metrics.Sample{Labels: []string{tenant}, Value: float64(st.Queued[tenant])})
			}
			return samples
		})
	if len(cfg.Peers) > 0 {
		d, err := cluster.New(cluster.Config{
			Peers:           cfg.Peers,
			ShardTimeout:    cfg.ShardTimeout,
			MaxAttempts:     cfg.ShardAttempts,
			PerPeerInflight: cfg.ShardInflight,
			Store:           cfg.Store,
			AuthToken:       cfg.PeerToken,
		})
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		s.cluster = d
		s.reg.CounterFunc("rdv_shard_retries_total",
			"Shard attempts that failed and were requeued onto another peer.", nil,
			func() []metrics.Sample { return []metrics.Sample{{Value: float64(d.Retries())}} })
	}
	return s, nil
}

// Metrics returns the server's metric registry (what GET /metrics
// renders), so embedding callers can add series of their own.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Admission returns the server's admission controller (observability
// and test hook).
func (s *Server) Admission() *admission.Controller { return s.adm }

// Cluster returns the coordinator's dispatcher (nil when the server
// runs searches locally).
func (s *Server) Cluster() *cluster.Dispatcher { return s.cluster }

// Handler returns the service's HTTP routes: POST /search, POST
// /shard, GET /healthz, GET /index, GET /metrics. Authentication
// wraps everything except /healthz (liveness must not depend on
// credentials) and /metrics (the scraper is infrastructure, and the
// exposition leaks no result data); the request log and the
// per-request counter wrap authentication so refused requests are
// observed too.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/search", s.handleSearch)
	mux.HandleFunc("/shard", s.handleShard)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/index", s.handleIndex)
	mux.Handle("/metrics", s.reg)
	return recoverMiddleware(s.observeMiddleware(s.authMiddleware(mux)))
}

// requestMeta is the per-request observability record, installed in
// the context by observeMiddleware and filled in as the request moves
// through the pipeline. All fields are written by the handler
// goroutine only.
type requestMeta struct {
	tenant      auth.Tenant
	fingerprint string
	cached      bool
	shared      bool
}

// metaKey keys the *requestMeta in the request context.
type metaKey struct{}

// meta returns the request's observability record (never nil: a
// request that skipped the middleware — direct handler tests — gets a
// throwaway anonymous record).
func metaOf(r *http.Request) *requestMeta {
	if m, ok := r.Context().Value(metaKey{}).(*requestMeta); ok {
		return m
	}
	return &requestMeta{tenant: auth.Anonymous}
}

// admissionTenant lowers the authenticated identity onto the
// admission scheduler's terms.
func admissionTenant(t auth.Tenant) admission.Tenant {
	return admission.Tenant{ID: t.ID, Weight: t.Weight, Rate: t.Rate, Burst: t.Burst}
}

// statusRecorder captures the response status for the request log and
// counter. It forwards Flush so NDJSON streaming keeps working behind
// the middleware.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// observeMiddleware installs the request's observability record,
// counts the request into rdv_requests_total and, when a request log
// is configured, emits one structured record per request. When the
// server traces, it also opens the request's root span on /search and
// /shard — joining an incoming W3C traceparent (a coordinator's
// per-shard span) when one is presented, so coordinator and worker
// spans land in one trace — and announces the trace ID to the client
// in the X-Rdv-Trace response header before the handler runs.
func (s *Server) observeMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m := &requestMeta{tenant: auth.Anonymous}
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		ctx := context.WithValue(r.Context(), metaKey{}, m)
		var span *trace.Span
		if name := spanNameFor(r.URL.Path); name != "" {
			attrs := []trace.Attr{trace.String("endpoint", r.URL.Path), trace.String("instance", s.instance)}
			if traceID, parentID, ok := trace.ParseTraceparent(r.Header.Get("traceparent")); ok {
				ctx, span = s.tracer.StartRemote(ctx, traceID, parentID, name, attrs...)
			} else {
				ctx, span = s.tracer.StartRoot(ctx, name, attrs...)
			}
			if span != nil {
				w.Header().Set("X-Rdv-Trace", span.TraceID())
			}
		}
		next.ServeHTTP(rec, r.WithContext(ctx))
		status := rec.status
		if status == 0 {
			// Handler wrote nothing (e.g. client gone before the flight
			// finished): net/http would have sent 200 on return.
			status = http.StatusOK
		}
		elapsed := time.Since(start)
		span.SetAttr(trace.String("tenant", m.tenant.ID), trace.Int("status", status))
		s.mRequests.Inc(r.URL.Path, m.tenant.ID, strconv.Itoa(status))
		if s.reqLog != nil {
			s.reqLog.Info("request",
				"endpoint", r.URL.Path,
				"method", r.Method,
				"tenant", m.tenant.ID,
				"status", status,
				"duration", elapsed,
				"fingerprint", m.fingerprint,
				"cached", m.cached,
				"shared", m.shared,
				"trace", span.TraceID(),
			)
			if s.slowReq > 0 && elapsed >= s.slowReq && span != nil {
				phases := trace.Summarize(span.Snapshot(), span.SpanID())
				parts := make([]string, 0, len(phases))
				for _, p := range phases {
					parts = append(parts, p.String())
				}
				s.reqLog.Warn("slow request",
					"endpoint", r.URL.Path,
					"tenant", m.tenant.ID,
					"duration", elapsed,
					"threshold", s.slowReq,
					"trace", span.TraceID(),
					"fingerprint", m.fingerprint,
					"phases", strings.Join(parts, ", "),
				)
			}
		}
		span.End()
	})
}

// spanNameFor maps traced endpoints to their root span names; other
// paths ("" result) are untraced (health probes and metric scrapes
// would drown the ring in noise).
func spanNameFor(path string) string {
	switch path {
	case "/search":
		return "search"
	case "/shard":
		return "shard"
	}
	return ""
}

// authMiddleware resolves the request's tenant. /healthz and /metrics
// pass through unauthenticated; everything else must present a
// granted bearer token when auth is enabled (a nil authenticator
// resolves every request to the anonymous tenant).
func (s *Server) authMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz", "/metrics":
			next.ServeHTTP(w, r)
			return
		}
		authSpan := trace.StartLeaf(r.Context(), "auth")
		tenant, err := s.auth.Authenticate(r.Header.Get("Authorization"))
		authSpan.End()
		if err != nil {
			w.Header().Set("WWW-Authenticate", `Bearer realm="rdvd"`)
			writeJSON(w, http.StatusUnauthorized, Response{Error: "serve: unauthorized"})
			return
		}
		metaOf(r).tenant = tenant
		next.ServeHTTP(w, r)
	})
}

// writeOverload answers an admission refusal: 429 with a Retry-After
// header carrying the controller's backoff hint (whole seconds,
// rounded up, at least 1).
func writeOverload(w http.ResponseWriter, oe *admission.OverloadError, body any) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(oe.RetryAfter)))
	writeJSON(w, http.StatusTooManyRequests, body)
}

// retryAfterSeconds converts the controller's backoff hint to the
// header's whole-second grammar.
func retryAfterSeconds(d time.Duration) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// recoverMiddleware turns a handler panic into a 500 instead of
// killing the daemon's connection handler silently.
func recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				writeJSON(w, http.StatusInternalServerError, Response{Error: fmt.Sprintf("internal error: %v", v)})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Read-only endpoints answer GET only, mirroring the POST-only
	// check on /search: a POST /healthz or /index looks like a
	// mutation and must not be served as if it were one.
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, Response{Error: "GET only"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, Response{Error: "GET only"})
		return
	}
	if s.store == nil {
		writeJSON(w, http.StatusOK, []resultstore.Entry{})
		return
	}
	entries, err := s.store.Index()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, Response{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, entries)
}

// compileAndFingerprint lowers a decoded request onto the engine and
// derives its canonical content address, with fingerprint hashing
// bounded by the CPU-sized fpSem. It is the one validation prologue
// shared by /search and /shard, so a cap or validation change can
// never apply to one path and silently miss the other. A non-nil
// error is always a client error (400): an unfingerprintable search
// is one the engine itself would reject (invalid space, explorer
// rejecting the graph).
func (s *Server) compileAndFingerprint(req Request) (model.Model, adversary.Options, string, error) {
	m, opts, err := req.compile(s.workers)
	if err != nil {
		return nil, opts, "", err
	}
	s.fpSem <- struct{}{}
	fp, err := m.Fingerprint()
	<-s.fpSem
	if err != nil {
		return nil, opts, "", err
	}
	return m, opts, fp, nil
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, Response{Error: "POST only"})
		return
	}
	m := metaOf(r)
	start := time.Now()
	// The rate budget is charged exactly once per request, here at the
	// top — before the body is read, so an over-budget tenant cannot
	// even make the daemon parse its payloads. Acquire (the engine-pool
	// slot) is charged separately, by the flight creator only, so a
	// request deduplicated onto an existing flight is never
	// double-charged.
	rateSpan := trace.StartLeaf(r.Context(), "ratecheck")
	err := s.adm.Allow(admissionTenant(m.tenant))
	rateSpan.End()
	if err != nil {
		var oe *admission.OverloadError
		if errors.As(err, &oe) {
			writeOverload(w, oe, Response{Error: oe.Error()})
			return
		}
		writeJSON(w, http.StatusInternalServerError, Response{Error: err.Error()})
		return
	}
	// Bound the body before decoding: an oversized document must fail
	// at the reader, not after the allocator has swallowed it.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, Response{Error: fmt.Sprintf("serve: malformed request: %v", err)})
		return
	}
	fpSpan := trace.StartLeaf(r.Context(), "fingerprint")
	mdl, opts, fp, err := s.compileAndFingerprint(req)
	fpSpan.End()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse(err))
		return
	}
	m.fingerprint = fp
	root := trace.FromContext(r.Context())
	root.SetAttr(trace.String("fingerprint", fp))

	// Cache hit: answered without touching the engine or the pool.
	if s.store != nil {
		cacheSpan := trace.StartLeaf(r.Context(), "cache")
		wc, ok := s.store.Get(fp)
		cacheSpan.SetAttr(trace.Bool("hit", ok))
		cacheSpan.End()
		if ok {
			m.cached = true
			s.mCacheHits.Inc()
			s.mSearchSec.Observe(time.Since(start).Seconds(), "cache")
			resp := Response{Fingerprint: fp, Cached: true, Result: &wc, TraceID: root.TraceID()}
			if req.Timings {
				resp.Timings = trace.Summarize(root.Snapshot(), root.SpanID())
			}
			if req.Stream {
				s.streamFinal(w, StreamEvent{Type: "result", Fingerprint: fp, Cached: true, Result: &wc,
					TraceID: resp.TraceID, Timings: resp.Timings})
				return
			}
			writeJSON(w, http.StatusOK, resp)
			return
		}
	}
	s.mCacheMisses.Inc()

	f, created := s.join(fp)
	defer s.leave(f)
	m.shared = !created
	if created {
		// The flight outlives this request, so its spans hang off the
		// flight's own context — augmented with the creator's trace so
		// queue wait, engine execution and the store write-back land in
		// the creator's span tree. Requests that merely join the flight
		// trace only their own (cheap) pipeline.
		go s.run(f, trace.ContextWith(f.ctx, root), admissionTenant(m.tenant), req, mdl, opts)
	}

	if req.Stream {
		s.streamFlight(w, r, f, created, req.Timings)
		return
	}
	s.respondFlight(w, r, f, created, req.Timings)
}

// respondFlight writes the non-streaming /search answer once the
// flight finishes. A completed result is always written when
// available: when the client's context fires, f.done is re-checked
// first, because with both channels ready the select picks at random —
// a client that disconnected a moment after the flight finished (or a
// context cancelled between the engine completing and this select
// running) would otherwise sometimes get an empty body for a search
// that succeeded.
func (s *Server) respondFlight(w http.ResponseWriter, r *http.Request, f *flight, created, timings bool) {
	root := trace.FromContext(r.Context())
	explain := func() []trace.PhaseTiming {
		if !timings || root == nil {
			return nil
		}
		return trace.Summarize(root.Snapshot(), root.SpanID())
	}
	finish := func() {
		if f.err != nil {
			// An admission refusal surfacing through the flight (the
			// creator's tenant queue was full) is the client's signal to
			// back off, not a server fault.
			var oe *admission.OverloadError
			if errors.As(f.err, &oe) {
				writeOverload(w, oe, Response{Fingerprint: f.fp, Shared: !created, Error: f.err.Error(), TraceID: root.TraceID()})
				return
			}
			writeJSON(w, http.StatusInternalServerError, Response{Fingerprint: f.fp, Shared: !created, Error: f.err.Error(), TraceID: root.TraceID()})
			return
		}
		wc := f.wc
		writeJSON(w, http.StatusOK, Response{Fingerprint: f.fp, Shared: !created, Result: &wc, TraceID: root.TraceID(), Timings: explain()})
	}
	select {
	case <-f.done:
		finish()
	case <-r.Context().Done():
		select {
		case <-f.done:
			finish()
		default:
			// The client is gone and the flight is still running;
			// leave() cancels the engine if no other request waits on
			// this flight.
		}
	}
}

// join returns the in-flight search for the fingerprint, creating it
// if absent, and takes a reference on it.
func (s *Server) join(fp string) (*flight, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.inflight[fp]; ok {
		f.refs++
		return f, false
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &flight{
		fp:     fp,
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
		subs:   make(map[chan StreamEvent]struct{}),
		refs:   1,
	}
	s.inflight[fp] = f
	return f, true
}

// leave drops a reference; when the last waiting request abandons an
// unfinished flight, the engine run is cancelled and the flight
// unpublished so a later identical request starts fresh.
func (s *Server) leave(f *flight) {
	s.mu.Lock()
	f.refs--
	abandoned := f.refs == 0 && !f.finished
	if abandoned && s.inflight[f.fp] == f {
		delete(s.inflight, f.fp)
	}
	s.mu.Unlock()
	if abandoned {
		f.cancel()
	}
}

// run executes the flight's search — locally on the bounded pool, or
// fanned out across the cluster when the server is a coordinator —
// and publishes the result. fctx is the flight's context augmented
// with the creator's trace span (same cancellation as f.ctx). tenant
// is the flight creator's identity: only the creator occupies an
// admission queue slot; requests that join the flight later wait on
// done without holding capacity.
func (s *Server) run(f *flight, fctx context.Context, tenant admission.Tenant, req Request, m model.Model, opts adversary.Options) {
	var wc sim.WorstCase
	var err error
	if s.cluster != nil {
		// Dispatch is network-bound: the compute happens on the peers,
		// so it does not take a local engine-pool slot (a coordinator's
		// throughput is its worker fleet, not its core count). The
		// per-search timeout still bounds it.
		ctx := fctx
		if s.searchTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.searchTimeout)
			defer cancel()
		}
		start := time.Now()
		dctx, dispatchSpan := trace.Start(ctx, "dispatch", trace.Int("peers", len(s.cluster.Peers())))
		wc, err = dispatch(dctx, s.cluster, req, m, f.fp, s.shards, f.broadcast)
		dispatchSpan.End()
		s.mSearchSec.Observe(time.Since(start).Seconds(), "cluster")
	} else {
		// Acquire under the flight's context: when every request waiting
		// on this flight disconnects, leave() cancels f.ctx and the
		// queued waiter is dequeued immediately — a flight nobody wants
		// can never be granted a slot.
		queueSpan := trace.StartLeaf(fctx, "queue")
		release, aerr := s.adm.Acquire(fctx, tenant)
		queueSpan.End()
		if aerr != nil {
			err = aerr
		} else {
			ctx := fctx
			if s.searchTimeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, s.searchTimeout)
				defer cancel()
			}
			start := time.Now()
			ectx, engineSpan := trace.Start(ctx, "engine")
			wc, err = s.search(ectx, m, opts, f.broadcast, traceObserver(ectx))
			engineSpan.End()
			s.mSearchSec.Observe(time.Since(start).Seconds(), "engine")
			release()
		}
	}
	if err == nil && s.store != nil {
		storeSpan := trace.StartLeaf(fctx, "store")
		_ = s.store.Put(f.fp, wc) // best-effort write-back
		storeSpan.End()
	}
	s.mu.Lock()
	f.wc, f.err = wc, err
	f.finished = true
	if s.inflight[f.fp] == f {
		delete(s.inflight, f.fp)
	}
	s.mu.Unlock()
	f.cancel() // release the context's resources
	close(f.done)
}

// traceObserver bridges the engine's SearchObserver events onto spans
// under ctx (the engine span). The "plan" span opens immediately —
// plan compilation is the first thing SearchCheckpointed does — and
// closes when PlanReady reports the decomposition; each executed shard
// gets a "shard.exec" span tagged with its index, tier and run count;
// checkpoint appends and the final merge get their own spans. With no
// span in ctx the zero observer is returned and the engine runs
// unobserved.
func traceObserver(ctx context.Context) adversary.SearchObserver {
	if trace.FromContext(ctx) == nil {
		return adversary.SearchObserver{}
	}
	var (
		mu        sync.Mutex
		tier      string
		planSpan  *trace.Span
		shardRuns = make(map[int]*trace.Span)
		ckptRuns  = make(map[int]*trace.Span)
		mergeSpan *trace.Span
	)
	planSpan = trace.StartLeaf(ctx, "plan")
	return adversary.SearchObserver{
		PlanReady: func(info adversary.PlanInfo) {
			mu.Lock()
			tier = info.Tier.String()
			mu.Unlock()
			planSpan.SetAttr(
				trace.String("tier", info.Tier.String()),
				trace.Int("shards", info.Shards),
				trace.Int("labelPairs", info.LabelPairs),
				trace.Int("startPairs", info.StartPairs),
				trace.Int("delays", info.Delays),
			)
			planSpan.End()
		},
		ShardStarted: func(shard, shards int) {
			mu.Lock()
			t := tier
			mu.Unlock()
			sp := trace.StartLeaf(ctx, "shard.exec",
				trace.Int("shard", shard), trace.Int("shards", shards), trace.String("tier", t))
			mu.Lock()
			shardRuns[shard] = sp
			mu.Unlock()
		},
		ShardFinished: func(shard, shards, runs int, err error) {
			mu.Lock()
			sp := shardRuns[shard]
			delete(shardRuns, shard)
			mu.Unlock()
			sp.SetAttr(trace.Int("runs", runs))
			if err != nil {
				sp.SetAttr(trace.String("error", err.Error()))
			}
			sp.End()
		},
		CheckpointAppendStarted: func(shard int) {
			sp := trace.StartLeaf(ctx, "checkpoint.append", trace.Int("shard", shard))
			mu.Lock()
			ckptRuns[shard] = sp
			mu.Unlock()
		},
		CheckpointAppendFinished: func(shard int, err error) {
			mu.Lock()
			sp := ckptRuns[shard]
			delete(ckptRuns, shard)
			mu.Unlock()
			if err != nil {
				sp.SetAttr(trace.String("error", err.Error()))
			}
			sp.End()
		},
		MergeStarted: func(shards int) {
			mu.Lock()
			defer mu.Unlock()
			mergeSpan = trace.StartLeaf(ctx, "merge", trace.Int("shards", shards))
		},
		MergeFinished: func() {
			mu.Lock()
			sp := mergeSpan
			mu.Unlock()
			sp.End()
		},
	}
}

// dispatch fans an already-compiled search out through the cluster:
// it fixes the shard count both sides will independently re-derive,
// embeds the request as the shard protocol's search body, and merges
// the peers' shard results bit-for-bit identically to a local Search.
func dispatch(ctx context.Context, d *cluster.Dispatcher, req Request, m model.Model, fp string, shards int, progress func(completed, total int)) (sim.WorstCase, error) {
	req.Stream = false  // stream is a transport option of /search, not part of the search
	req.Timings = false // likewise: explain is answered by the coordinator, not the workers
	search, err := json.Marshal(req)
	if err != nil {
		return sim.WorstCase{}, fmt.Errorf("serve: marshal search for dispatch: %w", err)
	}
	num, err := adversary.ModelPlanShards(m, shards)
	if err != nil {
		return sim.WorstCase{}, err
	}
	return d.Search(ctx, search, fp, num, progress)
}

// Distribute compiles the request, fingerprints it, and fans its fixed
// shard plan out through the dispatcher — the coordinator's /search
// path without the HTTP front end, exported for library clients (the
// rendezvous facade's SearchDistributed). shards <= 0 selects the
// engine default. The merged result is bit-for-bit identical to a
// single-node search of the same request.
func Distribute(ctx context.Context, d *cluster.Dispatcher, req Request, shards int, progress func(completed, total int)) (sim.WorstCase, string, error) {
	m, _, err := req.compile(0)
	if err != nil {
		return sim.WorstCase{}, "", err
	}
	fp, err := m.Fingerprint()
	if err != nil {
		return sim.WorstCase{}, "", err
	}
	wc, err := dispatch(ctx, d, req, m, fp, shards, progress)
	return wc, fp, err
}

// handleShard serves POST /shard: one shard of a search's fixed
// decomposition, for a cluster coordinator. The embedded search is
// recompiled with exactly the same validation and caps as /search
// (nothing reaches the engine unvalidated on this path either), and
// the coordinator's fingerprint and shard count must match the
// locally derived ones — a mismatch is version skew and answers 409
// rather than letting two disagreeing daemons merge different
// searches. Shard results are cached in the store under their
// ShardFingerprint.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, Response{Error: "POST only"})
		return
	}
	// The wrapper adds a fixed few hundred bytes around a /search body
	// that is itself capped at MaxBodyBytes; allow it headroom so any
	// body /search accepts remains dispatchable.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes+(64<<10)))
	dec.DisallowUnknownFields()
	var sreq cluster.ShardRequest
	if err := dec.Decode(&sreq); err != nil {
		writeJSON(w, http.StatusBadRequest, cluster.ShardResponse{Error: fmt.Sprintf("serve: malformed shard request: %v", err)})
		return
	}
	reqDec := json.NewDecoder(bytes.NewReader(sreq.Search))
	reqDec.DisallowUnknownFields()
	var req Request
	if err := reqDec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, cluster.ShardResponse{Error: fmt.Sprintf("serve: malformed embedded search: %v", err)})
		return
	}
	root := trace.FromContext(r.Context())
	fpSpan := trace.StartLeaf(r.Context(), "fingerprint")
	mdl, _, fp, err := s.compileAndFingerprint(req)
	fpSpan.End()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, cluster.ShardResponse{Error: err.Error()})
		return
	}
	if fp != sreq.Fingerprint {
		writeJSON(w, http.StatusConflict, cluster.ShardResponse{Error: fmt.Sprintf("serve: fingerprint mismatch: coordinator %.12s…, worker %.12s… (version skew?)", sreq.Fingerprint, fp)})
		return
	}
	// The shard-count agreement and range checks only need the cheap
	// count derivation (PlanShards builds no executor state and is
	// pinned to agree with NewPlan); the heavy plan — meeting tables,
	// trajectory caches — is built inside the engine pool below, so a
	// burst of shard requests cannot allocate unboundedly before the
	// pool gates it.
	num, err := adversary.ModelPlanShards(mdl, sreq.Shards)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, cluster.ShardResponse{Error: err.Error()})
		return
	}
	if num != sreq.Shards {
		writeJSON(w, http.StatusConflict, cluster.ShardResponse{Error: fmt.Sprintf("serve: shard-plan mismatch: coordinator wants %d shards, worker derives %d (version skew?)", sreq.Shards, num)})
		return
	}
	if sreq.Shard < 0 || sreq.Shard >= num {
		writeJSON(w, http.StatusBadRequest, cluster.ShardResponse{Error: fmt.Sprintf("serve: shard %d out of range [0,%d)", sreq.Shard, num)})
		return
	}

	m := metaOf(r)
	m.fingerprint = fp
	root.SetAttr(trace.String("fingerprint", fp), trace.Int("shard", sreq.Shard), trace.Int("shards", sreq.Shards))
	sfp := cluster.ShardFingerprint(fp, sreq.Shard, sreq.Shards)
	if s.store != nil {
		cacheSpan := trace.StartLeaf(r.Context(), "cache")
		wc, ok := s.store.Get(sfp)
		cacheSpan.SetAttr(trace.Bool("hit", ok))
		cacheSpan.End()
		if ok {
			m.cached = true
			writeJSON(w, http.StatusOK, cluster.ShardResponse{Fingerprint: fp, Shard: sreq.Shard, Shards: sreq.Shards, Cached: true, Result: &wc, Spans: root.Snapshot()})
			return
		}
	}

	// Shard execution — including plan construction — shares the engine
	// pool with local searches, so a worker daemon bounds its compute
	// the same way whichever role drives it, and a worker serving two
	// coordinators shares its pool fairly between them (the coordinator
	// authenticates like any client; its tenant keys the queue). Rate
	// limits deliberately do NOT apply to /shard — a coordinator
	// retrying shards must shed load by queueing, not by 429s that
	// would turn one slow peer into a cluster-wide retry storm. The
	// slot is released by defer: a panic below unwinds through
	// recoverMiddleware, and a leaked slot would wedge the pool
	// permanently.
	queueSpan := trace.StartLeaf(r.Context(), "queue")
	release, aerr := s.adm.Acquire(r.Context(), admissionTenant(m.tenant))
	queueSpan.End()
	if aerr != nil {
		var oe *admission.OverloadError
		if errors.As(aerr, &oe) {
			writeOverload(w, oe, cluster.ShardResponse{Fingerprint: fp, Shard: sreq.Shard, Shards: sreq.Shards, Error: oe.Error()})
		}
		// Context cancelled: the coordinator is gone; nothing to write.
		return
	}
	defer release()
	shardStart := time.Now()
	defer func() { s.mSearchSec.Observe(time.Since(shardStart).Seconds(), "shard") }()
	ctx := r.Context()
	if s.searchTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.searchTimeout)
		defer cancel()
	}
	wc, err := func() (sim.WorstCase, error) {
		planKey := fmt.Sprintf("%s/%d", fp, sreq.Shards)
		planSpan := trace.StartLeaf(ctx, "plan")
		plan := s.planFor(planKey)
		planSpan.SetAttr(trace.Bool("cached", plan != nil))
		if plan == nil {
			var perr error
			plan, perr = adversary.NewModelPlan(mdl, sreq.Shards)
			if perr != nil {
				planSpan.End()
				return sim.WorstCase{}, perr
			}
			s.storePlan(planKey, plan)
		}
		planSpan.SetAttr(trace.String("tier", plan.Info().Tier.String()))
		planSpan.End()
		execSpan := trace.StartLeaf(ctx, "execute",
			trace.Int("shard", sreq.Shard), trace.String("tier", plan.Info().Tier.String()),
			trace.Int("labelPairs", plan.Info().LabelPairs), trace.Int("startPairs", plan.Info().StartPairs))
		out, rerr := plan.RunShard(ctx, sreq.Shard)
		if rerr == nil {
			execSpan.SetAttr(trace.Int("runs", out.Runs))
		}
		execSpan.End()
		return out, rerr
	}()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, cluster.ShardResponse{Fingerprint: fp, Shard: sreq.Shard, Shards: sreq.Shards, Error: err.Error(), Spans: root.Snapshot()})
		return
	}
	if s.store != nil {
		storeSpan := trace.StartLeaf(r.Context(), "store")
		_ = s.store.Put(sfp, wc) // best-effort
		storeSpan.End()
	}
	// The span tree rides back in the response (the daemon's own root is
	// snapshotted in-progress — it ends when the middleware returns), so
	// the coordinator can adopt the worker's half of the trace.
	writeJSON(w, http.StatusOK, cluster.ShardResponse{Fingerprint: fp, Shard: sreq.Shard, Shards: sreq.Shards, Result: &wc, Spans: root.Snapshot()})
}

// streamFinal writes a one-event NDJSON stream (used for cache hits).
func (s *Server) streamFinal(w http.ResponseWriter, ev StreamEvent) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	json.NewEncoder(w).Encode(ev)
}

// streamFlight streams shard progress and the final result of a
// flight as NDJSON. The final event carries the request's trace ID
// and, when the request opted in, the phase-timing summary.
func (s *Server) streamFlight(w http.ResponseWriter, r *http.Request, f *flight, created, timings bool) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	ch, completed, total := f.subscribe()
	defer f.unsubscribe(ch)
	if total > 0 {
		enc.Encode(StreamEvent{Type: "progress", Completed: completed, Total: total})
		flush()
	}
	root := trace.FromContext(r.Context())
	final := func() {
		var phases []trace.PhaseTiming
		if timings && root != nil {
			phases = trace.Summarize(root.Snapshot(), root.SpanID())
		}
		if f.err != nil {
			enc.Encode(StreamEvent{Type: "error", Fingerprint: f.fp, Shared: !created, Error: f.err.Error(), TraceID: root.TraceID(), Timings: phases})
		} else {
			wc := f.wc
			enc.Encode(StreamEvent{Type: "result", Fingerprint: f.fp, Shared: !created, Result: &wc, TraceID: root.TraceID(), Timings: phases})
		}
		flush()
	}
	for {
		select {
		case ev := <-ch:
			enc.Encode(ev)
			flush()
		case <-f.done:
			final()
			return
		case <-r.Context().Done():
			// Same re-check as respondFlight: if the flight has already
			// finished, the final line must still be written — with both
			// channels ready the select picks at random, and a client
			// whose context fired a moment after completion would
			// otherwise sometimes get progress events but no result.
			select {
			case <-f.done:
				final()
			default:
			}
			return
		}
	}
}
