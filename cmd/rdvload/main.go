// Command rdvload drives a running rdvd daemon with concurrent
// multi-tenant search load and reports per-tenant throughput and
// latency percentiles as JSON — the measurement half of the
// multi-tenant serving layer's fairness story, and the harness CI uses
// to assert the fairness SLO against a live daemon.
//
// Usage:
//
//	rdvload -addr http://127.0.0.1:8377 -duration 5s \
//	        -tenants "heavy:s3cr3t-heavy-token:8,light:s3cr3t-light-token:1"
//	rdvload -addr http://127.0.0.1:8377 -tenants "anon::4"   # auth disabled
//	rdvload ... -assert-min-share light=0.35 -assert-max-error-rate 0.01
//
// Each tenant entry is id:token:concurrency — the tenant runs that
// many closed-loop workers, each issuing one search at a time (an
// empty token sends no Authorization header). Offered load is shaped
// by -hot-frac: a hot request repeats one fixed search (a store hit
// after the first completion), a cold request is globally unique and
// must run the engine, so the mix exercises the cache path and the
// admission queue together. -graph-n, -algorithm and -search-l shape
// the cost of each search: the tiny defaults measure the serving
// layer alone, while a fairness run picks a shape that keeps the
// engine pool saturated (e.g. -graph-n 16 -algorithm fast
// -search-l 128, roughly 100ms per cold search on one core).
//
// The report is one JSON document on stdout. It includes the top-5
// slowest completed requests with the trace IDs the daemon announced
// in X-Rdv-Trace, so a latency investigation jumps straight to the
// daemon's /debug/traces. -assert-min-share
// tenant=frac (repeatable, comma-separated) checks the tenant's share
// of completed searches; -assert-max-error-rate bounds transport and
// 5xx failures over all tenants. A violated assertion (or a run that
// completes no request at all) exits non-zero, so a CI step is just
// rdvload with assertions.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// tenantSpec is one -tenants entry.
type tenantSpec struct {
	id          string
	token       string
	concurrency int
}

// parseTenants parses "id:token:conc" comma-separated entries.
func parseTenants(s string) ([]tenantSpec, error) {
	var specs []tenantSpec
	seen := make(map[string]bool)
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.SplitN(entry, ":", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("tenant %q: want id:token:concurrency", entry)
		}
		conc, err := strconv.Atoi(parts[2])
		if err != nil || conc < 1 {
			return nil, fmt.Errorf("tenant %q: concurrency %q: want a positive integer", parts[0], parts[2])
		}
		if parts[0] == "" {
			return nil, fmt.Errorf("tenant %q: empty id", entry)
		}
		if seen[parts[0]] {
			return nil, fmt.Errorf("tenant %q listed twice", parts[0])
		}
		seen[parts[0]] = true
		specs = append(specs, tenantSpec{id: parts[0], token: parts[1], concurrency: conc})
	}
	if len(specs) == 0 {
		return nil, errors.New("no tenants configured")
	}
	return specs, nil
}

// shareAssert is one -assert-min-share entry.
type shareAssert struct {
	tenant string
	min    float64
}

// parseShareAsserts parses "tenant=frac" comma-separated entries.
func parseShareAsserts(s string) ([]shareAssert, error) {
	var asserts []shareAssert
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		tenant, frac, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("assertion %q: want tenant=minShare", entry)
		}
		min, err := strconv.ParseFloat(frac, 64)
		if err != nil || min < 0 || min > 1 {
			return nil, fmt.Errorf("assertion %q: share %q: want 0..1", entry, frac)
		}
		asserts = append(asserts, shareAssert{tenant: tenant, min: min})
	}
	return asserts, nil
}

// tenantStats accumulates one tenant's outcomes. Workers of the same
// tenant share it under mu.
type tenantStats struct {
	mu        sync.Mutex
	issued    int
	completed int // 2xx
	rejected  int // 429
	errors    int // transport failures and every other status
	cacheHits int
	statuses  map[string]int
	latencies []float64 // seconds, completed requests only
}

// LatencySummary is the percentile report of one tenant's completed
// requests.
type LatencySummary struct {
	P50Ms float64 `json:"p50Ms"`
	P90Ms float64 `json:"p90Ms"`
	P99Ms float64 `json:"p99Ms"`
	MaxMs float64 `json:"maxMs"`
}

// TenantReport is one tenant's slice of the JSON report.
type TenantReport struct {
	Concurrency   int            `json:"concurrency"`
	Issued        int            `json:"issued"`
	Completed     int            `json:"completed"`
	Rejected      int            `json:"rejected"`
	Errors        int            `json:"errors"`
	CacheHits     int            `json:"cacheHits"`
	Statuses      map[string]int `json:"statuses"`
	ThroughputRPS float64        `json:"throughputRps"`
	Share         float64        `json:"share"`
	Latency       LatencySummary `json:"latency"`
}

// AssertReport is one assertion's outcome in the JSON report.
type AssertReport struct {
	Assert string  `json:"assert"`
	Tenant string  `json:"tenant,omitempty"`
	Want   float64 `json:"want"`
	Got    float64 `json:"got"`
	OK     bool    `json:"ok"`
}

// SlowRequest is one of the slowest completed requests of the run,
// identified by the trace ID the daemon announced in its X-Rdv-Trace
// response header — so "why was the p99 bad" goes straight from this
// report to the daemon's /debug/traces without re-running the load.
type SlowRequest struct {
	Tenant    string  `json:"tenant"`
	LatencyMs float64 `json:"latencyMs"`
	TraceID   string  `json:"traceId,omitempty"`
}

// slowTracker keeps the top-N slowest completed requests across all
// tenants and workers, slowest first.
type slowTracker struct {
	mu   sync.Mutex
	max  int
	reqs []SlowRequest
}

func (tr *slowTracker) observe(tenant string, latency time.Duration, traceID string) {
	sr := SlowRequest{Tenant: tenant, LatencyMs: float64(latency) / float64(time.Millisecond), TraceID: traceID}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	i := sort.Search(len(tr.reqs), func(i int) bool { return tr.reqs[i].LatencyMs < sr.LatencyMs })
	if i >= tr.max {
		return
	}
	tr.reqs = append(tr.reqs, SlowRequest{})
	copy(tr.reqs[i+1:], tr.reqs[i:])
	tr.reqs[i] = sr
	if len(tr.reqs) > tr.max {
		tr.reqs = tr.reqs[:tr.max]
	}
}

func (tr *slowTracker) top() []SlowRequest {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]SlowRequest(nil), tr.reqs...)
}

// Report is the rdvload JSON output.
type Report struct {
	Addr            string                   `json:"addr"`
	DurationSeconds float64                  `json:"durationSeconds"`
	HotFraction     float64                  `json:"hotFraction"`
	TotalIssued     int                      `json:"totalIssued"`
	TotalCompleted  int                      `json:"totalCompleted"`
	Tenants         map[string]*TenantReport `json:"tenants"`
	SlowestRequests []SlowRequest            `json:"slowestRequests,omitempty"`
	Asserts         []AssertReport           `json:"asserts,omitempty"`
}

// searchBody builds a /search request body. Cold requests get a
// globally unique delay value, so every cold search has a fresh
// fingerprint and must run the engine; hot requests repeat one fixed
// search and hit the store after its first completion. The search
// shape (ring size, algorithm, L) is the caller's: the defaults are
// the smallest search the daemon serves, so the harness measures the
// serving layer, while a fairness run picks a shape expensive enough
// to saturate the engine pool and make the admission queue real.
func searchBody(hot bool, coldID int64, n, l int, algo string) []byte {
	delay := int64(0)
	if !hot {
		// scenario.MaxDelay (2^20) bounds served delays; wrap far below it.
		delay = 1 + coldID%1_000_000
	}
	return []byte(fmt.Sprintf(
		`{"graph":{"family":"ring","n":%d},"algorithm":%q,"L":%d,"delays":[%d]}`, n, algo, l, delay))
}

// run is the testable entry point: it parses args with a private flag
// set and writes to the given streams.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rdvload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "http://127.0.0.1:8377", "rdvd base URL")
		tenants      = fs.String("tenants", "", "comma-separated id:token:concurrency entries (required)")
		duration     = fs.Duration("duration", 5*time.Second, "how long to offer load")
		requests     = fs.Int("requests", 0, "per-worker request cap (0 = until -duration)")
		hotFrac      = fs.Float64("hot-frac", 0.5, "fraction of requests repeating one cacheable search (0..1)")
		graphN       = fs.Int("graph-n", 3, "ring size of the searched graph (cost knob)")
		algorithm    = fs.String("algorithm", "cheap", "engine algorithm for the searches")
		searchL      = fs.Int("search-l", 2, "label budget L of the searches (cost knob)")
		reqTimeout   = fs.Duration("request-timeout", time.Minute, "per-request deadline")
		minShares    = fs.String("assert-min-share", "", "comma-separated tenant=minShare assertions on completed-search shares")
		maxErrorRate = fs.Float64("assert-max-error-rate", -1, "fail if errors/issued exceeds this over all tenants (negative disables)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usageErr := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "rdvload: "+format+"\n", args...)
		fs.Usage()
		return 2
	}
	if *tenants == "" {
		return usageErr("-tenants is required")
	}
	specs, err := parseTenants(*tenants)
	if err != nil {
		return usageErr("-tenants: %v", err)
	}
	if *hotFrac < 0 || *hotFrac > 1 {
		return usageErr("-hot-frac %v: want 0..1", *hotFrac)
	}
	if *duration <= 0 {
		return usageErr("-duration %v: want positive", *duration)
	}
	if *requests < 0 {
		return usageErr("-requests %d: want >= 0", *requests)
	}
	if *graphN < 3 {
		return usageErr("-graph-n %d: a ring needs >= 3 nodes", *graphN)
	}
	if *searchL < 2 {
		return usageErr("-search-l %d: the daemon serves L >= 2", *searchL)
	}
	if *algorithm == "" {
		return usageErr("-algorithm: want an engine algorithm name")
	}
	asserts, err := parseShareAsserts(*minShares)
	if err != nil {
		return usageErr("-assert-min-share: %v", err)
	}
	known := make(map[string]bool)
	for _, sp := range specs {
		known[sp.id] = true
	}
	for _, a := range asserts {
		if !known[a.tenant] {
			return usageErr("-assert-min-share: tenant %q is not in -tenants", a.tenant)
		}
	}

	base := strings.TrimRight(*addr, "/")
	client := &http.Client{Timeout: *reqTimeout}
	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()

	stats := make(map[string]*tenantStats, len(specs))
	for _, sp := range specs {
		stats[sp.id] = &tenantStats{statuses: make(map[string]int)}
	}
	var coldID atomic.Int64
	slow := &slowTracker{max: 5}
	var wg sync.WaitGroup
	start := time.Now()
	for _, sp := range specs {
		for w := 0; w < sp.concurrency; w++ {
			wg.Add(1)
			go func(sp tenantSpec) {
				defer wg.Done()
				st := stats[sp.id]
				hot, total := 0, 0
				for ctx.Err() == nil && (*requests == 0 || total < *requests) {
					// Deterministic hot/cold interleaving at the configured
					// fraction (no randomness: runs are reproducible).
					isHot := float64(hot) < *hotFrac*float64(total+1)
					body := searchBody(isHot, coldID.Add(1), *graphN, *searchL, *algorithm)
					total++
					if isHot {
						hot++
					}
					issueOne(ctx, client, base, sp.id, sp.token, body, st, slow)
				}
			}(sp)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	report := Report{
		Addr:            base,
		DurationSeconds: elapsed.Seconds(),
		HotFraction:     *hotFrac,
		Tenants:         make(map[string]*TenantReport, len(specs)),
		SlowestRequests: slow.top(),
	}
	for _, sp := range specs {
		st := stats[sp.id]
		tr := &TenantReport{
			Concurrency: sp.concurrency,
			Issued:      st.issued,
			Completed:   st.completed,
			Rejected:    st.rejected,
			Errors:      st.errors,
			CacheHits:   st.cacheHits,
			Statuses:    st.statuses,
			Latency:     summarize(st.latencies),
		}
		tr.ThroughputRPS = float64(st.completed) / elapsed.Seconds()
		report.Tenants[sp.id] = tr
		report.TotalIssued += st.issued
		report.TotalCompleted += st.completed
	}
	for id, tr := range report.Tenants {
		if report.TotalCompleted > 0 {
			tr.Share = float64(tr.Completed) / float64(report.TotalCompleted)
		}
		_ = id
	}

	failed := 0
	for _, a := range asserts {
		got := report.Tenants[a.tenant].Share
		ok := got >= a.min
		if !ok {
			failed++
			fmt.Fprintf(stderr, "rdvload: ASSERT FAILED: tenant %q share %.3f < %.3f\n", a.tenant, got, a.min)
		}
		report.Asserts = append(report.Asserts, AssertReport{Assert: "min-share", Tenant: a.tenant, Want: a.min, Got: got, OK: ok})
	}
	if *maxErrorRate >= 0 {
		errCount := 0
		for _, tr := range report.Tenants {
			errCount += tr.Errors
		}
		got := 0.0
		if report.TotalIssued > 0 {
			got = float64(errCount) / float64(report.TotalIssued)
		}
		ok := got <= *maxErrorRate
		if !ok {
			failed++
			fmt.Fprintf(stderr, "rdvload: ASSERT FAILED: error rate %.4f > %.4f\n", got, *maxErrorRate)
		}
		report.Asserts = append(report.Asserts, AssertReport{Assert: "max-error-rate", Want: *maxErrorRate, Got: got, OK: ok})
	}

	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if report.TotalCompleted == 0 {
		fmt.Fprintf(stderr, "rdvload: no request completed against %s\n", base)
		return 1
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// issueOne sends one search and records the outcome. The loop is
// closed: each worker has exactly one request outstanding, so offered
// concurrency is the tenant's worker count. Completed requests feed
// the top-5 slowest tracker with the trace ID from X-Rdv-Trace.
func issueOne(ctx context.Context, client *http.Client, base, tenant, token string, body []byte, st *tenantStats, slow *slowTracker) {
	st.mu.Lock()
	st.issued++
	st.mu.Unlock()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/search", bytes.NewReader(body))
	if err != nil {
		recordError(st)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		// A context deadline firing mid-request is the run ending, not a
		// daemon failure.
		if ctx.Err() == nil {
			recordError(st)
			// Don't hot-spin a refusing or unreachable daemon.
			sleepCtx(ctx, 10*time.Millisecond)
		}
		return
	}
	var out struct {
		Cached bool   `json:"cached"`
		Error  string `json:"error"`
	}
	dec := json.NewDecoder(io.LimitReader(resp.Body, 1<<20))
	decodeErr := dec.Decode(&out)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	latency := time.Since(t0)
	traceID := resp.Header.Get("X-Rdv-Trace")

	completed := false
	st.mu.Lock()
	st.statuses[strconv.Itoa(resp.StatusCode)]++
	switch {
	case resp.StatusCode == http.StatusOK && decodeErr == nil && out.Error == "":
		completed = true
		st.completed++
		st.latencies = append(st.latencies, latency.Seconds())
		if out.Cached {
			st.cacheHits++
		}
	case resp.StatusCode == http.StatusTooManyRequests:
		st.rejected++
	default:
		st.errors++
	}
	st.mu.Unlock()
	if completed {
		slow.observe(tenant, latency, traceID)
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		// Refused for capacity: keep offering load (that pressure is the
		// point of the harness) but yield briefly so a saturated daemon
		// is not burned down by a 429 busy-loop.
		sleepCtx(ctx, 5*time.Millisecond)
	}
}

func recordError(st *tenantStats) {
	st.mu.Lock()
	st.errors++
	st.mu.Unlock()
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// summarize computes the latency percentiles of one tenant's
// completed requests (zeros when none completed).
func summarize(samples []float64) LatencySummary {
	if len(samples) == 0 {
		return LatencySummary{}
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	pct := func(p float64) float64 {
		i := int(p * float64(len(sorted)-1))
		return sorted[i] * 1000
	}
	return LatencySummary{
		P50Ms: pct(0.50),
		P90Ms: pct(0.90),
		P99Ms: pct(0.99),
		MaxMs: sorted[len(sorted)-1] * 1000,
	}
}
