package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rendezvous/internal/adversary"
	"rendezvous/internal/resultstore"
	"rendezvous/internal/serve"
	"rendezvous/internal/sim"
)

// This file is the serve-mixed workload: an in-process serve.Server
// over a fresh result store, behind a loopback listener, driven by
// closed-loop clients (each sends its next request only after the
// previous answer arrived).

// daemon is one booted server with its warmed hot set.
type daemon struct {
	srv      *http.Server
	done     chan struct{} // closed when Serve returns
	url      string
	client   *http.Client
	storeDir string
	hot      []serve.Response // warm-up answer per hot-set entry
}

// bootDaemon opens a fresh store under dir, starts the server on a
// loopback port and warms the hot set through it with `clients`
// concurrent clients. Every warm-up search must be a cold engine run.
func bootDaemon(dir string, clients int) (*daemon, error) {
	storeDir, err := os.MkdirTemp(dir, "store-")
	if err != nil {
		return nil, err
	}
	store, err := resultstore.Open(storeDir)
	if err != nil {
		os.RemoveAll(storeDir)
		return nil, err
	}
	s, err := serve.New(serve.Config{Store: store})
	if err != nil {
		os.RemoveAll(storeDir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(storeDir)
		return nil, err
	}
	d := &daemon{
		srv:      &http.Server{Handler: s.Handler()},
		done:     make(chan struct{}),
		url:      "http://" + ln.Addr().String(),
		client:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}},
		storeDir: storeDir,
		hot:      make([]serve.Response, hotSetSize),
	}
	go func() {
		defer close(d.done)
		_ = d.srv.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()

	var next atomic.Int64
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(next.Add(1) - 1); j < hotSetSize; j = int(next.Add(1) - 1) {
				hs := hotSearch(j)
				body := hs.scenarioBody()
				if j%2 == 0 {
					body = hs.inlineBody()
				}
				resp, _, err := d.post(body)
				if err == nil && resp.Cached {
					err = errors.New("answered from a fresh store")
				}
				if err != nil {
					errs[c] = fmt.Errorf("warm hot search %d: %w", j, err)
					return
				}
				d.hot[j] = resp
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// post sends one /search body and decodes the answer; a non-200
// status or an answer without a result is an error.
func (d *daemon) post(body []byte) (serve.Response, time.Duration, error) {
	start := time.Now()
	httpResp, err := d.client.Post(d.url+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		return serve.Response{}, 0, err
	}
	defer httpResp.Body.Close()
	var resp serve.Response
	err = json.NewDecoder(httpResp.Body).Decode(&resp)
	lat := time.Since(start)
	switch {
	case err != nil:
		return resp, lat, fmt.Errorf("decode answer (HTTP %d): %w", httpResp.StatusCode, err)
	case httpResp.StatusCode != http.StatusOK:
		return resp, lat, fmt.Errorf("HTTP %d: %s", httpResp.StatusCode, resp.Error)
	case resp.Result == nil:
		return resp, lat, errors.New("answer carries no result")
	}
	return resp, lat, nil
}

// scrape reads GET /metrics into a map from series (name plus label
// set) to value.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := d.client.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if v, err := strconv.ParseFloat(line[i+1:], 64); i > 0 && err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// close stops the server, waits for it to exit and removes the store.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx) // in-flight requests have all been answered
	<-d.done
	d.client.CloseIdleConnections()
	os.RemoveAll(d.storeDir)
}

// served is one answered request.
type served struct {
	Req     request
	Resp    serve.Response
	Latency time.Duration
	Done    time.Duration // since the window opened
	Traced  bool
}

// serveRun is what one timed window produced.
type serveRun struct {
	Answers   []served
	Attempted int
	Failures  []string
	Wall      time.Duration
}

// traceSlice is the length of the alternating untraced and traced
// slices of a traced run's window.
const traceSlice = 500 * time.Millisecond

// driveServe runs the closed loop for the given duration: `clients`
// clients take request indices from one shared counter, so the
// sequence is fixed by the seed whatever the interleaving. Each answer
// is checked as it arrives: a hot request must be a store hit equal to
// its warm-up answer, a cold one must miss the store.
func driveServe(rec *recorder, d *daemon, seed int64, clients int, window time.Duration) serveRun {
	var next atomic.Int64
	var mu sync.Mutex
	var run serveRun
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				req := nextRequest(seed, int(next.Add(1)-1))
				body := req.Body()
				traced := rec != nil && time.Since(start)/traceSlice%2 == 1
				var tr *recorder
				if traced {
					tr = rec
				}
				id := fmt.Sprintf("req-%d", req.Index)
				root := tr.start(nil, id, "request")
				sp := tr.start(root, id, "serve.post")
				resp, lat, err := d.post(body)
				sp.set("cached", boolNum(resp.Cached))
				sp.end()
				sp = tr.start(root, id, "check")
				if err == nil {
					err = checkServed(d, req, resp)
				}
				sp.end()
				root.end()

				mu.Lock()
				run.Attempted++
				if err != nil {
					run.Failures = append(run.Failures, fmt.Sprintf("request %d: %v", req.Index, err))
				} else {
					run.Answers = append(run.Answers, served{Req: req, Resp: resp, Latency: lat, Done: time.Since(start), Traced: traced})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	run.Wall = time.Since(start)
	sort.Slice(run.Answers, func(i, j int) bool { return run.Answers[i].Req.Index < run.Answers[j].Req.Index })
	return run
}

func checkServed(d *daemon, req request, resp serve.Response) error {
	if !req.Hot {
		if resp.Cached {
			return errors.New("cold search answered from the store")
		}
		return nil
	}
	want := d.hot[req.HotIdx]
	switch {
	case !resp.Cached:
		return fmt.Errorf("hot search %d missed the store", req.HotIdx)
	case resp.Fingerprint != want.Fingerprint:
		return fmt.Errorf("hot search %d: fingerprint %s, warm-up had %s", req.HotIdx, resp.Fingerprint, want.Fingerprint)
	case *resp.Result != *want.Result:
		return fmt.Errorf("hot search %d: result %+v differs from warm-up %+v", req.HotIdx, *resp.Result, *want.Result)
	}
	return nil
}

func boolNum(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// recheckSample is how many misses are recomputed through the engine
// after the window.
const recheckSample = 8

// recheckMisses recomputes a seeded sample of the window's misses
// through adversary.SearchModel and compares result and fingerprint
// with what the daemon answered. It returns the failures.
func recheckMisses(seed int64, answers []served, workers int) []string {
	var misses []served
	for _, a := range answers {
		if !a.Req.Hot {
			misses = append(misses, a)
		}
	}
	var failures []string
	for k := 0; k < recheckSample && len(misses) > 0; k++ {
		a := misses[draw(seed, 0x7ec4ec, uint64(k))%uint64(len(misses))]
		cs, err := compileDoc(nil, fmt.Sprintf("req-%d", a.Req.Index), a.Req.Search.scenarioDoc())
		var wc sim.WorstCase
		if err == nil {
			wc, err = adversary.SearchModel(cs.Model, adversary.Options{Workers: workers})
		}
		switch {
		case err != nil:
			failures = append(failures, fmt.Sprintf("recheck request %d: %v", a.Req.Index, err))
		case cs.Fingerprint != a.Resp.Fingerprint:
			failures = append(failures, fmt.Sprintf("recheck request %d: fingerprint %s, served %s", a.Req.Index, cs.Fingerprint, a.Resp.Fingerprint))
		case wc != *a.Resp.Result:
			failures = append(failures, fmt.Sprintf("recheck request %d: engine %+v, served %+v", a.Req.Index, wc, *a.Resp.Result))
		}
	}
	return failures
}

// replaySample is how many answered requests of each kind the traced
// run replays through the client-side layers.
const replaySample = 24

// replayLayers replays a seeded sample of the window's answered
// requests through the layers a request crosses before and after the
// engine — scenario parse and compile, fingerprint, store read (on a
// second handle of the daemon's store) and store write (to a scratch
// store) — and runs a few of the misses through the engine's plan API
// with probes, all under spans.
func replayLayers(rec *recorder, d *daemon, scratchDir string, seed int64, answers []served) error {
	reader, err := resultstore.Open(d.storeDir)
	if err != nil {
		return err
	}
	writer, err := resultstore.Open(scratchDir)
	if err != nil {
		return err
	}
	var hot, cold []served
	for _, a := range answers {
		if a.Req.Hot {
			hot = append(hot, a)
		} else {
			cold = append(cold, a)
		}
	}
	for kind, pool := range [][]served{hot, cold} {
		for k := 0; k < replaySample && len(pool) > 0; k++ {
			a := pool[draw(seed, 0x4e91a7+uint64(kind), uint64(k))%uint64(len(pool))]
			id := fmt.Sprintf("replay-%d", a.Req.Index)
			cs, err := compileDoc(rec, id, a.Req.Search.scenarioDoc())
			if err != nil {
				return err
			}
			root := rec.start(nil, id, "replay.store")
			sp := rec.start(root, id, "resultstore.get")
			got, ok := reader.Get(cs.Fingerprint)
			sp.set("hit", boolNum(ok))
			sp.end()
			if a.Req.Hot && (!ok || got != *a.Resp.Result) {
				root.end()
				return fmt.Errorf("%s: store read disagrees with the served answer", id)
			}
			if !a.Req.Hot {
				sp = rec.start(root, id, "resultstore.put")
				err = writer.Put(cs.Fingerprint, *a.Resp.Result)
				sp.end()
			}
			root.end()
			if err != nil {
				return err
			}
			if !a.Req.Hot && k < 2*len(serveShapes) {
				// The daemon runs each search serially (one engine worker).
				out, err := runSearch(rec, cs, 1)
				if err != nil {
					return err
				}
				if out.Result != *a.Resp.Result {
					return fmt.Errorf("%s: plan API result differs from the served answer", id)
				}
				if err := probeSearch(rec, cs, out.Tier); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// metricDelta returns after-before for one scraped series.
func metricDelta(before, after map[string]float64, series string) float64 {
	return after[series] - before[series]
}

// serveSetupReps is how many times a serve-mixed run boots a daemon
// and warms its hot set; setup_s is the median, and the last daemon
// serves the window.
const serveSetupReps = 3

// runServe runs the serve-mixed workload.
func runServe(cfg config) (*report, error) {
	rep := newReport()
	var rec *recorder
	if cfg.Trace {
		rec = newRecorder()
	}
	var setupS []float64
	var d *daemon
	for r := range serveSetupReps {
		start := time.Now()
		if r == 0 {
			start = processStart
		}
		if d != nil {
			d.close()
		}
		if err := os.MkdirAll(cfg.Out, 0o755); err != nil {
			return nil, err
		}
		var err error
		if d, err = bootDaemon(cfg.Out, cfg.Workers); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer d.close()
	rep.set("setup_s", median(setupS), len(setupS))

	before, err := d.scrape()
	if err != nil {
		return nil, err
	}
	var rss rssSlices
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for rss.begin(); ; {
			select {
			case <-tick.C:
				rss.end()
				rss.begin()
			case <-stop:
				return
			}
		}
	}()
	run := driveServe(rec, d, cfg.Seed, cfg.Workers, cfg.Window)
	close(stop)
	<-sampled
	after, err := d.scrape()
	if err != nil {
		return nil, err
	}
	rep.Attempted = run.Attempted
	rep.Failures = append(rep.Failures, run.Failures...)
	rep.Failures = append(rep.Failures, recheckMisses(cfg.Seed, run.Answers, cfg.Workers)...)
	if len(run.Answers) == 0 {
		return nil, errNoWork
	}

	// Latency by disposition, per mode ([untraced, traced]).
	var hits, misses [2][]float64
	shared := 0
	for _, a := range run.Answers {
		ms := float64(a.Latency) / 1e6
		if a.Resp.Cached {
			hits[boolIdx(a.Traced)] = append(hits[boolIdx(a.Traced)], ms)
		} else {
			misses[boolIdx(a.Traced)] = append(misses[boolIdx(a.Traced)], ms)
		}
		if a.Resp.Shared {
			shared++
		}
	}
	// Throughput is the interquartile mean over the window's whole
	// one-second slices, so a stall that lasts part of the window moves
	// it less.
	slices := int(run.Wall / time.Second)
	if slices == 0 {
		return nil, errNoWork
	}
	perSlice := make([]struct{ searches, configs float64 }, slices)
	for _, a := range run.Answers {
		if i := int(a.Done / time.Second); i < slices {
			perSlice[i].searches++
			perSlice[i].configs += float64(a.Req.Search.Configs())
		}
	}
	var searchRates, configRates []float64
	for _, s := range perSlice {
		searchRates = append(searchRates, s.searches)
		configRates = append(configRates, s.configs)
	}
	rep.set("configs_per_s", interquartileMean(configRates), slices)
	rep.set("searches_per_s", interquartileMean(searchRates), slices)
	rep.set("miss_p50_ms", percentile(misses[0], 50), len(misses[0]))
	rssMB, rssSamples := rss.value()
	rep.set("peak_rss_mb", rssMB, rssSamples)
	rep.Extra = append(rep.Extra,
		fmt.Sprintf("hit_p50_ms %.4f ms (n=%d)", percentile(hits[0], 50), len(hits[0])),
		fmt.Sprintf("hit_p99_ms %.4f ms (n=%d)", percentile(hits[0], 99), len(hits[0])),
		fmt.Sprintf("miss_p99_ms %.4f ms (n=%d)", percentile(misses[0], 99), len(misses[0])))
	if !cfg.Trace {
		return rep, nil
	}

	rep.set("serve.hit_p50_ms", percentile(hits[0], 50), len(hits[0]))
	rep.set("serve.hit_p99_ms", percentile(hits[0], 99), len(hits[0]))
	rep.set("serve.miss_p99_ms", percentile(misses[0], 99), len(misses[0]))
	if n := len(misses[0]) + len(misses[1]); n > 0 {
		rep.set("serve.shared_ratio", float64(shared)/float64(n), n)
	}
	hitsN := metricDelta(before, after, "rdv_cache_hits_total")
	if lookups := hitsN + metricDelta(before, after, "rdv_cache_misses_total"); lookups > 0 {
		rep.set("resultstore.hit_ratio", hitsN/lookups, int(lookups))
	}
	// The admission layer observes only runs that had to queue; the
	// mean wait is taken over every engine run, counting the others as
	// zero.
	if runs := metricDelta(before, after, `rdv_search_seconds_count{tier="engine"}`); runs > 0 {
		wait := metricDelta(before, after, `rdv_queue_wait_seconds_sum{tenant="anonymous"}`)
		rep.set("admission.queue_wait_ms", wait/runs*1000, int(runs))
		rep.set("serve.search_ms", metricDelta(before, after, `rdv_search_seconds_sum{tier="engine"}`)/runs*1000, int(runs))
	}
	if len(misses[1]) > 0 && len(misses[0]) > 0 {
		rep.set("trace.overhead_miss_p50_ms", percentile(misses[1], 50)/percentile(misses[0], 50), len(misses[1]))
		untraced, traced := 0, 0
		for _, a := range run.Answers {
			if a.Traced {
				traced += a.Req.Search.Configs()
			} else {
				untraced += a.Req.Search.Configs()
			}
		}
		// The two modes alternate in equal slices of the window, so
		// their configuration totals compare their rates.
		rep.set("trace.overhead_configs_per_s", float64(untraced)/float64(traced), len(run.Answers))
	}

	scratch, err := os.MkdirTemp(cfg.Out, "put-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	if err := replayLayers(rec, d, scratch, cfg.Seed, run.Answers); err != nil {
		rep.fail("replay: %v", err)
	}
	return rep, finishTrace(cfg, rec, rep)
}
