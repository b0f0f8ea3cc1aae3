package serve

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rendezvous/internal/resultstore"
	"rendezvous/internal/trace"
)

// TestClusterTraceSpansBothDaemons is the distributed-tracing
// acceptance test: a coordinator with two traced workers — one killed
// mid-search — serves a /search, and the coordinator's tracer ends up
// holding ONE trace whose spans cover both daemons (distinct
// "instance" attributes), with every span's parent inside the trace
// and the per-phase breakdown summing to the root span within 10%.
func TestClusterTraceSpansBothDaemons(t *testing.T) {
	coordTracer := trace.New(trace.Config{})

	dying := newKillableWorkerCfg(t, 1, Config{MaxConcurrent: 4, Workers: 1,
		Tracer: trace.New(trace.Config{}), Instance: "worker-2"})
	w1srv, err := New(Config{MaxConcurrent: 4, Workers: 1,
		Tracer: trace.New(trace.Config{}), Instance: "worker-1"})
	if err != nil {
		t.Fatal(err)
	}
	w1 := httptest.NewServer(holdShardsUntilKilled(w1srv.Handler(), dying))
	defer w1.Close()

	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord, err := New(Config{
		Store:         store,
		MaxConcurrent: 2,
		Workers:       1,
		Peers:         []string{w1.URL, dying.ts.URL},
		Shards:        8,
		Tracer:        coordTracer,
		Instance:      "coordinator",
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	want := localWant(t, ringRequest)
	status, resp := postSearch(t, ts.URL, ringRequest)
	if status != http.StatusOK || resp.Error != "" {
		t.Fatalf("distributed search: status %d error %q", status, resp.Error)
	}
	if resp.Result == nil || *resp.Result != want {
		t.Errorf("distributed result %+v != local %+v", resp.Result, want)
	}
	if !dying.dead.Load() {
		t.Error("the kill never fired; the mid-search failure path was not traced")
	}
	if resp.TraceID == "" {
		t.Fatal("traced coordinator returned no traceId")
	}

	traces := coordTracer.Traces(trace.Filter{})
	if len(traces) != 1 {
		t.Fatalf("coordinator published %d traces, want exactly 1", len(traces))
	}
	tr := traces[0]
	if tr.TraceID != resp.TraceID {
		t.Fatalf("published trace %s != response traceId %s", tr.TraceID, resp.TraceID)
	}

	// Every span belongs to the one trace and its parent is in the
	// trace (the root alone is parentless).
	ids := make(map[string]bool, len(tr.Spans))
	for _, s := range tr.Spans {
		ids[s.SpanID] = true
	}
	instances := make(map[string]bool)
	names := make(map[string]int)
	for _, s := range tr.Spans {
		if s.TraceID != tr.TraceID {
			t.Errorf("span %q (%s) carries trace %s, want %s", s.Name, s.SpanID, s.TraceID, tr.TraceID)
		}
		if s.SpanID == tr.Root {
			if s.ParentID != "" {
				t.Errorf("root span has parent %q", s.ParentID)
			}
		} else if !ids[s.ParentID] {
			t.Errorf("span %q (%s): parent %q is not in the trace", s.Name, s.SpanID, s.ParentID)
		}
		if inst, ok := s.Attrs.Get("instance").(string); ok {
			instances[inst] = true
		}
		names[s.Name]++
	}
	if !instances["coordinator"] || len(instances) < 2 {
		t.Errorf("trace covers instances %v, want the coordinator and at least one worker", instances)
	}
	// The worker side of the hop is visible: adopted worker root spans
	// (endpoint /shard) and the engine work under them.
	if names["shard"] == 0 {
		t.Errorf("no adopted worker root spans in the trace (names %v)", names)
	}
	if names["execute"] == 0 {
		t.Errorf("no worker execute spans in the trace (names %v)", names)
	}
	if names["shard.dispatch"] == 0 {
		t.Errorf("no coordinator dispatch-attempt spans in the trace (names %v)", names)
	}

	// The explain view is sound: direct-child phase durations account
	// for the root span within 10%.
	rootMs := float64(tr.Duration) / float64(time.Millisecond)
	if rootMs <= 0 {
		t.Fatalf("root span duration %v", tr.Duration)
	}
	var sumMs float64
	for _, ph := range trace.Summarize(tr.Spans, tr.Root) {
		sumMs += ph.DurationMs
	}
	if math.Abs(sumMs-rootMs) > 0.10*rootMs {
		t.Errorf("phase sum %.3fms vs root %.3fms: off by more than 10%%\nphases: %v",
			sumMs, rootMs, trace.Summarize(tr.Spans, tr.Root))
	}
}

// TestCoordinatorStreamTimings covers NDJSON progress streaming under
// cluster dispatch with the explain API on: aggregate progress events
// arrive monotonically, and the final event carries the trace ID and
// a per-phase timing breakdown that includes the dispatch phase.
func TestCoordinatorStreamTimings(t *testing.T) {
	w1, w2 := newWorker(t, nil), newWorker(t, nil)
	coord, err := New(Config{
		MaxConcurrent: 2,
		Workers:       1,
		Peers:         []string{w1.URL, w2.URL},
		Shards:        8,
		Tracer:        trace.New(trace.Config{}),
		Instance:      "coordinator",
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	body := `{"graph":{"family":"ring","n":8},"explorer":"ring-sweep","algorithm":"cheap","L":4,"delays":[0,1],"stream":true,"timings":true}`
	resp, err := http.Post(ts.URL+"/search", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	var progressEvents, lastCompleted, total int
	var final *StreamEvent
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var ev StreamEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		switch ev.Type {
		case "progress":
			progressEvents++
			if ev.Completed < lastCompleted {
				t.Errorf("progress went backwards: %d after %d", ev.Completed, lastCompleted)
			}
			if total != 0 && ev.Total != total {
				t.Errorf("total changed mid-stream: %d then %d", total, ev.Total)
			}
			lastCompleted, total = ev.Completed, ev.Total
			if ev.Completed > ev.Total {
				t.Errorf("completed %d > total %d", ev.Completed, ev.Total)
			}
		case "result", "error":
			e := ev
			final = &e
		}
	}
	if final == nil || final.Type != "result" {
		t.Fatalf("stream ended without a result (final %+v)", final)
	}
	if progressEvents == 0 {
		t.Error("no aggregate progress events under cluster dispatch")
	}
	want := localWant(t, strings.Replace(strings.Replace(body, `,"stream":true`, "", 1), `,"timings":true`, "", 1))
	if final.Result == nil || *final.Result != want {
		t.Errorf("streamed result %+v != local %+v", final.Result, want)
	}
	if final.TraceID == "" {
		t.Error("final stream event carries no traceId")
	}
	if len(final.Timings) == 0 {
		t.Fatal("timings requested but the final event has none")
	}
	sawDispatch := false
	for _, ph := range final.Timings {
		if ph.Count < 1 || ph.DurationMs < 0 {
			t.Errorf("implausible phase row %+v", ph)
		}
		if ph.Phase == "dispatch" {
			sawDispatch = true
		}
	}
	if !sawDispatch {
		t.Errorf("timings %v lack the dispatch phase", final.Timings)
	}
}

// BenchmarkTraceOverhead measures the cache-hit serving path with
// tracing off and on; the acceptance budget for the traced path is
// <2% over the untraced one.
func BenchmarkTraceOverhead(b *testing.B) {
	for _, traced := range []struct {
		name   string
		tracer *trace.Tracer
	}{
		{"untraced", nil},
		{"traced", trace.New(trace.Config{})},
	} {
		b.Run(traced.name, func(b *testing.B) {
			store, err := resultstore.Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			srv, err := New(Config{Store: store, MaxConcurrent: 4, Workers: 1,
				Tracer: traced.tracer, Instance: "bench"})
			if err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			post := func() {
				resp, err := http.Post(ts.URL+"/search", "application/json", strings.NewReader(ringRequest))
				if err != nil {
					b.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d", resp.StatusCode)
				}
			}
			post() // prime the store: every timed request is a cache hit
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post()
			}
		})
	}
}
