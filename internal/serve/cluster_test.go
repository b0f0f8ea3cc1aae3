package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rendezvous/internal/adversary"
	"rendezvous/internal/cluster"
	"rendezvous/internal/resultstore"
	"rendezvous/internal/sim"
)

// newWorker boots an in-process worker daemon (a plain Server — every
// server serves /shard) and returns its base URL.
func newWorker(t testing.TB, store *resultstore.Store) *httptest.Server {
	t.Helper()
	srv, err := New(Config{Store: store, MaxConcurrent: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// newGatedWorker is newWorker with its /shard requests held until
// dying's kill fires (holdShardsUntilKilled).
func newGatedWorker(t testing.TB, dying *killableWorker) *httptest.Server {
	t.Helper()
	srv, err := New(Config{MaxConcurrent: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(holdShardsUntilKilled(srv.Handler(), dying))
	t.Cleanup(ts.Close)
	return ts
}

// killableWorker proxies a real worker and, after `after` shard
// requests, kills the connection of every later one (and fails its
// health probes) — a daemon dying mid-search. killed closes when the
// first kill fires.
type killableWorker struct {
	ts       *httptest.Server
	served   atomic.Int32
	dead     atomic.Bool
	after    int32
	killed   chan struct{}
	killOnce sync.Once
}

// holdShardsUntilKilled wraps a healthy worker's handler so its /shard
// requests wait until kw's kill has fired. The dispatcher is
// pull-based: left ungated, a fast healthy worker can drain the whole
// queue before the dying one asks for the shard that kills it. Held,
// the healthy side keeps at most its in-flight shards, so the rest of
// the queue reaches the dying worker and the kill fires on every run.
func holdShardsUntilKilled(h http.Handler, kw *killableWorker) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/shard" {
			select {
			case <-kw.killed:
			case <-r.Context().Done():
				return
			}
		}
		h.ServeHTTP(w, r)
	})
}

func newKillableWorker(t testing.TB, after int32) *killableWorker {
	t.Helper()
	return newKillableWorkerCfg(t, after, Config{MaxConcurrent: 4, Workers: 1})
}

// newKillableWorkerCfg is newKillableWorker with the inner daemon's
// configuration in the caller's hands (the trace tests give the dying
// worker its own tracer and instance name).
func newKillableWorkerCfg(t testing.TB, after int32, cfg Config) *killableWorker {
	t.Helper()
	inner, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	handler := inner.Handler()
	kw := &killableWorker{after: after, killed: make(chan struct{})}
	kw.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/shard" {
			if kw.served.Add(1) > kw.after {
				kw.dead.Store(true)
				kw.killOnce.Do(func() { close(kw.killed) })
				hj, ok := w.(http.Hijacker)
				if !ok {
					panic("hijack unsupported")
				}
				conn, _, err := hj.Hijack()
				if err != nil {
					panic(err)
				}
				conn.Close()
				return
			}
		}
		if kw.dead.Load() {
			hj, ok := w.(http.Hijacker)
			if !ok {
				panic("hijack unsupported")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				panic(err)
			}
			conn.Close()
			return
		}
		handler.ServeHTTP(w, r)
	}))
	t.Cleanup(kw.ts.Close)
	return kw
}

// localWant compiles and runs a request on the local engine — the
// single-node reference a distributed run must match bit for bit.
func localWant(t testing.TB, body string) sim.WorstCase {
	t.Helper()
	var req Request
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	m, opts, err := req.compile(1)
	if err != nil {
		t.Fatal(err)
	}
	wc, err := adversary.SearchModel(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return wc
}

// distribute runs a request through a fresh dispatcher over the given
// peers.
func distribute(t testing.TB, body string, shards int, progress func(int, int), peers ...string) (sim.WorstCase, error) {
	t.Helper()
	d, err := cluster.New(cluster.Config{
		Peers:        peers,
		ShardTimeout: 30 * time.Second,
		ProbeBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var req Request
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	wc, _, err := Distribute(context.Background(), d, req, shards, progress)
	return wc, err
}

// TestDistributedEquivalenceMatrix is the distribution's differential
// spine: for every graph family (covering the ring, table and generic
// dispatch tiers) × symmetry mode, a distributed search over two
// workers — once healthy, once with one worker killed mid-search —
// merges to a WorstCase bit-for-bit equal to the single-node engine.
func TestDistributedEquivalenceMatrix(t *testing.T) {
	families := map[string]string{
		"ring":      `{"graph":{"family":"ring","n":8},"explorer":"ring-sweep","algorithm":"cheap","L":4,"delays":[0,1],"symmetry":%q}`,
		"grid":      `{"graph":{"family":"grid","rows":2,"cols":3},"algorithm":"fast","L":4,"delays":[0,1],"symmetry":%q}`,
		"torus":     `{"graph":{"family":"torus","rows":3,"cols":3},"algorithm":"cheap","L":4,"delays":[0],"symmetry":%q}`,
		"hypercube": `{"graph":{"family":"hypercube","n":3},"algorithm":"fast","L":4,"delays":[0],"symmetry":%q}`,
		"complete":  `{"graph":{"family":"complete","n":5},"algorithm":"cheap","L":4,"delays":[0,1],"symmetry":%q}`,
		"circulant": `{"graph":{"family":"circulant","n":6},"algorithm":"fast","L":3,"delays":[0],"symmetry":%q}`,
	}
	const shards = 12
	for family, tmpl := range families {
		for _, sym := range []string{"auto", "off", "forced"} {
			body := fmt.Sprintf(tmpl, sym)
			want := localWant(t, body)
			t.Run(family+"/"+sym+"/healthy", func(t *testing.T) {
				w1, w2 := newWorker(t, nil), newWorker(t, nil)
				got, err := distribute(t, body, shards, nil, w1.URL, w2.URL)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("distributed %+v != local %+v", got, want)
				}
			})
			t.Run(family+"/"+sym+"/worker-killed", func(t *testing.T) {
				dying := newKillableWorker(t, 1) // dies on its 2nd shard, mid-search
				w1 := newGatedWorker(t, dying)
				got, err := distribute(t, body, shards, nil, w1.URL, dying.ts.URL)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("distributed-with-kill %+v != local %+v", got, want)
				}
				if !dying.dead.Load() {
					t.Error("the kill never fired; the failure path was not exercised")
				}
			})
		}
	}
}

// TestShardEndpoint exercises the worker side of the protocol
// directly: well-formed shards execute and cache, and every
// disagreement (fingerprint, shard count, range, malformed bodies) is
// rejected with the right status.
func TestShardEndpoint(t *testing.T) {
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := newWorker(t, store)

	body := `{"graph":{"family":"ring","n":6},"explorer":"ring-sweep","algorithm":"cheap","L":3,"delays":[0,1]}`
	var req Request
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	m, _, err := req.compile(1)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := m.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := adversary.NewModelPlan(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	shards := plan.Shards()

	post := func(t *testing.T, sreq cluster.ShardRequest) (int, cluster.ShardResponse) {
		t.Helper()
		data, err := json.Marshal(sreq)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/shard", "application/json", strings.NewReader(string(data)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out cluster.ShardResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}

	// Every shard executes and matches the local plan; merged, they
	// reproduce the local search.
	results := make([]sim.WorstCase, shards)
	for i := 0; i < shards; i++ {
		status, out := post(t, cluster.ShardRequest{Search: json.RawMessage(body), Fingerprint: fp, Shard: i, Shards: shards})
		if status != http.StatusOK || out.Error != "" {
			t.Fatalf("shard %d: status %d error %q", i, status, out.Error)
		}
		if out.Fingerprint != fp || out.Shard != i || out.Shards != shards || out.Result == nil {
			t.Fatalf("shard %d: misaddressed response %+v", i, out)
		}
		localShard, err := plan.RunShard(context.Background(), i)
		if err != nil {
			t.Fatal(err)
		}
		if *out.Result != localShard {
			t.Errorf("shard %d: served %+v != local %+v", i, *out.Result, localShard)
		}
		results[i] = *out.Result
	}
	if got, want := adversary.MergeShards(results), localWant(t, body); got != want {
		t.Errorf("merged shards %+v != local search %+v", got, want)
	}

	// Repeats are answered from the worker's store.
	if status, out := post(t, cluster.ShardRequest{Search: json.RawMessage(body), Fingerprint: fp, Shard: 0, Shards: shards}); status != http.StatusOK || !out.Cached {
		t.Errorf("repeated shard: status %d cached %v, want a store hit", status, out.Cached)
	}

	errCases := []struct {
		name   string
		sreq   cluster.ShardRequest
		status int
		want   string
	}{
		{"fingerprint-mismatch", cluster.ShardRequest{Search: json.RawMessage(body), Fingerprint: strings.Repeat("00", 32), Shard: 0, Shards: shards}, http.StatusConflict, "fingerprint mismatch"},
		// Any count in [1, label pairs] is a valid decomposition; the
		// worker's clamp only diverges (and must conflict) beyond it.
		{"shard-count-mismatch", cluster.ShardRequest{Search: json.RawMessage(body), Fingerprint: fp, Shard: 0, Shards: 1000}, http.StatusConflict, "shard-plan mismatch"},
		{"shard-out-of-range", cluster.ShardRequest{Search: json.RawMessage(body), Fingerprint: fp, Shard: shards, Shards: shards}, http.StatusBadRequest, "out of range"},
		{"negative-shard", cluster.ShardRequest{Search: json.RawMessage(body), Fingerprint: fp, Shard: -1, Shards: shards}, http.StatusBadRequest, "out of range"},
		{"malformed-search", cluster.ShardRequest{Search: json.RawMessage(`{"graph":42}`), Fingerprint: fp, Shard: 0, Shards: shards}, http.StatusBadRequest, "malformed embedded search"},
		{"invalid-search", cluster.ShardRequest{Search: json.RawMessage(`{"graph":{"family":"ring","n":2},"algorithm":"cheap","L":3}`), Fingerprint: fp, Shard: 0, Shards: shards}, http.StatusBadRequest, "ring"},
	}
	for _, tc := range errCases {
		t.Run(tc.name, func(t *testing.T) {
			status, out := post(t, tc.sreq)
			if status != tc.status {
				t.Errorf("status %d, want %d (error %q)", status, tc.status, out.Error)
			}
			if !strings.Contains(out.Error, tc.want) {
				t.Errorf("error %q does not mention %q", out.Error, tc.want)
			}
		})
	}

	t.Run("malformed-wrapper", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/shard", "application/json", strings.NewReader("not json"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status %d, want 400", resp.StatusCode)
		}
	})
}

// TestCoordinatorServer runs a coordinator daemon end to end: /search
// on it dispatches to the workers, streams aggregate progress, caches
// the merged result, and answers repeats from the store.
func TestCoordinatorServer(t *testing.T) {
	w1, w2 := newWorker(t, nil), newWorker(t, nil)
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord, err := New(Config{
		Store:         store,
		MaxConcurrent: 2,
		Workers:       1,
		Peers:         []string{w1.URL, w2.URL},
		Shards:        8,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	want := localWant(t, ringRequest)
	status, cold := postSearch(t, ts.URL, ringRequest)
	if status != http.StatusOK || cold.Error != "" {
		t.Fatalf("cold distributed search: %d %q", status, cold.Error)
	}
	if cold.Cached {
		t.Error("cold distributed search reported cached")
	}
	if cold.Result == nil || *cold.Result != want {
		t.Errorf("distributed result %+v != local %+v", cold.Result, want)
	}

	status, warm := postSearch(t, ts.URL, ringRequest)
	if status != http.StatusOK || !warm.Cached {
		t.Fatalf("repeat: status %d cached %v, want a store hit", status, warm.Cached)
	}
	if warm.Result == nil || *warm.Result != want {
		t.Errorf("warm result %+v != local %+v", warm.Result, want)
	}

	// Streaming a fresh search through the coordinator yields progress
	// events then the final result, exactly as a local daemon does.
	streamReq := `{"graph":{"family":"ring","n":8},"explorer":"ring-sweep","algorithm":"cheap","L":4,"delays":[0,1],"stream":true}`
	resp, err := http.Post(ts.URL+"/search", "application/json", strings.NewReader(streamReq))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var progressEvents int
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
		case "result", "error":
			e := ev
			final = &e
		}
	}
	if final == nil || final.Type != "result" {
		t.Fatalf("stream ended without a result (final %+v)", final)
	}
	if progressEvents == 0 {
		t.Error("no aggregate progress events streamed from the coordinator")
	}
	streamWant := localWant(t, strings.Replace(streamReq, `,"stream":true`, "", 1))
	if final.Result == nil || *final.Result != streamWant {
		t.Errorf("streamed result %+v != local %+v", final.Result, streamWant)
	}
}

// TestCoordinatorSharesShardCache: a coordinator with a store caches
// shard results too, so a search repeated after a partial failure (or
// a different search decomposing identically) redispatches nothing.
func TestCoordinatorSharesShardCache(t *testing.T) {
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var shardCalls atomic.Int32
	inner := newWorker(t, nil)
	counting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/shard" {
			shardCalls.Add(1)
		}
		// Proxy by re-issuing against the inner worker.
		req, err := http.NewRequestWithContext(r.Context(), r.Method, inner.URL+r.URL.Path, r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	defer counting.Close()

	d, err := cluster.New(cluster.Config{Peers: []string{counting.URL}, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	var req Request
	if err := json.Unmarshal([]byte(ringRequest), &req); err != nil {
		t.Fatal(err)
	}
	first, _, err := Distribute(context.Background(), d, req, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	calls := shardCalls.Load()
	if calls == 0 {
		t.Fatal("no shards dispatched on the first run")
	}
	second, _, err := Distribute(context.Background(), d, req, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Errorf("restored run diverged: %+v != %+v", second, first)
	}
	if shardCalls.Load() != calls {
		t.Errorf("restored run redispatched shards (%d -> %d calls)", calls, shardCalls.Load())
	}
}
