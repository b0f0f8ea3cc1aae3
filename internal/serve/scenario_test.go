package serve

import (
	"net/http"
	"reflect"
	"strings"
	"testing"

	"rendezvous/internal/resultstore"
	"rendezvous/internal/scenario"
)

// TestScenarioFormMatchesInline pins the lowering at the HTTP layer:
// for every graph family, both non-default symmetry modes and
// explicitly empty lists, a scenario-form request describing the same
// search as an inline-form request compiles to the same fingerprint,
// so the second spelling is answered from the store without touching
// the engine, with an identical result.
func TestScenarioFormMatchesInline(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, inline, scenario string
	}{
		{"ring", ringRequest,
			`{"version":1,"graph":{"family":"ring","n":6},"explorer":"ring-sweep","algorithm":"cheap","l":3,"delays":[0,1]}`},
		{"path",
			`{"graph":{"family":"path","n":4},"algorithm":"cheap","L":3,"delays":[0]}`,
			`{"version":1,"graph":{"family":"path","n":4},"algorithm":"cheap","l":3,"delays":[0]}`},
		{"star",
			`{"graph":{"family":"star","n":5},"algorithm":"fast","L":3,"delays":[0,1]}`,
			`{"version":1,"graph":{"family":"star","n":5},"algorithm":"fast","l":3,"delays":[0,1]}`},
		{"complete",
			`{"graph":{"family":"complete","n":4},"algorithm":"cheap","L":3,"delays":[0]}`,
			`{"version":1,"graph":{"family":"complete","n":4},"algorithm":"cheap","l":3,"delays":[0]}`},
		{"circulant",
			`{"graph":{"family":"circulant","n":5},"algorithm":"cheap","L":3,"delays":[0]}`,
			`{"version":1,"graph":{"family":"circulant","n":5},"algorithm":"cheap","l":3,"delays":[0]}`},
		{"grid",
			`{"graph":{"family":"grid","rows":2,"cols":3},"algorithm":"fast","L":3,"delays":[0]}`,
			`{"version":1,"graph":{"family":"grid","rows":2,"cols":3},"algorithm":"fast","l":3,"delays":[0]}`},
		{"torus symmetry off",
			`{"graph":{"family":"torus","rows":3,"cols":3},"algorithm":"cheap","L":3,"delays":[0],"symmetry":"off"}`,
			`{"version":1,"graph":{"family":"torus","rows":3,"cols":3},"algorithm":"cheap","l":3,"delays":[0],"symmetry":"off"}`},
		{"hypercube symmetry forced",
			`{"graph":{"family":"hypercube","n":3},"algorithm":"cheap","L":3,"delays":[0],"symmetry":"forced"}`,
			`{"version":1,"graph":{"family":"hypercube","n":3},"algorithm":"cheap","l":3,"delays":[0],"symmetry":"forced"}`},
		{"tree",
			`{"graph":{"family":"tree","seed":7,"draws":[5,6],"take":1},"explorer":"dfs","algorithm":"cheap","L":3,"delays":[0]}`,
			`{"version":1,"graph":{"family":"tree","seed":7,"draws":[5,6],"take":1},"explorer":"dfs","algorithm":"cheap","l":3,"delays":[0]}`},
		{"inline empty lists",
			`{"graph":{"family":"ring","n":5},"algorithm":"cheap","L":3,"labelPairs":[],"startPairs":[],"delays":[]}`,
			`{"version":1,"graph":{"family":"ring","n":5},"algorithm":"cheap","l":3}`},
		{"scenario empty lists",
			`{"graph":{"family":"ring","n":7},"algorithm":"cheap","L":3}`,
			`{"version":1,"graph":{"family":"ring","n":7},"algorithm":"cheap","l":3,"labelPairs":[],"startPairs":[],"delays":[]}`},
		{"implied L",
			`{"graph":{"family":"ring","n":4},"algorithm":"fast","labelPairs":[[1,3],[3,2]],"delays":[0]}`,
			`{"version":1,"graph":{"family":"ring","n":4},"algorithm":"fast","l":3,"labelPairs":[[1,3],[3,2]],"delays":[0]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, inline := postSearch(t, ts.URL, tc.inline)
			if status != http.StatusOK || inline.Result == nil {
				t.Fatalf("inline form: status %d (%s)", status, inline.Error)
			}
			if tc.inline == ringRequest && *inline.Result != ringWant(t) {
				t.Fatalf("inline form: result %+v, want %+v", inline.Result, ringWant(t))
			}
			status, scen := postSearch(t, ts.URL, `{"scenario":`+tc.scenario+`}`)
			if status != http.StatusOK {
				t.Fatalf("scenario form: status %d (%s)", status, scen.Error)
			}
			if scen.Fingerprint != inline.Fingerprint {
				t.Errorf("the two spellings fingerprint apart: inline %s, scenario %s", inline.Fingerprint, scen.Fingerprint)
			}
			if !scen.Cached {
				t.Error("the scenario spelling missed the cache entry the inline spelling wrote")
			}
			if scen.Result == nil || *scen.Result != *inline.Result {
				t.Errorf("scenario form: result %+v, want %+v", scen.Result, inline.Result)
			}
		})
	}
}

// TestScenarioDynamicServed runs a dynamic-model scenario through
// /search: a model the inline form cannot spell at all. The search
// must execute, cache under the model's own fingerprint domain, and
// repeat as a cache hit.
func TestScenarioDynamicServed(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"scenario":{"version":1,"model":"dynamic","graph":{"family":"path","n":4},"algorithm":"cheap","l":3,"phases":[{"rounds":2,"disable":[[1,2]]},{"rounds":3}]}}`
	status, first := postSearch(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("status %d (%s)", status, first.Error)
	}
	if first.Result == nil {
		t.Fatal("no result")
	}
	status, second := postSearch(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("repeat: status %d (%s)", status, second.Error)
	}
	if !second.Cached {
		t.Error("repeat of an identical dynamic scenario was not a cache hit")
	}
	if second.Fingerprint != first.Fingerprint || *second.Result != *first.Result {
		t.Errorf("repeat diverged: %s %+v vs %s %+v", second.Fingerprint, second.Result, first.Fingerprint, first.Result)
	}
}

// TestScenarioUnsupportedModel pins the structured rejection: a
// scenario naming a model this daemon does not serve answers 400 with
// the stable code and the registered model list, not a bare prose
// error.
func TestScenarioUnsupportedModel(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"scenario":{"version":1,"model":"quantum","graph":{"family":"ring","n":6},"algorithm":"cheap","l":3}}`
	status, out := postSearch(t, ts.URL, body)
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", status)
	}
	if out.Code != "unsupported_model" {
		t.Errorf("code %q, want unsupported_model", out.Code)
	}
	if !reflect.DeepEqual(out.Models, scenario.Models()) {
		t.Errorf("models %v, want %v", out.Models, scenario.Models())
	}
	if !strings.Contains(out.Error, "quantum") {
		t.Errorf("error %q does not name the rejected model", out.Error)
	}
}

// TestScenarioFormRejections: the envelope-level validation around the
// scenario form — mutual exclusion with the inline fields, and the
// daemon's stricter L cap applied to the scenario's resolved label
// space (the format itself admits benchmark-scale sweeps).
func TestScenarioFormRejections(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, body, want string
	}{
		{"inline fields alongside scenario",
			`{"algorithm":"cheap","scenario":{"version":1,"graph":{"family":"ring","n":6},"algorithm":"cheap","l":3}}`,
			"mutually exclusive"},
		{"inline graph draws alongside scenario",
			`{"graph":{"draws":[5]},"scenario":{"version":1,"graph":{"family":"ring","n":6},"algorithm":"cheap","l":3}}`,
			"mutually exclusive"},
		{"scenario l over the served cap",
			`{"scenario":{"version":1,"graph":{"family":"ring","n":6},"algorithm":"cheap","l":1024}}`,
			"exceeds the served maximum"},
		{"implied l over the served cap",
			`{"scenario":{"version":1,"graph":{"family":"ring","n":6},"algorithm":"cheap","labelPairs":[[1,1024]]}}`,
			"exceeds the served maximum"},
		{"scenario version missing",
			`{"scenario":{"graph":{"family":"ring","n":6},"algorithm":"cheap","l":3}}`,
			"unsupported version"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, out := postSearch(t, ts.URL, tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%+v)", status, out)
			}
			if !strings.Contains(out.Error, tc.want) {
				t.Errorf("error %q does not contain %q", out.Error, tc.want)
			}
		})
	}
}

// TestScenarioDistributed fans a dynamic-model scenario out across two
// workers: the scenario document rides opaquely inside the shard
// protocol, each worker re-validates and recompiles it, and the merged
// result is bit-for-bit identical to a single-node run of the same
// model.
func TestScenarioDistributed(t *testing.T) {
	body := `{"scenario":{"version":1,"model":"dynamic","graph":{"family":"ring","n":6},"algorithm":"cheap","l":3,"delays":[0,1],"phases":[{"rounds":1,"disable":[[0,1]]},{"rounds":2}]}}`
	want := localWant(t, body)
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w1, w2 := newWorker(t, store), newWorker(t, nil)
	got, err := distribute(t, body, 6, nil, w1.URL, w2.URL)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("distributed %+v != local %+v", got, want)
	}
	// The unsupported-model rejection must hold on /shard workers too:
	// version skew aside, a worker that does not know the model cannot
	// silently run something else. (Same compile prologue as /search —
	// this exercises it through the distribute path's error surface.)
	if _, err := distribute(t, `{"scenario":{"version":1,"model":"quantum","graph":{"family":"ring","n":6},"algorithm":"cheap","l":3}}`, 2, nil, w1.URL); err == nil {
		t.Error("distributing an unknown-model scenario must fail")
	}
}

// TestForcedTierRefusedAfterCacheFill: forcing a tier the search cannot
// run (the ring tier on a grid) in a scenario body is a 400, on an
// empty store and after the auto-tier result of the same search has
// been cached. The fingerprint excludes the tier, so a store hit must
// not answer for the forced request.
func TestForcedTierRefusedAfterCacheFill(t *testing.T) {
	_, ts := newTestServer(t)
	const auto = `{"graph":{"family":"grid","rows":3,"cols":3},"algorithm":"cheap","l":3,"delays":[0]}`
	const forced = `{"scenario":{"version":1,"graph":{"family":"grid","rows":3,"cols":3},"algorithm":"cheap","l":3,"delays":[0],"tier":"ring"}}`
	refused := func(when string) {
		t.Helper()
		status, out := postSearch(t, ts.URL, forced)
		if status != http.StatusBadRequest || !strings.Contains(out.Error, "not ring-eligible") {
			t.Errorf("%s: status %d cached %v error %q, want 400 naming the ineligible tier", when, status, out.Cached, out.Error)
		}
	}
	refused("empty store")
	for i, wantCached := range []bool{false, true} {
		status, out := postSearch(t, ts.URL, auto)
		if status != http.StatusOK || out.Cached != wantCached {
			t.Fatalf("auto-tier search %d: status %d cached %v (%s)", i, status, out.Cached, out.Error)
		}
	}
	refused("after a cache fill")
}
