package scenario_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rendezvous/internal/adversary"
	"rendezvous/internal/core"
	"rendezvous/internal/explore"
	"rendezvous/internal/graph"
	"rendezvous/internal/scenario"
	"rendezvous/internal/sim"
)

// TestParseSearchRejections pins the parse-time contract: every
// malformed or out-of-policy document fails loudly, with the offending
// construct named, instead of silently selecting a default.
func TestParseSearchRejections(t *testing.T) {
	valid := `{"version":1,"graph":{"family":"ring","n":8},"algorithm":"cheap","l":4}`
	if _, err := scenario.ParseSearch([]byte(valid)); err != nil {
		t.Fatalf("the baseline document must parse: %v", err)
	}
	cases := []struct {
		name, doc, want string
	}{
		{"unknown field", `{"version":1,"graph":{"family":"ring","n":8},"algorithm":"cheap","l":4,"delayz":[0]}`, "delayz"},
		{"trailing content", valid + `{"more":true}`, "trailing content"},
		{"trailing garbage", valid + `zzz`, "trailing content"},
		{"missing version", `{"graph":{"family":"ring","n":8},"algorithm":"cheap","l":4}`, "version"},
		{"future version", `{"version":2,"graph":{"family":"ring","n":8},"algorithm":"cheap","l":4}`, "unsupported version 2"},
		{"unknown model", `{"version":1,"model":"quantum","graph":{"family":"ring","n":8},"algorithm":"cheap","l":4}`, `unknown model "quantum"`},
		{"labelPairs and labelSample", `{"version":1,"graph":{"family":"ring","n":8},"algorithm":"cheap","l":4,"labelPairs":[[1,2]],"labelSample":{"count":3,"seed":1}}`, "mutually exclusive"},
		{"startPairs and ringOffsets", `{"version":1,"graph":{"family":"ring","n":8},"algorithm":"cheap","l":4,"startPairs":[[0,1]],"ringOffsets":true}`, "mutually exclusive"},
		{"delays and delayPattern", `{"version":1,"graph":{"family":"ring","n":8},"algorithm":"cheap","l":4,"delays":[0],"delayPattern":"basic"}`, "mutually exclusive"},
		{"unknown delayPattern", `{"version":1,"graph":{"family":"ring","n":8},"algorithm":"cheap","l":4,"delayPattern":"fancy"}`, `unknown delayPattern "fancy"`},
		{"labelSample without l", `{"version":1,"graph":{"family":"ring","n":8},"algorithm":"cheap","labelSample":{"count":3,"seed":1}}`, "labelSample requires l"},
		{"labelSample zero count", `{"version":1,"graph":{"family":"ring","n":8},"algorithm":"cheap","l":4,"labelSample":{"count":0,"seed":1}}`, "labelSample.count"},
		{"dynamic without phases", `{"version":1,"model":"dynamic","graph":{"family":"ring","n":8},"algorithm":"cheap","l":4}`, "requires at least one phase"},
		{"dynamic forced table tier", `{"version":1,"model":"dynamic","graph":{"family":"ring","n":8},"algorithm":"cheap","l":4,"tier":"table","phases":[{"rounds":1}]}`, "generic tier only"},
		{"dynamic forced symmetry", `{"version":1,"model":"dynamic","graph":{"family":"ring","n":8},"algorithm":"cheap","l":4,"symmetry":"forced","phases":[{"rounds":1}]}`, "no symmetry reduction"},
		{"paper with phases", `{"version":1,"graph":{"family":"ring","n":8},"algorithm":"cheap","l":4,"phases":[{"rounds":1}]}`, "phases apply only to the dynamic model"},
		{"not json", `ring of size eight`, "invalid character"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := scenario.ParseSearch([]byte(tc.doc))
			if err == nil {
				t.Fatalf("parsed successfully, want an error mentioning %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %q, want it to mention %q", err, tc.want)
			}
		})
	}
}

// TestCompileRejections pins the compile-time contract: size caps
// mirror the daemon's policy, and every range violation against the
// built graph or label space is caught before the engine sees it.
func TestCompileRejections(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"graph over the node cap", `{"version":1,"graph":{"family":"ring","n":513},"algorithm":"cheap","l":4}`, "maximum of 512 nodes"},
		{"grid over the node cap", `{"version":1,"graph":{"family":"grid","rows":512,"cols":512},"algorithm":"cheap","l":4}`, "maximum of 512 nodes"},
		{"hypercube dimension", `{"version":1,"graph":{"family":"hypercube","n":21},"algorithm":"cheap","l":4}`, "hypercube"},
		{"unknown family", `{"version":1,"graph":{"family":"moebius","n":8},"algorithm":"cheap","l":4}`, `unknown graph family "moebius"`},
		{"missing family", `{"version":1,"graph":{"n":8},"algorithm":"cheap","l":4}`, "graph family is required"},
		{"ring too small", `{"version":1,"graph":{"family":"ring","n":2},"algorithm":"cheap","l":4}`, "need n >= 3"},
		{"tree without draws", `{"version":1,"graph":{"family":"tree","seed":7},"algorithm":"cheap","l":4}`, "draws is required"},
		{"tree take out of range", `{"version":1,"graph":{"family":"tree","seed":7,"draws":[10],"take":1},"algorithm":"cheap","l":4}`, "take 1 out of range"},
		{"tree draw over the cap", `{"version":1,"graph":{"family":"tree","seed":7,"draws":[1000],"take":0},"algorithm":"cheap","l":4}`, "maximum of 512 nodes"},
		{"tree draws over the cap", `{"version":1,"graph":{"family":"tree","seed":7,"draws":[` + strings.TrimSuffix(strings.Repeat("2,", scenario.MaxTreeDraws+1), ",") + `],"take":0},"algorithm":"cheap","l":4}`, "draws is capped at 64 entries"},
		{"tree draw too small", `{"version":1,"graph":{"family":"tree","seed":7,"draws":[10,1],"take":0},"algorithm":"cheap","l":4}`, "draws[1]"},
		{"l over the cap", `{"version":1,"graph":{"family":"ring","n":8},"algorithm":"cheap","l":4097}`, "exceeds the maximum 4096"},
		{"l too small", `{"version":1,"graph":{"family":"ring","n":8},"algorithm":"cheap","l":1}`, "need l >= 2"},
		{"l missing", `{"version":1,"graph":{"family":"ring","n":8},"algorithm":"cheap"}`, "need l >= 2"},
		{"unknown algorithm", `{"version":1,"graph":{"family":"ring","n":8},"algorithm":"teleport","l":4}`, "teleport"},
		{"unknown explorer", `{"version":1,"graph":{"family":"ring","n":8},"explorer":"warp","algorithm":"cheap","l":4}`, "warp"},
		{"label out of range", `{"version":1,"graph":{"family":"ring","n":8},"algorithm":"cheap","l":4,"labelPairs":[[1,5]]}`, "labels must be in 1..4"},
		{"start out of range", `{"version":1,"graph":{"family":"ring","n":8},"algorithm":"cheap","l":4,"startPairs":[[0,8]]}`, "nodes must be in 0..7"},
		{"equal starts", `{"version":1,"graph":{"family":"ring","n":8},"algorithm":"cheap","l":4,"startPairs":[[3,3]]}`, "distinct start nodes"},
		{"negative delay", `{"version":1,"graph":{"family":"ring","n":8},"algorithm":"cheap","l":4,"delays":[-1]}`, "want 0.."},
		{"delay over the cap", `{"version":1,"graph":{"family":"ring","n":8},"algorithm":"cheap","l":4,"delays":[1048577]}`, "want 0..1048576"},
		{"ring tier off the ring", `{"version":1,"graph":{"family":"grid","rows":3,"cols":3},"algorithm":"cheap","l":3,"delays":[0],"tier":"ring"}`, "not ring-eligible"},
		{"range pattern explosion", `{"version":1,"graph":{"family":"ring","n":400},"explorer":"unmarked-dfs","algorithm":"cheap","l":4,"delayPattern":"range"}`, "over the 65536 cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := scenario.ParseSearch([]byte(tc.doc))
			if err == nil {
				_, err = s.Compile(scenario.Options{})
			}
			if err == nil {
				t.Fatalf("compiled successfully, want an error mentioning %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %q, want it to mention %q", err, tc.want)
			}
		})
	}
}

// TestGraphSpecFamilies sanity-checks every accepted family builds
// the advertised graph.
func TestGraphSpecFamilies(t *testing.T) {
	cases := []struct {
		spec  scenario.GraphSpec
		wantN int
	}{
		{scenario.GraphSpec{Family: "ring", N: 8}, 8},
		{scenario.GraphSpec{Family: "path", N: 5}, 5},
		{scenario.GraphSpec{Family: "star", N: 6}, 6},
		{scenario.GraphSpec{Family: "complete", N: 5}, 5},
		{scenario.GraphSpec{Family: "circulant", N: 5}, 5},
		{scenario.GraphSpec{Family: "grid", Rows: 3, Cols: 4}, 12},
		{scenario.GraphSpec{Family: "torus", Rows: 3, Cols: 3}, 9},
		{scenario.GraphSpec{Family: "hypercube", N: 3}, 8},
		{scenario.GraphSpec{Family: "tree", Seed: 7, Draws: []int{10, 16}, Take: 1}, 16},
	}
	for _, tc := range cases {
		t.Run(tc.spec.Family, func(t *testing.T) {
			g, err := tc.spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			if g.N() != tc.wantN {
				t.Errorf("N = %d, want %d", g.N(), tc.wantN)
			}
			if err := g.Validate(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestUnknownModelStructured pins the structured form of the
// unknown-model rejection: front ends unwrap it with errors.As and list
// the registered models.
func TestUnknownModelStructured(t *testing.T) {
	doc := `{"version":1,"model":"quantum","graph":{"family":"ring","n":8},"algorithm":"cheap","l":4}`
	_, err := scenario.ParseSearch([]byte(doc))
	var ume *scenario.UnknownModelError
	if !errors.As(err, &ume) {
		t.Fatalf("error %v is not an *UnknownModelError", err)
	}
	if ume.Model != "quantum" {
		t.Fatalf("Model = %q, want %q", ume.Model, "quantum")
	}
	if want := scenario.Models(); !reflect.DeepEqual(ume.Known, want) {
		t.Fatalf("Known = %v, want the registry %v", ume.Known, want)
	}
	// The file path reports the same structured error.
	file := fmt.Sprintf(`{"version":1,"searches":[%s]}`,
		`{"model":"quantum","graph":{"family":"ring","n":8},"algorithm":"cheap","l":4}`)
	_, err = scenario.ParseFile([]byte(file))
	if !errors.As(err, &ume) {
		t.Fatalf("file error %v is not an *UnknownModelError", err)
	}
}

// TestParseFileRejections covers the file-level rules that have no
// standalone-document analogue.
func TestParseFileRejections(t *testing.T) {
	inner := `{"graph":{"family":"ring","n":8},"algorithm":"cheap","l":4}`
	cases := []struct {
		name, doc, want string
	}{
		{"missing version", fmt.Sprintf(`{"searches":[%s]}`, inner), "unsupported file version 0"},
		{"future version", fmt.Sprintf(`{"version":9,"searches":[%s]}`, inner), "unsupported file version 9"},
		{"search with its own version", `{"version":1,"searches":[{"version":1,"graph":{"family":"ring","n":8},"algorithm":"cheap","l":4}]}`, "must not carry its own version"},
		{"too many searches", fmt.Sprintf(`{"version":1,"searches":[%s]}`, strings.TrimSuffix(strings.Repeat(inner+",", 4097), ",")), "capped at 4096 searches"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := scenario.ParseFile([]byte(tc.doc))
			if err == nil {
				t.Fatalf("parsed successfully, want an error mentioning %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %q, want it to mention %q", err, tc.want)
			}
		})
	}
}

// TestScenarioMatchesSpecPath is the tentpole's pinned property: a
// scenario-driven paper-model search is bit-for-bit identical to the
// hand-built Spec/Options path, across graph families, every execution
// tier (including batch), both symmetry modes, and worker counts — and
// the two spellings content-address to the same fingerprint.
func TestScenarioMatchesSpecPath(t *testing.T) {
	type fixture struct {
		name  string
		doc   string
		spec  adversary.Spec
		space sim.SearchSpace
		tiers []adversary.Tier
	}
	ringSchedule := func(algo core.Algorithm, L int) func(int) sim.Schedule {
		params := core.Params{L: L}
		return func(l int) sim.Schedule { return algo.Schedule(l, params) }
	}
	fixtures := []fixture{
		{
			name: "ring",
			doc:  `{"version":1,"graph":{"family":"ring","n":12},"explorer":"ring-sweep","algorithm":"fast","l":4,"ringOffsets":true,"delays":[0,1,11]}`,
			spec: adversary.Spec{
				Graph:       graph.OrientedRing(12),
				Explorer:    explore.OrientedRingSweep{},
				ScheduleFor: ringSchedule(core.Fast{}, 4),
			},
			space: sim.SearchSpace{L: 4, StartPairs: scenario.RingOffsets(12), Delays: []int{0, 1, 11}},
			tiers: []adversary.Tier{adversary.TierAuto, adversary.TierGeneric, adversary.TierTable, adversary.TierBatch, adversary.TierRing},
		},
		{
			name: "grid",
			doc:  `{"version":1,"graph":{"family":"grid","rows":3,"cols":3},"explorer":"dfs","algorithm":"cheap","l":3,"delayPattern":"basic"}`,
			spec: adversary.Spec{
				Graph:       graph.Grid(3, 3),
				Explorer:    explore.DFS{},
				ScheduleFor: ringSchedule(core.Cheap{}, 3),
			},
			space: sim.SearchSpace{L: 3, Delays: []int{0, 1, explore.DFS{}.Duration(graph.Grid(3, 3))}},
			tiers: []adversary.Tier{adversary.TierAuto, adversary.TierGeneric, adversary.TierTable, adversary.TierBatch},
		},
	}
	for _, fx := range fixtures {
		s, err := scenario.ParseSearch([]byte(fx.doc))
		if err != nil {
			t.Fatalf("%s: parse: %v", fx.name, err)
		}
		for _, tier := range fx.tiers {
			for _, sym := range []adversary.Symmetry{adversary.SymmetryAuto, adversary.SymmetryOff} {
				for _, workers := range []int{1, 3, -1} {
					opts := adversary.Options{Workers: workers, Tier: tier, Symmetry: sym}
					want, err := adversary.Search(fx.spec, fx.space, opts)
					if err != nil {
						t.Fatalf("%s/%v/%v/w=%d: spec path: %v", fx.name, tier, sym, workers, err)
					}
					m, err := s.Compile(scenario.Options{Tier: tier, Symmetry: sym})
					if err != nil {
						t.Fatalf("%s/%v/%v/w=%d: compile: %v", fx.name, tier, sym, workers, err)
					}
					got, err := adversary.SearchModel(m, adversary.Options{Workers: workers})
					if err != nil {
						t.Fatalf("%s/%v/%v/w=%d: scenario path: %v", fx.name, tier, sym, workers, err)
					}
					if got != want {
						t.Fatalf("%s/%v/%v/w=%d: scenario %+v != spec %+v", fx.name, tier, sym, workers, got, want)
					}
					specFP, err := adversary.Fingerprint(fx.spec, fx.space, opts)
					if err != nil {
						t.Fatalf("%s: spec fingerprint: %v", fx.name, err)
					}
					modelFP, err := m.Fingerprint()
					if err != nil {
						t.Fatalf("%s: model fingerprint: %v", fx.name, err)
					}
					if specFP != modelFP {
						t.Fatalf("%s/%v/%v: fingerprints diverge:\nspec:     %s\nscenario: %s", fx.name, tier, sym, specFP, modelFP)
					}
				}
			}
		}
	}
}

// TestFileRoundTrip pins that the format is self-hosting: a parsed file
// re-marshals to a document this same version parses and compiles to
// models with unchanged fingerprints.
func TestFileRoundTrip(t *testing.T) {
	doc := `{"version":1,"name":"rt","searches":[
		{"graph":{"family":"ring","n":8},"explorer":"ring-sweep","algorithm":"fast","l":4,"ringOffsets":true,"delayPattern":"basic"},
		{"model":"dynamic","graph":{"family":"path","n":4},"algorithm":"cheap","l":3,"phases":[{"rounds":2,"disable":[[1,2]]},{"rounds":3}]}
	]}`
	f, err := scenario.ParseFile([]byte(doc))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	models, err := f.CompileAll(scenario.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	f2, err := scenario.ParseFile(data)
	if err != nil {
		t.Fatalf("re-parse of our own marshal failed: %v", err)
	}
	models2, err := f2.CompileAll(scenario.Options{})
	if err != nil {
		t.Fatalf("re-compile: %v", err)
	}
	for i := range models {
		fp1, err := models[i].Fingerprint()
		if err != nil {
			t.Fatalf("fingerprint %d: %v", i, err)
		}
		fp2, err := models2[i].Fingerprint()
		if err != nil {
			t.Fatalf("re-fingerprint %d: %v", i, err)
		}
		if fp1 != fp2 {
			t.Fatalf("search %d: round-trip changed the fingerprint", i)
		}
	}
}
