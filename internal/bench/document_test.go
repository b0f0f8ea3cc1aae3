package bench

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rendezvous/examples/scenarios"
	"rendezvous/internal/scenario"
	"rendezvous/internal/sim"
)

// TestCommittedScenarioFilesParse pins that the embedded documents are
// exactly one per experiment, each named after the experiment it
// defines, and that every one parses and compiles end to end.
func TestCommittedScenarioFilesParse(t *testing.T) {
	matches, err := fs.Glob(scenarios.FS, "E*.json")
	if err != nil || len(matches) == 0 {
		t.Fatalf("no embedded scenario documents (err %v)", err)
	}
	if len(matches) != len(Registry()) {
		t.Fatalf("found %d scenario documents, want one per experiment (%d)", len(matches), len(Registry()))
	}
	for _, name := range matches {
		data, err := scenarios.FS.ReadFile(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f, err := scenario.ParseFile(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := ByID(f.Experiment); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := f.Experiment + ".json"; name != want {
			t.Fatalf("%s names experiment %s; its file must be %s", name, f.Experiment, want)
		}
		if _, err := f.CompileAll(scenario.Options{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// goldenSearch is one entry of testdata/golden.json: the fingerprint
// and the full result, witnesses included, of one search of an
// experiment, captured from the experiments as they stood before their
// searches moved into the scenario documents.
type goldenSearch struct {
	Fingerprint string        `json:"fingerprint"`
	Result      sim.WorstCase `json:"result"`
}

// TestDocumentsMatchGolden runs every committed document through
// runDocument and pins each search's fingerprint (graph, explorer,
// schedules, expanded space, symmetry) and its WorstCase against
// testdata/golden.json, in file order. An edit to a document that
// changes what an experiment measures fails here.
func TestDocumentsMatchGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string][]goldenSearch
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden) != len(Registry()) {
		t.Fatalf("golden.json covers %d experiments, want %d", len(golden), len(Registry()))
	}
	opts := Options{Workers: -1}
	for _, exp := range Registry() {
		want, ok := golden[exp.ID]
		if !ok {
			t.Fatalf("golden.json has no entry for %s", exp.ID)
		}
		runs, err := opts.runDocument(exp.ID, len(want))
		if err != nil {
			t.Errorf("%s: %v", exp.ID, err)
			continue
		}
		doc, err := scenarios.FS.ReadFile(exp.ID + ".json")
		if err != nil {
			t.Fatal(err)
		}
		f, err := scenario.ParseFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		models, err := f.CompileAll(opts.scenarioOptions())
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range runs {
			fp, err := models[i].Fingerprint()
			if err != nil {
				t.Fatalf("%s: searches[%d]: %v", exp.ID, i, err)
			}
			if fp != want[i].Fingerprint {
				t.Errorf("%s: searches[%d] fingerprint %s, golden %s", exp.ID, i, fp, want[i].Fingerprint)
			}
			if r.wc != want[i].Result {
				t.Errorf("%s: searches[%d] result\n got    %+v\n golden %+v", exp.ID, i, r.wc, want[i].Result)
			}
		}
	}
}

// TestRunDocumentRejectsWrongCount pins that an experiment whose
// document declares a different number of searches than its table
// expects gets an error, not an out-of-range panic.
func TestRunDocumentRejectsWrongCount(t *testing.T) {
	_, err := Options{}.runDocument("E13", 5)
	if err == nil || !strings.Contains(err.Error(), "declares 4 searches, want 5") {
		t.Fatalf("err = %v, want a search-count mismatch", err)
	}
	if _, err := (Options{}).runDocument("E99", 0); err == nil {
		t.Fatal("a missing document must be an error")
	}
}
