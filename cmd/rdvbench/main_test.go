package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestList: -list prints every experiment ID, one per line, and exits 0.
func TestList(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, id := range []string{"E1", "E8", "E15"} {
		if !strings.Contains(out, id+"\n") {
			t.Errorf("missing %s in listing:\n%s", id, out)
		}
	}
}

// TestRunSingleExperiment runs E8 (explorer-contract verification, the
// cheapest experiment) end to end in both output formats.
func TestRunSingleExperiment(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-run", "E8", "-workers", "2"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "== E8") || !strings.Contains(stdout.String(), "[PASS]") {
		t.Errorf("unexpected plain output:\n%s", stdout.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-run", "E8", "-markdown", "-tablemem", "16"}, &stdout, &stderr); code != 0 {
		t.Fatalf("markdown exit = %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "### E8") {
		t.Errorf("unexpected markdown output:\n%s", stdout.String())
	}
}

// TestBadFlags covers the error exits, including the value validation
// run() performs after parsing: worker counts below the GOMAXPROCS
// sentinel, table budgets below the disable sentinel, unknown symmetry
// modes and contradictory output formats are usage errors (exit 2)
// with an explanation on stderr, instead of being silently accepted.
func TestBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring expected on stderr
	}{
		{"unknown experiment", []string{"-run", "E99"}, "unknown experiment"},
		{"unknown flag", []string{"-no-such-flag"}, "flag provided but not defined"},
		{"workers below -1", []string{"-workers", "-2"}, "-workers -2"},
		{"tablemem below -1", []string{"-tablemem", "-5"}, "-tablemem -5"},
		{"symmetry junk", []string{"-symmetry", "junk"}, "-symmetry \"junk\""},
		{"symmetry empty", []string{"-symmetry", ""}, "-symmetry"},
		{"markdown+json conflict", []string{"-markdown", "-json"}, "mutually exclusive"},
		{"tier junk", []string{"-run", "E8", "-tier", "turbo"}, "-tier \"turbo\""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit = %d, want 2 (stderr: %s)", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr missing %q:\n%s", tc.want, stderr.String())
			}
		})
	}
}

// TestSentinelFlagValuesStillWork: -workers -1 (GOMAXPROCS) and
// -tablemem -1 (disable the meeting-table tier) are documented
// sentinels, not junk; validation must keep accepting them, as well as
// every -symmetry mode.
func TestSentinelFlagValuesStillWork(t *testing.T) {
	for _, args := range [][]string{
		{"-run", "E8", "-workers", "-1", "-tablemem", "-1"},
		{"-run", "E8", "-symmetry", "off"},
		{"-run", "E8", "-symmetry", "forced"},
		{"-run", "E8", "-symmetry", "auto"},
		{"-run", "E8", "-tier", "batch"},
		{"-run", "E8", "-tier", "table"},
		{"-run", "E8", "-tier", "generic"},
	} {
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Errorf("%v: exit = %d, stderr: %s", args, code, stderr.String())
		}
	}
}

// TestJSONReport: -json emits a parseable report carrying the options,
// every table and the failure count.
func TestJSONReport(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-run", "E8", "-json", "-symmetry", "auto", "-tier", "batch"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr.String())
	}
	var report struct {
		Options struct {
			Workers  int    `json:"workers"`
			Symmetry string `json:"symmetry"`
			Tier     string `json:"tier"`
		} `json:"options"`
		Experiments []struct {
			ID     string `json:"ID"`
			Checks []struct {
				Name string `json:"Name"`
				Pass bool   `json:"Pass"`
			} `json:"Checks"`
		} `json:"experiments"`
		Failures int `json:"failures"`
	}
	if err := json.Unmarshal([]byte(stdout.String()), &report); err != nil {
		t.Fatalf("unparseable -json output: %v\n%s", err, stdout.String())
	}
	if report.Options.Symmetry != "auto" || report.Options.Tier != "batch" || report.Failures != 0 {
		t.Errorf("report header wrong: %+v", report)
	}
	if len(report.Experiments) != 1 || report.Experiments[0].ID != "E8" {
		t.Fatalf("experiments = %+v, want exactly E8", report.Experiments)
	}
	if len(report.Experiments[0].Checks) == 0 {
		t.Error("E8 report carries no checks")
	}
	for _, c := range report.Experiments[0].Checks {
		if !c.Pass {
			t.Errorf("check %q failed in JSON report", c.Name)
		}
	}
}

// TestCacheAndResume: a -cache run populates the result store and a
// rerun serves from it with identical output; -resume leaves sweep
// checkpoints behind. Both must not change any table.
func TestCacheAndResume(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "store")
	ckpt := filepath.Join(t.TempDir(), "ckpt")

	var cold, warm, plain, stderr strings.Builder
	if code := run([]string{"-run", "E1"}, &plain, &stderr); code != 0 {
		t.Fatalf("plain run: exit %d, stderr: %s", code, stderr.String())
	}
	stderr.Reset()
	if code := run([]string{"-run", "E1", "-cache", cache, "-resume", ckpt}, &cold, &stderr); code != 0 {
		t.Fatalf("cold cached run: exit %d, stderr: %s", code, stderr.String())
	}
	records, err := filepath.Glob(filepath.Join(cache, "objects", "*", "*.json"))
	if err != nil || len(records) == 0 {
		t.Fatalf("cache store is empty after a cold run (err %v)", err)
	}
	// Checkpoints are crash recovery, not a cache: a sweep that ran to
	// completion must clean its file up (the store carries reruns).
	ckpts, err := filepath.Glob(filepath.Join(ckpt, "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpts) != 0 {
		t.Fatalf("completed sweeps left %d stale checkpoint(s) behind", len(ckpts))
	}
	stderr.Reset()
	if code := run([]string{"-run", "E1", "-cache", cache}, &warm, &stderr); code != 0 {
		t.Fatalf("warm cached run: exit %d, stderr: %s", code, stderr.String())
	}
	if cold.String() != plain.String() || warm.String() != plain.String() {
		t.Error("cached/resumed output differs from the plain run")
	}

	// -scenario runs on the experiments' path, so both flags apply to it
	// too: the store fills with one record per search, no checkpoint is
	// left behind, and the output matches a plain run.
	scen := filepath.Join("..", "..", "examples", "scenarios", "E13.json")
	scenCache := filepath.Join(t.TempDir(), "store")
	var scenPlain, scenCold, scenWarm strings.Builder
	for _, tc := range []struct {
		args []string
		out  *strings.Builder
	}{
		{[]string{"-scenario", scen}, &scenPlain},
		{[]string{"-scenario", scen, "-cache", scenCache, "-resume", ckpt}, &scenCold},
		{[]string{"-scenario", scen, "-cache", scenCache}, &scenWarm},
	} {
		stderr.Reset()
		if code := run(tc.args, tc.out, &stderr); code != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", tc.args, code, stderr.String())
		}
	}
	records, err = filepath.Glob(filepath.Join(scenCache, "objects", "*", "*.json"))
	if err != nil || len(records) != 4 {
		t.Fatalf("-scenario -cache stored %d records, want one per search of E13.json (4) (err %v)", len(records), err)
	}
	if ckpts, _ := filepath.Glob(filepath.Join(ckpt, "*.ckpt")); len(ckpts) != 0 {
		t.Fatalf("-scenario -resume left %d stale checkpoint(s) behind", len(ckpts))
	}
	if scenCold.String() != scenPlain.String() || scenWarm.String() != scenPlain.String() {
		t.Errorf("-scenario output with -cache/-resume differs from the plain run:\n%s\nvs\n%s", scenCold.String(), scenPlain.String())
	}
}

// TestBadPersistenceFlags: an unusable -cache or -resume location is a
// usage error, caught before any experiment runs.
func TestBadPersistenceFlags(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, flag := range []string{"-cache", "-resume"} {
		var stdout, stderr strings.Builder
		if code := run([]string{"-run", "E8", flag, file}, &stdout, &stderr); code != 2 {
			t.Errorf("%s over a file: exit %d, want 2 (stderr: %s)", flag, code, stderr.String())
		}
	}
}

// TestHelpExitsZero: -h prints usage and exits 0, matching the
// behaviour of the global flag set it replaced.
func TestHelpExitsZero(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Errorf("-h: exit = %d, want 0", code)
	}
	if !strings.Contains(stderr.String(), "-workers") {
		t.Errorf("usage missing from -h output:\n%s", stderr.String())
	}
}
