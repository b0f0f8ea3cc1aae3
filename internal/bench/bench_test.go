package bench

import (
	"bytes"
	"strings"
	"testing"

	"rendezvous/internal/scenario"
)

// TestAllExperimentsPass is the repository's headline integration test:
// every experiment table regenerates and every paper-bound check passes.
func TestAllExperimentsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweeps are not short")
	}
	for _, exp := range Registry() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			t.Parallel()
			table, err := exp.Run(Options{Workers: 2})
			if err != nil {
				t.Fatalf("%s: %v", exp.ID, err)
			}
			if len(table.Rows) == 0 {
				t.Fatalf("%s: empty table", exp.ID)
			}
			if len(table.Checks) == 0 {
				t.Fatalf("%s: no bound checks", exp.ID)
			}
			for _, c := range table.Failed() {
				t.Errorf("%s: check %q failed: %s", exp.ID, c.Name, c.Detail)
			}
			for _, row := range table.Rows {
				if len(row) != len(table.Columns) {
					t.Errorf("%s: row %v has %d cells, want %d", exp.ID, row, len(row), len(table.Columns))
				}
			}
		})
	}
}

func TestRegistryAndByID(t *testing.T) {
	reg := Registry()
	if len(reg) != 15 {
		t.Fatalf("Registry has %d experiments, want 15", len(reg))
	}
	seen := make(map[string]bool)
	for _, e := range reg {
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
		got, err := ByID(e.ID)
		if err != nil {
			t.Errorf("ByID(%s): %v", e.ID, err)
		}
		if got.ID != e.ID {
			t.Errorf("ByID(%s) returned %s", e.ID, got.ID)
		}
	}
	if _, err := ByID("E99"); err == nil {
		t.Error("ByID(E99): want error")
	}
}

func TestTableRender(t *testing.T) {
	table := &Table{
		ID:      "T",
		Title:   "demo",
		Claim:   "x <= y",
		Columns: []string{"a", "bb"},
		Notes:   []string{"a note"},
	}
	table.AddRow(1, 2.5)
	table.AddRow("long-cell", 3)
	table.AddCheck("bound", true, "ok %d", 7)
	table.AddCheck("other", false, "bad")

	var buf bytes.Buffer
	if err := table.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== T: demo ==", "Claim: x <= y", "long-cell", "2.50", "[PASS] bound — ok 7", "[FAIL] other — bad", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render output missing %q:\n%s", want, out)
		}
	}
	if got := len(table.Failed()); got != 1 {
		t.Errorf("Failed() = %d checks, want 1", got)
	}
}

func TestTableMarkdown(t *testing.T) {
	table := &Table{ID: "T", Title: "demo", Columns: []string{"a"}}
	table.AddRow(42)
	table.AddCheck("c", true, "fine")
	var buf bytes.Buffer
	if err := table.Markdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"### T — demo", "| a |", "| 42 |", "✅ **c** — fine"} {
		if !strings.Contains(out, want) {
			t.Errorf("Markdown output missing %q:\n%s", want, out)
		}
	}
}

// The generator tests below pin the scenario format's canonical
// configuration spaces, which the committed documents expand through.

func TestSampledLabelPairsProperties(t *testing.T) {
	for _, L := range []int{4, 16, 100} {
		pairs := scenario.SampledLabelPairs(L, 30, 1)
		seen := make(map[[2]int]bool)
		for _, p := range pairs {
			if p[0] == p[1] || p[0] < 1 || p[1] < 1 || p[0] > L || p[1] > L {
				t.Fatalf("L=%d: bad pair %v", L, p)
			}
			if seen[p] {
				t.Fatalf("L=%d: duplicate pair %v", L, p)
			}
			seen[p] = true
		}
		if !seen[[2]int{1, 2}] || !seen[[2]int{L - 1, L}] {
			t.Errorf("L=%d: adversarial pairs missing", L)
		}
	}
	// Deterministic for a fixed seed.
	a := scenario.SampledLabelPairs(64, 40, 9)
	b := scenario.SampledLabelPairs(64, 40, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("SampledLabelPairs not deterministic")
		}
	}
}

func TestRingOffsets(t *testing.T) {
	offs := scenario.RingOffsets(5)
	if len(offs) != 4 {
		t.Fatalf("RingOffsets(5) = %v", offs)
	}
	for i, p := range offs {
		if p[0] != 0 || p[1] != i+1 {
			t.Fatalf("RingOffsets(5) = %v", offs)
		}
	}
}

func TestAllLabelPairs(t *testing.T) {
	pairs := scenario.AllLabelPairs(3)
	if len(pairs) != 6 {
		t.Fatalf("AllLabelPairs(3) = %v", pairs)
	}
}

func TestFitExponent(t *testing.T) {
	// y = x^2 exactly.
	xs := []float64{2, 4, 8, 16}
	ys := []float64{4, 16, 64, 256}
	if got := fitExponent(xs, ys); got < 1.99 || got > 2.01 {
		t.Errorf("fitExponent = %v, want 2", got)
	}
	// Degenerate input.
	if got := fitExponent([]float64{1}, []float64{1}); got == got { // NaN check
		t.Errorf("fitExponent of one point = %v, want NaN", got)
	}
}

func TestDelaysFor(t *testing.T) {
	d := scenario.DelaysFor(10)
	want := []int{0, 1, 5, 10, 11, 20}
	if len(d) != len(want) {
		t.Fatalf("DelaysFor(10) = %v", d)
	}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("DelaysFor(10) = %v, want %v", d, want)
		}
	}
}
