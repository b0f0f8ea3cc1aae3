// Package bench is the reproduction harness: it regenerates, as measured
// tables, every claim of Miller & Pelc's evaluation — the propositions
// of Section 2, the lower-bound constructions of Section 3, and the
// tradeoff/separation statements of Section 1.3 — and checks each
// measurement against the paper's stated bound. EXPERIMENTS.md is
// generated from this package's output (cmd/rdvbench).
package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"rendezvous/internal/adversary"
	"rendezvous/internal/resultstore"
)

// Options configures how an experiment runs the searches of its
// committed scenario document (examples/scenarios). The zero value runs
// serially with no deadline. Results are identical for every Workers,
// TableBudget, Symmetry and valid Tier value, and with or without the
// store and checkpoints; only wall-clock time (and, for Symmetry, the
// execution count) changes.
type Options struct {
	// Workers shards every adversary search across this many goroutines
	// (0 or 1 = serial, negative = GOMAXPROCS).
	Workers int
	// Context cancels in-flight sweeps; experiments return its error.
	Context context.Context
	// TableBudget caps, in bytes, the memory each sweep may spend on the
	// engine's precomputed meeting tables (0 = the engine default,
	// negative disables the meeting-table tier).
	TableBudget int64
	// Symmetry selects the engine's start-pair orbit reduction
	// (adversary.Symmetry; the zero value reduces automatically) for
	// every search whose document does not pin its own.
	Symmetry adversary.Symmetry
	// Tier forces the engine's execution tier for every search whose
	// document does not pin its own (adversary.Tier; the zero value,
	// TierAuto, picks the fastest eligible one). Forcing a tier some
	// search cannot run (TierRing off the ring) makes that experiment
	// fail with the scenario compiler's forcing error.
	Tier adversary.Tier
	// Store, when non-nil, caches every engine-backed search in the
	// content-addressed result store: a rerun serves its searches from
	// disk instead of recomputing them (a hit returns the very
	// WorstCase a cold run would compute).
	Store *resultstore.Store
	// CheckpointDir, when non-empty, checkpoints every engine-backed
	// search into this directory (one file per fingerprint): a
	// cancelled run resumes from completed shards with bit-for-bit
	// identical merged output.
	CheckpointDir string
}

// err reports the context's cancellation, for experiments whose sweeps
// do not funnel through the search engine (E6–E9, E12): they check it
// between units so -timeout bounds every experiment, not only the
// engine-backed ones.
func (o Options) err() error {
	if o.Context != nil {
		return o.Context.Err()
	}
	return nil
}

// Check is a pass/fail comparison between a measured quantity and a
// claimed bound.
type Check struct {
	// Name identifies the claim, e.g. "Prop 2.1: cost <= 3E".
	Name string
	// Pass reports whether every measurement respected the claim.
	Pass bool
	// Detail explains the outcome, including the witnessing values.
	Detail string
}

// Table is one rendered experiment result.
type Table struct {
	// ID is the experiment identifier from DESIGN.md (E1..E15).
	ID string
	// Title is a human-readable headline.
	Title string
	// Claim quotes the paper statement under test.
	Claim string
	// Columns and Rows hold the measurements.
	Columns []string
	Rows    [][]string
	// Notes carry caveats (substitutions, constant-factor remarks).
	Notes []string
	// Checks are the bound comparisons for this experiment.
	Checks []Check
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddCheck records a bound comparison.
func (t *Table) AddCheck(name string, pass bool, format string, args ...any) {
	t.Checks = append(t.Checks, Check{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)})
}

// Failed returns the checks that did not pass.
func (t *Table) Failed() []Check {
	var failed []Check
	for _, c := range t.Checks {
		if !c.Pass {
			failed = append(failed, c)
		}
	}
	return failed
}

// Render writes the table in aligned plain text.
func (t *Table) Render(w io.Writer) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&sb, "Claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	writeRow(rule)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, note := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", note)
	}
	for _, c := range t.Checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(&sb, "[%s] %s — %s\n", status, c.Name, c.Detail)
	}
	sb.WriteByte('\n')
	_, err := io.WriteString(w, sb.String())
	return err
}

// Markdown writes the table as GitHub-flavoured markdown (used to
// generate EXPERIMENTS.md).
func (t *Table) Markdown(w io.Writer) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s — %s\n\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&sb, "**Claim.** %s\n\n", t.Claim)
	}
	fmt.Fprintf(&sb, "| %s |\n", strings.Join(t.Columns, " | "))
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(&sb, "| %s |\n", strings.Join(sep, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(&sb, "| %s |\n", strings.Join(row, " | "))
	}
	sb.WriteByte('\n')
	for _, note := range t.Notes {
		fmt.Fprintf(&sb, "*Note: %s*\n\n", note)
	}
	for _, c := range t.Checks {
		mark := "✅"
		if !c.Pass {
			mark = "❌"
		}
		fmt.Fprintf(&sb, "- %s **%s** — %s\n", mark, c.Name, c.Detail)
	}
	sb.WriteByte('\n')
	_, err := io.WriteString(w, sb.String())
	return err
}

// Experiment pairs an identifier with the function that produces its
// table.
type Experiment struct {
	ID  string
	Run func(Options) (*Table, error)
}

// Registry returns all experiments in DESIGN.md order.
func Registry() []Experiment {
	return []Experiment{
		{"E1", E1CheapSimultaneous},
		{"E2", E2CheapArbitraryDelay},
		{"E3", E3Fast},
		{"E4", E4FastWithRelabeling},
		{"E5", E5RelabelScaling},
		{"E6", E6TimeLowerBound},
		{"E7", E7CostLowerBound},
		{"E8", E8Exploration},
		{"E9", E9UnknownE},
		{"E10", E10TradeoffCurve},
		{"E11", E11Separation},
		{"E12", E12AlternativeAccounting},
		{"E13", E13Ablations},
		{"E14", E14TradeoffCurveFine},
		{"E15", E15ExplorerSensitivity},
	}
}

// ByID returns the experiment with the given identifier.
func ByID(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (known: %s)", id, strings.Join(ids, ", "))
}
