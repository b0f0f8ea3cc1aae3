// Command rdvbench regenerates every experiment table of the
// reproduction (E1..E15 from DESIGN.md), checking each measurement
// against the bound the paper claims.
//
// Usage:
//
//	rdvbench                 # run every experiment, plain-text tables
//	rdvbench -run E3,E7      # run a subset
//	rdvbench -markdown       # emit GitHub-flavoured markdown (EXPERIMENTS.md body)
//	rdvbench -json           # emit a machine-readable report (CI artifact)
//	rdvbench -list           # list experiment IDs and titles
//	rdvbench -workers 8      # shard adversary sweeps across 8 goroutines
//	rdvbench -timeout 10m    # abort (non-zero exit) if not done in time
//	rdvbench -tablemem 128   # meeting-table memory budget, MiB (0 = default 64, -1 disables)
//	rdvbench -symmetry off   # start-pair orbit reduction: auto (default), off, forced
//	rdvbench -tier batch     # force an execution tier: auto (default), generic, table, batch, ring
//	rdvbench -cache DIR      # serve repeated sweeps from a result store at DIR
//	rdvbench -resume DIR     # checkpoint sweeps into DIR; a cancelled run resumes
//	rdvbench -scenario F     # run the searches of a scenario file (JSON) instead
//
// Tables are identical for every -workers, -tablemem, -symmetry and
// valid -tier value; parallelism, the meeting-table tiers and the
// symmetry-orbit reduction only change wall-clock time (and, for
// -symmetry, how many configurations execute). -tier batch forces the
// 64-lane batched table executor everywhere, and -tier table disables
// it in favour of the scalar table scan; forcing a tier some
// experiment cannot run (-tier ring off the ring experiments) makes
// that experiment fail with the scenario compiler's forcing error.
// -cache and -resume are persistence options with the same bit-for-bit
// property: a store hit returns the exact WorstCase a cold sweep would
// compute, and a resumed sweep merges to the same output as an
// uninterrupted one.
//
// Every engine-backed experiment runs the searches of its committed
// scenario document (examples/scenarios/E*.json, embedded in the
// binary). -scenario runs any scenario file (internal/scenario format)
// on that same path — -cache and -resume included — instead of the
// experiment registry, printing one result line per search.
//
// Flag values are validated up front: -workers below -1,
// -tablemem below -1, unknown -symmetry modes or -tier names and an
// unusable -cache/-resume directory are usage errors. The process
// exits non-zero if any bound check fails or the timeout expires.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"rendezvous/internal/adversary"
	"rendezvous/internal/bench"
	"rendezvous/internal/resultstore"
	"rendezvous/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonReport is the machine-readable -json output: the options the
// sweep ran under, every rendered table, and the failure count the
// exit code reflects. CI uploads it as a workflow artifact.
type jsonReport struct {
	Options struct {
		Workers     int    `json:"workers"`
		TableMemMiB int64  `json:"tablememMiB"`
		Symmetry    string `json:"symmetry"`
		Tier        string `json:"tier"`
		Cache       string `json:"cache,omitempty"`
		Resume      string `json:"resume,omitempty"`
	} `json:"options"`
	Experiments []*bench.Table `json:"experiments"`
	Failures    int            `json:"failures"`
}

// run is the testable entry point: it parses args with a private flag
// set and writes to the given streams.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rdvbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runList  = fs.String("run", "", "comma-separated experiment IDs (default: all)")
		markdown = fs.Bool("markdown", false, "emit markdown instead of plain text")
		jsonOut  = fs.Bool("json", false, "emit a machine-readable JSON report instead of plain text")
		list     = fs.Bool("list", false, "list experiments and exit")
		workers  = fs.Int("workers", -1, "goroutines per adversary sweep (-1 = GOMAXPROCS, 1 = serial)")
		timeout  = fs.Duration("timeout", 0, "overall deadline, e.g. 10m (0 = none)")
		tablemem = fs.Int64("tablemem", 0, "meeting-table memory budget in MiB (0 = engine default, -1 disables the tier)")
		symmetry = fs.String("symmetry", "auto", "start-pair orbit reduction: auto, off or forced")
		tierName = fs.String("tier", "auto", "execution tier: auto, generic, table, batch or ring")
		cacheDir = fs.String("cache", "", "result-store directory for sweep caching (empty = no cache)")
		resume   = fs.String("resume", "", "checkpoint directory for resumable sweeps (empty = no checkpoints)")
		scenPath = fs.String("scenario", "", "scenario file (JSON) to run instead of the experiment registry")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usageErr := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "rdvbench: "+format+"\n", args...)
		fs.Usage()
		return 2
	}
	if *workers < -1 {
		return usageErr("-workers %d: want -1 (GOMAXPROCS) or a count >= 0", *workers)
	}
	if *tablemem < -1 {
		return usageErr("-tablemem %d: want -1 (disable the meeting-table tier) or a budget >= 0 MiB", *tablemem)
	}
	sym, err := adversary.ParseSymmetry(*symmetry)
	if err != nil {
		return usageErr("-symmetry %q: want auto, off or forced", *symmetry)
	}
	tier, err := adversary.ParseTier(*tierName)
	if err != nil {
		return usageErr("-tier %q: want auto, generic, table, batch or ring", *tierName)
	}
	if *markdown && *jsonOut {
		return usageErr("-markdown and -json are mutually exclusive")
	}
	if *scenPath != "" && (*runList != "" || *markdown || *jsonOut || *list) {
		return usageErr("-scenario is exclusive with -run, -list, -markdown and -json")
	}
	var store *resultstore.Store
	if *cacheDir != "" {
		var err error
		if store, err = resultstore.Open(*cacheDir); err != nil {
			return usageErr("-cache %s: %v", *cacheDir, err)
		}
	}
	if *resume != "" {
		if err := os.MkdirAll(*resume, 0o755); err != nil {
			return usageErr("-resume %s: %v", *resume, err)
		}
	}

	if *list {
		for _, exp := range bench.Registry() {
			fmt.Fprintln(stdout, exp.ID)
		}
		return 0
	}

	experiments := bench.Registry()
	if *runList != "" {
		experiments = experiments[:0]
		for _, id := range strings.Split(*runList, ",") {
			exp, err := bench.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			experiments = append(experiments, exp)
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	budget := *tablemem * (1 << 20)
	if *tablemem < 0 {
		budget = -1
	}
	opts := bench.Options{Workers: *workers, Context: ctx, TableBudget: budget, Symmetry: sym, Tier: tier, Store: store, CheckpointDir: *resume}

	if *scenPath != "" {
		data, err := os.ReadFile(*scenPath)
		if err != nil {
			return usageErr("-scenario: %v", err)
		}
		f, err := scenario.ParseFile(data)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		results, err := bench.RunScenario(f, opts)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		for i, wc := range results {
			fmt.Fprintf(stdout, "search %d: time=%d cost=%d runs=%d allMet=%v\n",
				i, wc.Time.Value, wc.Cost.Value, wc.Runs, wc.AllMet)
		}
		return 0
	}

	report := jsonReport{Experiments: []*bench.Table{}}
	report.Options.Workers = *workers
	report.Options.TableMemMiB = *tablemem
	report.Options.Symmetry = sym.String()
	report.Options.Tier = tier.String()
	report.Options.Cache = *cacheDir
	report.Options.Resume = *resume

	failures := 0
	for _, exp := range experiments {
		table, err := exp.Run(opts)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", exp.ID, err)
			if ctx.Err() != nil {
				fmt.Fprintln(stderr, "timeout exceeded")
				return 2
			}
			failures++
			continue
		}
		var renderErr error
		switch {
		case *jsonOut:
			report.Experiments = append(report.Experiments, table)
		case *markdown:
			renderErr = table.Markdown(stdout)
		default:
			renderErr = table.Render(stdout)
		}
		if renderErr != nil {
			fmt.Fprintf(stderr, "%s: render: %v\n", exp.ID, renderErr)
			return 2
		}
		failures += len(table.Failed())
	}
	if *jsonOut {
		report.Failures = failures
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(stderr, "json: %v\n", err)
			return 2
		}
	}
	if failures > 0 {
		fmt.Fprintf(stderr, "%d check(s) failed\n", failures)
		return 1
	}
	return 0
}
