// Command perfbench is the repository's benchmark: one command that
// runs a seeded workload against the adversary engine or the rdvd
// search service, checks every result, and prints the workload's
// metrics. It uses the internal packages as a client; the program under
// test is not instrumented.
//
//	bash perfbench/run.sh --workload sweep-static --seed 1 --seconds 10 --trace 0
//
// Workloads (BENCHMARK.json records why each exists):
//
//   - sweep-static: the paper model with automatic tier choice and one
//     engine worker per CPU, over a fixed list of static-graph searches
//     spanning the tier crossover (ring, batch, orbit reduction).
//   - sweep-generic: searches only the generic trajectory tier runs —
//     two dynamic-graph models and one paper search pinned to it.
//   - serve-mixed: an in-process serve.Server over a fresh result
//     store on a loopback listener, driven by one closed-loop client
//     per CPU; half the requests repeat a pre-warmed hot set of 64
//     searches (store hits), half are fresh searches (engine runs), and
//     half the bodies use the inline form, half the scenario form.
//
// With --trace 0 the last line of standard output is a JSON object
// with the end-to-end metrics; with --trace 1 a separate traced run
// records spans around the benchmark's own calls into each layer,
// writes them to --out, and reports the per-layer metrics instead.
// The lines before it print the same metrics for people, with their
// sample counts. A failed output check makes the exit status 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// processStart approximates the process start for setup_s.
var processStart = time.Now()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a reported metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics an untraced run reports on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"configs_per_s", "1/s"},
	{"searches_per_s", "1/s"},
	{"miss_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports on every workload; a
// layer the workload does not reach reports 0.
var perLayer = []metricDef{
	{"adversary.plan_ms", "ms"},
	{"adversary.sweep_ms", "ms"},
	{"adversary.merge_us", "us"},
	{"adversary.runs", "count"},
	{"adversary.alloc_mb_per_kconfig", "MB"},
	{"adversary.tier_searches.ring", "count"},
	{"adversary.tier_searches.batch", "count"},
	{"adversary.tier_searches.table", "count"},
	{"adversary.tier_searches.generic", "count"},
	{"adversary.shard_ms_p50", "ms"},
	{"adversary.shard_ms_max", "ms"},
	{"orbits.reduce_ms", "ms"},
	{"orbits.reduction_ratio", "ratio"},
	{"meetoracle.table_build_ms", "ms"},
	{"meetoracle.table_bytes", "B"},
	{"meetoracle.precompile_ms", "ms"},
	{"meetoracle.batch_ns_per_run", "ns"},
	{"meetoracle.table_ns_per_run", "ns"},
	{"ringsim.ns_per_run", "ns"},
	{"sim.ns_per_run", "ns"},
	{"sim.trajectory_ms", "ms"},
	{"scenario.parse_us", "us"},
	{"scenario.compile_us", "us"},
	{"model.fingerprint_us", "us"},
	{"resultstore.get_us", "us"},
	{"resultstore.put_ms", "ms"},
	{"resultstore.hit_ratio", "ratio"},
	{"admission.queue_wait_ms", "ms"},
	{"serve.search_ms", "ms"},
	{"serve.shared_ratio", "ratio"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.hit_p99_ms", "ms"},
	{"serve.miss_p99_ms", "ms"},
	{"trace.overhead_configs_per_s", "ratio"},
	{"trace.overhead_miss_p50_ms", "ratio"},
	{"trace.child_sum_max_dev", "ratio"},
	{"crossover.ring24_l32.auto_tier", "tier"},
	{"crossover.ring24_l32.auto_ns_per_run", "ns"},
	{"crossover.ring24_l32.ring_ns_per_run", "ns"},
	{"crossover.ring24_l32.batch_ns_per_run", "ns"},
	{"crossover.ring512_l4.auto_tier", "tier"},
	{"crossover.ring512_l4.auto_ns_per_run", "ns"},
	{"crossover.ring512_l4.ring_ns_per_run", "ns"},
	{"crossover.ring512_l4.batch_ns_per_run", "ns"},
}

// config is the parsed command line.
type config struct {
	Workload string
	Seed     int64
	Window   time.Duration
	Trace    bool
	Out      string
	Workers  int
}

// report is what a workload run produced: metric values, sample counts
// for the human-readable lines, and the operations attempted and failed.
type report struct {
	Values    map[string]float64
	Samples   map[string]int
	Extra     []string // further human-readable lines
	Attempted int
	Failures  []string
}

func newReport() *report {
	return &report{Values: make(map[string]float64), Samples: make(map[string]int)}
}

func (r *report) set(name string, v float64, samples int) {
	r.Values[name] = v
	r.Samples[name] = samples
}

func (r *report) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	var seconds, trace int
	var updateExpected string
	flag.StringVar(&cfg.Workload, "workload", "", "workload: sweep-static, sweep-generic or serve-mixed")
	flag.Int64Var(&cfg.Seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 10, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&cfg.Out, "out", ".bench_build/perfbench", "directory for span files and the result store")
	flag.StringVar(&updateExpected, "update-expected", "", "recompute the sweep searches' expected results into this file and exit")
	flag.Parse()
	cfg.Window = time.Duration(seconds) * time.Second
	cfg.Trace = trace == 1
	cfg.Workers = runtime.NumCPU()

	if updateExpected != "" {
		if err := writeExpected(updateExpected, cfg.Workers); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}

	var rep *report
	var err error
	switch cfg.Workload {
	case "sweep-static":
		rep, err = runSweep(cfg, sweepStatic)
	case "sweep-generic":
		rep, err = runSweep(cfg, sweepGeneric)
	case "serve-mixed":
		rep, err = runServe(cfg)
	default:
		err = fmt.Errorf("unknown workload %q (want sweep-static, sweep-generic or serve-mixed)", cfg.Workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	return emit(cfg, rep)
}

// emit prints the human-readable lines and the final JSON line, and
// returns the exit status.
func emit(cfg config, rep *report) int {
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Attempted: rep.Attempted, Failed: len(rep.Failures), Metrics: make(map[string]metric)}
	out.Correct = out.Failed == 0 && out.Attempted > 0

	for _, f := range rep.Failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	fmt.Printf("workload %s seed %d window %s trace %v workers %d\n", cfg.Workload, cfg.Seed, cfg.Window, cfg.Trace, cfg.Workers)
	for _, d := range defs {
		v := rep.Values[d.Name]
		out.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		fmt.Printf("  %-40s %14.6g %-6s (n=%d)\n", d.Name, v, d.Unit, rep.Samples[d.Name])
	}
	failedFrac := 0.0
	if rep.Attempted > 0 {
		failedFrac = float64(len(rep.Failures)) / float64(rep.Attempted)
	}
	fmt.Printf("  %-40s %14.6g %-6s (n=%d)\n", "failed_frac", failedFrac, "ratio", rep.Attempted)
	extra := append([]string(nil), rep.Extra...)
	sort.Strings(extra)
	for _, line := range extra {
		fmt.Println("  " + line)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// errNoWork reports a timed window in which nothing completed.
var errNoWork = errors.New("no operation completed in the timed window")
