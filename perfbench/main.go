// Command perfbench is the end-to-end certification benchmark: it drives
// the product's public entry points — harness.RunMonitored episodes and
// certd monitor streams — for a fixed time, checks every verdict against
// an oracle, and prints every metric by name with its unit and sample
// count. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run replays each job's exact event sequence through
// every layer's public functions, timed from outside, and reports the
// per-layer metrics instead. The metric names, units and workloads are
// declared in BENCHMARK.json at the repository root; NOTES.md next to
// this file explains them.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload certify-readheavy --seed 1 --seconds 10 --trace 0
//
// The exit status is 0 when every check passed, 1 when an output check
// failed, and 2 on a usage or set-up error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// txns and pool override the workload's transactions per thread and
	// job-pool size (0 keeps the workload's own). They are not flags: a
	// run under a workload's name runs that workload. The self-test sets
	// them to run at tiny sizes.
	txns, pool int
	spansOut   string
	// wrongVerdict makes the oracle expect the wrong verdict for every
	// job; the self-test uses it to show that a wrong expectation fails
	// the run.
	wrongVerdict bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name, or \"all\" ("+strings.Join(workloadNames(), ", ")+")")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same jobs")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured time per workload, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced layer-by-layer replay instead of the end-to-end run")
	fs.StringVar(&cfg.spansOut, "spans", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	cfg.trace = trace == 1
	return execute(cfg, stdout, stderr)
}

// execute runs the configured workloads and prints their results; the
// exit code is 1 when any output check failed.
func execute(cfg config, stdout, stderr io.Writer) int {
	var specs []workloadSpec
	if cfg.workload == "all" {
		specs = workloads
	} else {
		w, ok := findWorkload(cfg.workload)
		if !ok {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q (valid: %s, all)\n", cfg.workload, strings.Join(workloadNames(), ", "))
			return 2
		}
		specs = []workloadSpec{w}
	}
	fmt.Fprintf(stdout, "perfbench: %s/%s, %d CPU, seed %d, %gs per workload, trace %v\n",
		runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), cfg.seed, cfg.seconds, cfg.trace)
	total := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range specs {
		w = w.sized(cfg)
		runtime.GOMAXPROCS(w.procs)
		fmt.Fprintf(stdout, "%s: GOMAXPROCS %d\n", w.name, w.procs)
		var res result
		var err error
		if cfg.trace {
			res, err = runTraced(cfg, w, stdout, stderr)
		} else {
			res, err = runEndToEnd(cfg, w, stdout, stderr)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 2
		}
		if len(specs) == 1 {
			total = res
			break
		}
		printJSON(stdout, res)
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for name, m := range res.Metrics {
			total.Metrics[w.name+"."+name] = m
		}
	}
	printJSON(stdout, total)
	if !total.Correct {
		fmt.Fprintln(stderr, "perfbench: output check FAILED")
		return 1
	}
	return 0
}

// result is the benchmark's machine-readable outcome, printed as the last
// line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printJSON(w io.Writer, r result) {
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0 // JSON has no NaN; the table printed the cause
			r.Metrics[name] = m
		}
	}
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // only plain numbers and strings are marshalled
	}
	fmt.Fprintln(w, string(b))
}

// metricDef names one reported metric. The lists below must match
// BENCHMARK.json (the self-test checks it).
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"events_per_cpu_s", "1/s"},
	{"cpu_to_verdict_p50_ms", "ms"},
	{"cpu_to_verdict_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

var perLayerMetrics = []metricDef{
	{"harness.record_ns_per_event", "ns"},
	{"stm.ns_per_txn", "ns"},
	{"stm.abort_ratio", "ratio"},
	{"recorder.ns_per_event", "ns"},
	{"recorder.allocs_per_txn", "count"},
	{"recorder.bytes_per_txn", "B"},
	{"history.ingest_ns_per_event", "ns"},
	{"spec.du.ns_per_event", "ns"},
	{"spec.append_tail_us", "us"},
	{"spec.commit_append_share", "ratio"},
	{"spec.max_live_txns", "count"},
	{"spec.search_append_share", "ratio"},
	{"spec.searches_per_kevent", "count"},
	{"spec.fast_hit_ratio", "ratio"},
	{"spec.retired_share", "ratio"},
	{"histio.encode_ns_per_event", "ns"},
	{"histio.parse_ns_per_event", "ns"},
	{"histio.bytes_per_event", "B"},
	{"certd.append_ns_per_event", "ns"},
	{"certd.session_ns_per_event", "ns"},
	{"certd.stalls_per_kevent", "count"},
	{"certd.echo_bytes_per_event", "B"},
	{"go.alloc_bytes_per_event", "B"},
	{"go.gc_cpu_share", "ratio"},
	{"trace.unaccounted_share", "ratio"},
	{"trace.overhead_share", "ratio"},
}

// table collects metric values in declaration order and prints them with
// their units and sample counts.
type table struct {
	defs   []metricDef
	values map[string]metricValue
	notes  map[string]string
}

func newTable(defs []metricDef) *table {
	return &table{defs: defs, values: map[string]metricValue{}, notes: map[string]string{}}
}

// set records a metric; note says what it was computed over (the sample
// count, the percentile).
func (t *table) set(name string, v float64, note string) {
	for _, d := range t.defs {
		if d.name == name {
			t.values[name] = metricValue{Value: v, Unit: d.unit}
			t.notes[name] = note
			return
		}
	}
	panic("perfbench: undeclared metric " + name)
}

func (t *table) print(w io.Writer, title string) {
	fmt.Fprintf(w, "%s\n", title)
	for _, d := range t.defs {
		v, ok := t.values[d.name]
		if !ok {
			panic("perfbench: metric " + d.name + " was not measured")
		}
		fmt.Fprint(w, formatRow(d.name, d.unit, v.Value, t.notes[d.name]))
	}
}

func formatRow(name, unit string, v float64, note string) string {
	return fmt.Sprintf("  %-30s %14.4f %-6s %s\n", name, v, unit, note)
}
