// Command pipebench is the repository's program-to-report benchmark. It
// times the pipeline through the same public calls the discovery CLI and
// the analysis daemon make — Benchmark.Build → trace.Run → core.Find →
// report.Text + report.JSON, or an HTTP POST /analyze — checks every output
// against a reference, and prints one JSON result line:
//
//	pipebench -workload suite-1x -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// it carries the per-layer metrics, each layer timed from outside around
// calls to its public functions (the finder's phase split is read from the
// "find" span children core.Find emits). -workload all runs every workload,
// each in a fresh child process. -compare A.jsonl B.jsonl applies the gain
// and regression rules to two sets of runs recorded with -out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
)

// config is one benchmark invocation.
type config struct {
	seed    int64
	seconds float64
	traced  bool
	// smoke shrinks a workload to a bit-rot check for the smoke test: md5
	// inputs divided by 16 and a single set-up.
	smoke bool
	// root is the repository root, where the golden reports live.
	root string
}

// metricDef is one emitted metric: its name and unit, as BENCHMARK.json
// lists them.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, the same on every workload.
// A request is one program analysed to a report: a library call chain on
// the suite and md5 workloads, one POST /analyze on daemon-mix. Throughput
// is not a metric of its own: every pass holds a fixed number of requests,
// so it is that number over pass_s.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pass_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, the same on every workload. A
// layer that a workload never runs (the store on the library workloads,
// allocation counts inside the daemon) reports 0; every metric in ms is
// measured on every workload.
var perLayer = []metricDef{
	{"mir.build_ms", "ms"},
	{"vm.exec_ms", "ms"},
	{"trace.run_ms", "ms"},
	{"trace.ns_per_node", "ns/node"},
	{"trace.overhead_x", "x"},
	{"trace.alloc_mb", "MB"},
	{"trace.gc_cycles", "count"},
	{"trace.nodes", "count"},
	{"ddg.arcs", "count"},
	{"ddg.live_heap_mb", "MB"},
	{"ddg.spilled_mb", "MB"},
	{"ddg.page_faults", "count"},
	{"ddg.peak_resident_mb", "MB"},
	{"core.find_ms", "ms"},
	{"core.find_alloc_mb", "MB"},
	{"core.find_gc_cycles", "count"},
	{"core.simplify_ms", "ms"},
	{"core.decompose_ms", "ms"},
	{"core.cache_prepare_ms", "ms"},
	{"core.match_ms", "ms"},
	{"core.subtract_ms", "ms"},
	{"core.fuse_ms", "ms"},
	{"core.merge_ms", "ms"},
	{"core.find_self_ms", "ms"},
	{"core.span_coverage", "frac"},
	{"core.simplified_nodes", "count"},
	{"core.pool_subs", "count"},
	{"core.iterations", "count"},
	{"core.matches", "count"},
	{"core.cache_hit_frac", "frac"},
	{"patterns.prescreen_checks", "count"},
	{"patterns.prescreen_skip_frac", "frac"},
	{"cp.solves", "count"},
	{"cp.solve_ms", "ms"},
	{"cp.nodes", "count"},
	{"cp.propagations", "count"},
	{"cp.timeouts", "count"},
	{"cp.yield_frac", "frac"},
	{"report.bytes", "bytes"},
	{"store.gets", "count"},
	{"store.puts", "count"},
	{"store.hit_frac", "frac"},
	{"store.errors", "count"},
	{"store.get_frac", "frac"},
	{"store.put_frac", "frac"},
	{"server.queue_frac", "frac"},
	{"server.http_frac", "frac"},
	{"server.rejected", "count"},
	{"sched.steals", "count"},
	{"sched.helped", "count"},
	{"sched.expired", "count"},
	{"bench.trace_overhead_frac", "frac"},
	{"bench.program_geomean_ms", "ms"},
}

// minSpanCoverage is the share of the outside-timed core.Find wall time
// the "find" span's children must account for; below it the per-layer
// split misses too much time to be trusted and the traced run fails.
const minSpanCoverage = 0.90

// outcome is what a workload run produces before it is rendered.
type outcome struct {
	attempted, failed int
	// problems lists every failed output check; a run is correct when it
	// is empty.
	problems []string
	values   map[string]float64
}

func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// metricJSON and resultJSON are the shape of the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// result renders an outcome, failing if the workload left any metric of
// the run's kind unmeasured.
func (o *outcome) result(traced bool) (*resultJSON, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	r := &resultJSON{
		Correct:   len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricJSON{},
	}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		r.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	return r, nil
}

func main() {
	var (
		cfg      = config{root: "."}
		workload string
		traceN   int
		compare  bool
		out      string
	)
	flag.StringVar(&workload, "workload", "", "workload to run: "+workloadNames()+", or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the workload's program order and request stream")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long to measure, after set-up")
	flag.IntVar(&traceN, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.BoolVar(&compare, "compare", false, "compare two run files against BENCHMARK.json: -compare PARENT.jsonl CHANGE.jsonl")
	flag.StringVar(&out, "out", "", "also append {workload, seed, trace, result} to this JSON-lines file")
	flag.Parse()
	cfg.traced = traceN == 1

	if compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two files: PARENT.jsonl CHANGE.jsonl"))
		}
		regressed, err := runCompare(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if traceN != 0 && traceN != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, not %d", traceN))
	}
	if workload == "all" {
		if err := runAll(os.Args[1:]); err != nil {
			fatal(err)
		}
		return
	}
	w := workloadByName(workload)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q (want %s or all)", workload, workloadNames()))
	}
	fmt.Fprintf(os.Stderr, "pipebench: workload %s seed %d traced %t GOMAXPROCS %d\n",
		w.name, cfg.seed, cfg.traced, runtime.GOMAXPROCS(0))
	o, err := w.run(cfg)
	if err != nil {
		fatal(err)
	}
	for _, p := range o.problems {
		fmt.Fprintf(os.Stderr, "pipebench: check failed: %s\n", p)
	}
	res, err := o.result(cfg.traced)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	if out != "" {
		if err := appendRun(out, w.name, cfg, res); err != nil {
			fatal(err)
		}
	}
	fmt.Println(string(line))
}

// runAll re-executes this binary once per workload, so each runs in a
// fresh process with its own heap, GC state and peak RSS.
func runAll(args []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range workloads {
		childArgs := append(append([]string{}, args...), "-workload", w.name)
		fmt.Printf("== %s\n", w.name)
		cmd := exec.Command(self, childArgs...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", w.name, err))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %v", failed)
	}
	return nil
}

// recordedRun is one line of an -out file.
type recordedRun struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Trace    int         `json:"trace"`
	Result   *resultJSON `json:"result"`
}

func appendRun(path, workload string, cfg config, res *resultJSON) error {
	trace := 0
	if cfg.traced {
		trace = 1
	}
	line, err := json.Marshal(recordedRun{Workload: workload, Seed: cfg.seed, Trace: trace, Result: res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "pipebench: %v\n", err)
	os.Exit(2)
}

// progress receives the human-readable breakdowns printed beside the
// result line; the smoke test silences it.
var progress io.Writer = os.Stderr
