// Command discovery traces a Starbench benchmark, runs the iterative
// pattern finder on its dynamic dataflow graph, and reports the found
// patterns against the source listing (text or HTML, in the style of the
// paper's Figure 6 reports).
//
// Usage:
//
//	discovery -bench streamcluster -version pthreads -format text
//	discovery -bench rot-cc -format html > report.html
//	discovery -list
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"discovery/internal/core"
	"discovery/internal/ddg"
	"discovery/internal/modernize"
	"discovery/internal/obs"
	"discovery/internal/report"
	"discovery/internal/sched"
	"discovery/internal/starbench"
	"discovery/internal/trace"
)

func main() {
	var (
		benchName  = flag.String("bench", "streamcluster", "benchmark to analyze")
		version    = flag.String("version", "pthreads", "benchmark version: seq or pthreads")
		format     = flag.String("format", "summary", "output format: summary, text, html, or json")
		schedWork  = flag.Int("sched-workers", 0, "run solves on an explicit scheduler pool of this many goroutines (0 = the process default pool)")
		verify     = flag.Bool("verify", true, "re-verify matches against the unrelaxed definitions")
		extensions = flag.Bool("extensions", false, "enable the future-work pattern kinds (stencil, pipeline, tree reduction)")
		budget     = flag.Duration("budget", 0, "global wall-clock budget for pattern finding (0 = none)")
		solverBudg = flag.Duration("solver-budget", 0, "per-solve constraint solver timeout (0 = the 60s default)")
		solverStep = flag.Int64("solver-steps", 0, "deterministic per-solve step limit, nodes+propagations (0 = none)")
		noCache    = flag.Bool("no-cache", false, "disable the view-verdict solve cache (escape hatch; every solve runs)")
		cacheStats = flag.Bool("cache-stats", false, "print view cache hit/miss/skip counts to stderr")
		prescrStat = flag.Bool("prescreen-stats", false, "print prescreen check/skip counts to stderr")
		restarts   = flag.Int64("solver-restarts", 0, "Luby restart slice in solver steps, with nogood recording (0 = plain DFS)")
		check      = flag.Bool("check", false, "verify DDG structural invariants after tracing and after simplification")
		memBudget  = flag.Int64("trace-memory-budget", 0, "resident DDG arc-byte budget; larger graphs page through an unlinked spill file (0 = fully resident)")
		spillDir   = flag.String("ddg-spill-dir", "", "directory for DDG spill files (default: the system temp dir)")
		obsOn      = flag.Bool("obs", false, "record phase spans and metrics; print the phase tree to stderr")
		obsOut     = flag.String("obs-out", "", "write the observability JSON document (spans + metrics) to this file (implies -obs)")
		metrics    = flag.Bool("metrics", false, "print metrics in Prometheus text format to stderr (implies -obs)")
		pprofOut   = flag.String("pprof", "", "capture profiles around the analysis into PREFIX.cpu.pprof and PREFIX.heap.pprof")
		list       = flag.Bool("list", false, "list available benchmarks and exit")
	)
	flag.Parse()

	lookup := func(name string) *starbench.Benchmark {
		if b := starbench.ByName(name); b != nil {
			return b
		}
		for _, b := range starbench.Extended() {
			if b.Name == name {
				return b
			}
		}
		return nil
	}

	if *list {
		for _, b := range starbench.All() {
			fmt.Printf("%-14s analysis: %-28s reference: %s\n",
				b.Name, b.AnalysisDesc, b.ReferenceDesc)
		}
		for _, b := range starbench.Extended() {
			fmt.Printf("%-14s analysis: %-28s reference: %s  (extended; use -extensions)\n",
				b.Name, b.AnalysisDesc, b.ReferenceDesc)
		}
		return
	}

	b := lookup(*benchName)
	if b == nil {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q (try -list)\n", *benchName)
		os.Exit(1)
	}
	v := starbench.Version(*version)
	if v != starbench.Seq && v != starbench.Pthreads {
		fmt.Fprintf(os.Stderr, "unknown version %q (seq or pthreads)\n", *version)
		os.Exit(1)
	}

	// Observability is opt-in: with all three flags unset the recorder is
	// the no-op singleton and every output stays byte-identical to a build
	// without the obs layer.
	rec := obs.Recorder(obs.Nop)
	var collector *obs.Collector
	if *obsOn || *obsOut != "" || *metrics {
		collector = obs.NewCollector()
		rec = collector
	}
	var prof *obs.Profiler
	if *pprofOut != "" {
		p, err := obs.StartProfile(*pprofOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "profiling failed: %v\n", err)
			os.Exit(1)
		}
		prof = p
	}

	// One umbrella span covers the whole analysis, so the exported tree has
	// a single root whose duration accounts for (nearly all of) the
	// process's wall time: trace and find nest under it.
	var analyzeSpan obs.SpanID
	if rec.Enabled() {
		analyzeSpan = rec.StartSpan("analyze", 0,
			obs.Str("bench", b.Name), obs.Str("version", string(v)))
	}

	built := b.Build(v, b.Analysis)
	start := time.Now()
	tr, err := trace.RunObserved(built.Prog, rec, analyzeSpan)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracing failed: %v\n", err)
		os.Exit(1)
	}
	traceTime := time.Since(start)
	// Spill before -check so the invariant pass exercises the paged CSR —
	// the same read path the finder is about to use.
	if *memBudget > 0 {
		spillCfg := ddg.SpillConfig{Dir: *spillDir, Budget: *memBudget}
		if _, err := tr.Graph.MaybeSpill(spillCfg); err != nil {
			fmt.Fprintf(os.Stderr, "spilling traced DDG failed (continuing in core): %v\n", err)
		}
		defer tr.Graph.CloseSpill()
	}
	if *check {
		if err := tr.Graph.CheckInvariants(); err != nil {
			fmt.Fprintf(os.Stderr, "traced DDG failed invariant checking: %v\n", err)
			os.Exit(1)
		}
	}
	opts := core.Options{
		VerifyMatches: *verify, Extensions: *extensions, DisableCache: *noCache,
		Budget: *budget, SolverBudget: *solverBudg, SolverStepLimit: *solverStep,
		SolverRestartSlice: *restarts, Obs: rec, ObsParent: analyzeSpan,
		SpillBudget: *memBudget, SpillDir: *spillDir,
	}
	// -sched-workers exercises the daemon's configuration from the CLI: an
	// explicit pool of that size with the collector attached, instead of
	// the process default pool. Output is the same on either pool; the
	// flag exists to reproduce and profile the daemon's pool sizing and
	// scheduler metrics outside the server.
	if *schedWork > 0 {
		pool := sched.NewPool(*schedWork, rec)
		defer pool.Close()
		opts.Scheduler = pool
	}
	start = time.Now()
	res := core.Find(tr.Graph, opts)
	findTime := time.Since(start)
	defer res.Graph.CloseSpill()
	if rec.Enabled() {
		rec.EndSpan(analyzeSpan,
			obs.Int("patterns", int64(len(res.Patterns))))
	}
	if *check && res.Graph != nil && res.Graph != tr.Graph {
		if err := res.Graph.CheckInvariants(); err != nil {
			fmt.Fprintf(os.Stderr, "simplified DDG failed invariant checking: %v\n", err)
			os.Exit(1)
		}
	}
	// A truncated trace is a degraded run: surface it with the finder's
	// own diagnostics instead of pretending coverage was complete.
	if d := tr.Diagnostic(); d != nil {
		res.Failures = append(res.Failures, d)
	}
	if *cacheStats {
		line := report.CacheStats(res)
		if line == "" {
			line = "view cache: disabled"
		}
		fmt.Fprintln(os.Stderr, line)
	}
	if *prescrStat {
		// Unlike report.PrescreenStats, which omits a run with no censuses
		// from the summary, the flag always prints the counts.
		checks, skips := res.PrescreenStats()
		fmt.Fprintf(os.Stderr, "prescreen: %d check(s), %d solve(s) skipped\n", checks, skips)
	}

	switch *format {
	case "summary":
		fmt.Printf("%s/%s (input: %s)\n", b.Name, v, b.AnalysisDesc)
		fmt.Printf("traced %d nodes in %v; pattern finding took %v\n",
			tr.Graph.NumNodes(), traceTime.Round(time.Millisecond),
			findTime.Round(time.Millisecond))
		fmt.Print(report.Summary(res))
		if len(res.Patterns) > 0 {
			fmt.Println("modernization suggestions (paper Figure 2b):")
			for _, s := range modernize.SuggestAll(res.Graph, res.Patterns) {
				fmt.Printf("  %s\n", s)
			}
		}
		if sites := built.Prog.QuasiPatternSites(); len(sites) > 0 {
			fmt.Println("quasi-patterns (if-conversion would expose min/max reductions):")
			for _, pos := range sites {
				fmt.Printf("  - %s:%d\n", pos.File, pos.Line)
			}
		}
	case "text":
		fmt.Print(report.Text(built.Prog, res))
	case "html":
		fmt.Print(report.HTML(built.Prog, res))
	case "json":
		// -cache-stats makes the JSON "cache" block explicit even when the
		// run recorded no cache activity (e.g. under -no-cache), so asking
		// for the stats always yields them, zeroed rather than absent.
		// -prescreen-stats does the same for the "prescreen" block.
		data, err := report.JSONWith(res, report.JSONOptions{
			IncludeCacheStats:     *cacheStats,
			IncludePrescreenStats: *prescrStat,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "json export failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", data)
	default:
		fmt.Fprintf(os.Stderr, "unknown format %q\n", *format)
		os.Exit(1)
	}

	if prof != nil {
		if err := prof.Stop(); err != nil {
			fmt.Fprintf(os.Stderr, "profiling failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s, %s\n", prof.CPUPath(), prof.HeapPath())
	}
	if collector != nil {
		if *obsOn {
			fmt.Fprint(os.Stderr, report.PhaseTree(collector, 0))
		}
		if *metrics {
			fmt.Fprint(os.Stderr, report.PrometheusMetrics(collector))
		}
		if *obsOut != "" {
			data, err := report.ObservabilityJSON(collector)
			if err != nil {
				fmt.Fprintf(os.Stderr, "obs export failed: %v\n", err)
				os.Exit(1)
			}
			if err := os.WriteFile(*obsOut, append(data, '\n'), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "obs export failed: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *obsOut)
		}
	}
}
