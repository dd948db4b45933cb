package discovery

// One benchmark per table and figure of the paper's evaluation (§6). Each
// regenerates its experiment and reports the headline quantities as
// benchmark metrics; run with -v to get the full text tables:
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkTable3 -v
//
// The cmd/experiments binary prints the same tables interactively.

import (
	"testing"

	"discovery/internal/core"
	"discovery/internal/ddg"
	"discovery/internal/experiments"
	"discovery/internal/sc"
	"discovery/internal/starbench"
	"discovery/internal/trace"
)

func benchOpts() core.Options {
	return core.Options{}
}

// BenchmarkTable1_IterativeTrace regenerates Table 1: the iterative
// pattern finding trace on the §2 motivating example.
func BenchmarkTable1_IterativeTrace(b *testing.B) {
	var text string
	for i := 0; i < b.N; i++ {
		var err error
		text, err = experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
	}
	if testing.Verbose() {
		b.Log("\n" + text)
	}
}

// BenchmarkTable3_Effectiveness regenerates Table 3: found and missed
// patterns across the Starbench suite. Metrics: expected patterns found
// (paper: 36) and missed as expected (paper: 6).
func BenchmarkTable3_Effectiveness(b *testing.B) {
	var res *experiments.Table3Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunTable3(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Found), "found")
	b.ReportMetric(float64(res.Missed), "missed")
	b.ReportMetric(float64(res.IterationProfile[1]), "it1")
	b.ReportMetric(float64(res.IterationProfile[2]), "it2")
	b.ReportMetric(float64(res.IterationProfile[3]), "it3")
	if testing.Verbose() {
		b.Log("\n" + res.Text())
	}
}

// BenchmarkAccuracy_AdditionalPatterns regenerates the §6.1 accuracy
// study. Metrics: true and false additional patterns (paper: 48 and 2).
func BenchmarkAccuracy_AdditionalPatterns(b *testing.B) {
	var res *experiments.AccuracyResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunAccuracy(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.True), "true")
	b.ReportMetric(float64(res.False), "false")
	if testing.Verbose() {
		b.Log("\n" + res.Text())
	}
}

// BenchmarkFigure7_Scalability regenerates Figure 7: pattern finding time
// by DDG size. Metric: the fitted log-log slope (paper: linear, 1.0).
func BenchmarkFigure7_Scalability(b *testing.B) {
	var res *experiments.Figure7Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFigure7(benchOpts(), []int64{1, 2, 4}, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Slope, "loglog-slope")
	if testing.Verbose() {
		b.Log("\n" + res.Text())
	}
}

// BenchmarkFigure7_PerBenchmark times tracing + finding per benchmark at
// the analysis inputs — the individual points of Figure 7.
func BenchmarkFigure7_PerBenchmark(b *testing.B) {
	for _, bench := range starbench.All() {
		for _, v := range starbench.Versions() {
			bench, v := bench, v
			b.Run(bench.Name+"/"+string(v), func(b *testing.B) {
				var nodes int
				for i := 0; i < b.N; i++ {
					built := bench.Build(v, bench.Analysis)
					tr, err := trace.Run(built.Prog)
					if err != nil {
						b.Fatal(err)
					}
					core.Find(tr.Graph, benchOpts())
					nodes = tr.Graph.NumNodes()
				}
				b.ReportMetric(float64(nodes), "ddg-nodes")
			})
		}
	}
}

// BenchmarkFigure8_Portability regenerates Figure 8: the streamcluster
// portability study. Metrics: the six speedups.
func BenchmarkFigure8_Portability(b *testing.B) {
	var rows []sc.Figure8Row
	for i := 0; i < b.N; i++ {
		rows = sc.Figure8()
	}
	for _, r := range rows {
		name := "cpu-centric/"
		if r.Arch[0] == 'G' {
			name = "gpu-centric/"
		}
		switch r.Impl {
		case "Starbench legacy (Pthreads)":
			name += "legacy-x"
		case "Starbench modernized (SkePU)":
			name += "modernized-x"
		default:
			name += "rodinia-x"
		}
		b.ReportMetric(r.Speedup, name)
	}
	if testing.Verbose() {
		b.Log("\n" + experiments.Figure8Text())
	}
}

// BenchmarkFigure8_RealExecution measures the actual host-parallel
// execution of the streamcluster variants (correctness companion to the
// simulated Figure 8).
func BenchmarkFigure8_RealExecution(b *testing.B) {
	pts := sc.GeneratePoints(20000, 32)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sc.Sequential(pts)
		}
	})
	b.Run("legacy-4threads", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sc.Legacy(pts, 4)
		}
	})
}

// BenchmarkPhases regenerates the §6.2 phase split. Metrics: tracing and
// matching fractions of total analysis time.
func BenchmarkPhases(b *testing.B) {
	var res *experiments.PhasesResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunPhases(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.TracingFraction, "tracing-%")
	b.ReportMetric(100*res.MatchingFraction, "matching-%")
	b.ReportMetric(100*(res.DDGGrowth-1), "pthreads-ddg-growth-%")
	if testing.Verbose() {
		b.Log("\n" + res.Text())
	}
}

// BenchmarkSimplify regenerates the §5 simplification factor (paper:
// 3.82x average).
func BenchmarkSimplify(b *testing.B) {
	var res *experiments.SimplifyResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunSimplify(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Average, "avg-factor-x")
	if testing.Verbose() {
		b.Log("\n" + res.Text())
	}
}

// BenchmarkAblation_DesignChoices regenerates the §5 ablations: how many
// expected patterns survive with each design choice disabled.
func BenchmarkAblation_DesignChoices(b *testing.B) {
	var rows []experiments.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunAblations()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Name {
		case "full pipeline":
			b.ReportMetric(float64(r.Found), "full-found")
		case "no iteration (single match pass)":
			b.ReportMetric(float64(r.Found), "noiter-found")
		case "no decomposition":
			b.ReportMetric(float64(r.Skipped), "nodecomp-skipped")
		}
	}
	if testing.Verbose() {
		b.Log("\n" + experiments.AblationsText(rows))
	}
}

// BenchmarkTable2_Inputs renders Table 2 (trivially fast; included so
// every table has a regeneration target).
func BenchmarkTable2_Inputs(b *testing.B) {
	var text string
	for i := 0; i < b.N; i++ {
		text = experiments.Table2()
	}
	if testing.Verbose() {
		b.Log("\n" + text)
	}
}

// BenchmarkFindMD5Wide and BenchmarkFindMD5Long time one cold core.Find on
// the two md5 shapes of the pipebench workloads (sequential md5; tracing
// is done once, outside the timer), with allocations reported. Profile
// Find on either without the bench module:
//
//	go test -run '^$' -bench FindMD5Wide -cpuprofile cpu.pprof -memprofile mem.pprof
//
// md5-wide is 64 buffers of 4 words: 8,771 sub-DDGs, so the match,
// subtract and fuse sweeps dominate. md5-long is 2 buffers of 65,536
// words: a few huge sub-DDGs, matched under a raised view-size gate, with
// every graph fully resident. BenchmarkFindMD5LongPaged runs the same
// Find as the pipebench md5-long workload does, paged.
func BenchmarkFindMD5Wide(b *testing.B) {
	benchFindMD5(b, 64, 4, core.Options{})
}

func BenchmarkFindMD5Long(b *testing.B) {
	benchFindMD5(b, 2, 65536, core.Options{MaxViewGroups: 1 << 20})
}

// BenchmarkFindMD5LongPaged spills the traced md5-long graph under the
// pipebench 2 MiB arc budget before timing, and Find spills the
// simplified graph under the same budget, so every adjacency read goes
// through the pager. The traced graph is spilled once and stays spilled
// across iterations; each iteration's simplified graph is spilled afresh.
func BenchmarkFindMD5LongPaged(b *testing.B) {
	benchFindMD5(b, 2, 65536, core.Options{MaxViewGroups: 1 << 20, SpillBudget: 2 << 20, SpillDir: b.TempDir()})
}

func benchFindMD5(b *testing.B, nbuf, bufwords int64, opts core.Options) {
	bench := starbench.MD5()
	built := bench.Build(starbench.Seq, starbench.Params{"nbuf": nbuf, "bufwords": bufwords, "nproc": 2})
	tr, err := trace.Run(built.Prog)
	if err != nil {
		b.Fatal(err)
	}
	if opts.SpillBudget > 0 {
		if _, err := tr.Graph.MaybeSpill(ddg.SpillConfig{Dir: opts.SpillDir, Budget: opts.SpillBudget}); err != nil {
			b.Fatal(err)
		}
		defer tr.Graph.CloseSpill()
	}
	b.ReportAllocs()
	b.ResetTimer()
	var res *core.Result
	for i := 0; i < b.N; i++ {
		if res != nil && res.Graph != tr.Graph {
			res.Graph.CloseSpill()
		}
		res = core.Find(tr.Graph, opts)
	}
	b.StopTimer()
	if res.Graph != tr.Graph {
		defer res.Graph.CloseSpill()
	}
	if res.Degraded() {
		b.Fatalf("Find degraded: %+v", res.Failures)
	}
	b.ReportMetric(float64(len(res.Patterns)), "patterns")
}
