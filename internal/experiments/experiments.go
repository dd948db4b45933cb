// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) from this reproduction:
//
//	Table 1   — the iterative pattern finding trace on the §2 example
//	Table 2   — analysis vs reference input parameters
//	Table 3   — found and missed patterns per benchmark and version
//	Figure 7  — pattern finding time by DDG size (linearity)
//	Figure 8  — portability speedups of streamcluster
//	§6.1      — accuracy of the additional patterns
//	§6.2      — phase time split and seq-vs-Pthreads DDG sizes
//	§5        — DDG simplification factor, plus the ablations of the
//	            design choices (decomposition, compaction, iteration)
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"discovery/internal/core"
	"discovery/internal/mir"
	"discovery/internal/patterns"
	"discovery/internal/sc"
	"discovery/internal/starbench"
	"discovery/internal/trace"
)

// Opts returns the finder options used by all experiments.
func Opts() core.Options {
	return core.Options{VerifyMatches: true}
}

// ---------------------------------------------------------------------------
// Table 1: the iterative trace on the motivating example.

// motivatingExample builds the paper's §2 program: nproc threads compute
// partial distance sums over n points; the main thread combines them.
func motivatingExample(n, nproc int64) *mir.Program {
	p := mir.NewProgram("streamcluster-example")
	p.DeclareStatic("points", n)
	p.DeclareStatic("hizs", nproc)
	p.DeclareStatic("out", 1)
	p.DeclareBarrier("bar", int(nproc))

	d, db := p.NewFunc("dist", "streamcluster.c", "a", "b")
	db.Assign("d", mir.FSub(mir.V("a"), mir.V("b")))
	db.Return(mir.FMul(mir.V("d"), mir.V("d")))
	db.Finish(d)

	w, wb := p.NewFunc("pkmedian", "streamcluster.c", "pid")
	per := n / nproc
	wb.Assign("k1", mir.Mul(mir.V("pid"), mir.C(per)))
	wb.Assign("k2", mir.Add(mir.V("k1"), mir.C(per)))
	wb.Assign("myhiz", mir.F(0))
	wb.For("kk", mir.V("k1"), mir.V("k2"), mir.C(1), func(b *mir.Block) {
		b.Assign("myhiz", mir.FAdd(mir.V("myhiz"),
			mir.Call("dist",
				mir.Load(mir.Idx(mir.G("points"), mir.V("kk"))),
				mir.Load(mir.Idx(mir.G("points"), mir.C(0))))))
	})
	wb.Store(mir.Idx(mir.G("hizs"), mir.V("pid")), mir.V("myhiz"))
	wb.Barrier("bar")
	wb.Finish(w)

	f, b := p.NewFunc("main", "streamcluster.c")
	b.For("i", mir.C(0), mir.C(n), mir.C(1), func(b *mir.Block) {
		b.Store(mir.Idx(mir.G("points"), mir.V("i")),
			mir.FMul(mir.I2F(mir.V("i")), mir.F(1.5)))
	})
	b.For("t", mir.C(0), mir.C(nproc), mir.C(1), func(b *mir.Block) {
		b.Spawn("h", "pkmedian", mir.V("t"))
	})
	b.For("t", mir.C(0), mir.C(nproc), mir.C(1), func(b *mir.Block) {
		b.Join(mir.Add(mir.V("t"), mir.C(1)))
	})
	b.Assign("hiz", mir.F(0))
	b.For("i", mir.C(0), mir.C(nproc), mir.C(1), func(b *mir.Block) {
		b.Assign("hiz", mir.FAdd(mir.V("hiz"), mir.Load(mir.Idx(mir.G("hizs"), mir.V("i")))))
	})
	b.Store(mir.Idx(mir.G("out"), mir.C(0)), mir.FMul(mir.V("hiz"), mir.F(0.5)))
	b.Finish(f)
	p.SetEntry("main")
	return p.MustValidate()
}

// Table1 runs the motivating example (4 points, 2 threads) and returns the
// per-iteration match trace plus the final merged patterns.
func Table1() (string, error) {
	prog := motivatingExample(4, 2)
	tr, err := trace.Run(prog)
	if err != nil {
		return "", err
	}
	res := core.Find(tr.Graph, Opts())
	var sb strings.Builder
	sb.WriteString("Table 1: iterative pattern finding on the motivating example\n")
	sb.WriteString("(4 points, 2 threads; compare paper Table 1)\n\n")
	byIter := map[int][]core.Match{}
	maxIter := 0
	for _, m := range res.Matches {
		byIter[m.Iteration] = append(byIter[m.Iteration], m)
		if m.Iteration > maxIter {
			maxIter = m.Iteration
		}
	}
	for it := 1; it <= maxIter; it++ {
		fmt.Fprintf(&sb, "it. %d:\n", it)
		for _, m := range byIter[it] {
			fmt.Fprintf(&sb, "  match  %-22s on %-8s (%d nodes)\n",
				m.Pattern.Kind, m.Sub.Kind(), m.Pattern.Nodes().Len())
		}
		if len(byIter[it]) == 0 {
			sb.WriteString("  (no matches; fixpoint reached)\n")
		}
	}
	sb.WriteString("merge:\n")
	for _, p := range res.Patterns {
		fmt.Fprintf(&sb, "  report %-22s over %d nodes (%s)\n",
			p.Kind, p.Nodes().Len(), p.OpsSummary(res.Graph))
	}
	return sb.String(), nil
}

// ---------------------------------------------------------------------------
// Table 2: input parameters.

// Table2 renders the analysis and reference input parameters.
func Table2() string {
	var sb strings.Builder
	sb.WriteString("Table 2: input parameters for each Starbench benchmark\n\n")
	fmt.Fprintf(&sb, "%-14s  %-10s  %s\n", "benchmark", "input", "parameters")
	for _, b := range starbench.All() {
		fmt.Fprintf(&sb, "%-14s  %-10s  %s   [%s]\n", b.Name, "analysis", b.AnalysisDesc, b.Analysis)
		fmt.Fprintf(&sb, "%-14s  %-10s  %s\n", "", "reference", b.ReferenceDesc)
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Table 3: effectiveness.

// Table3Row is one benchmark/version row.
type Table3Row struct {
	Bench   string
	Version starbench.Version
	// FoundByIteration[it] lists the labels found in iteration it.
	FoundByIteration map[int][]string
	Missed           []string
	FoundCount       int
	ExpectedCount    int
	Additional       int
	// Interrupted reports a global-budget expiry. It is false in
	// unbudgeted runs, keeping the default table byte-identical.
	Interrupted bool
}

// Table3Result is the whole experiment.
type Table3Result struct {
	Rows []Table3Row
	// Totals.
	Found, Expected, Missed int
	// IterationProfile[it] counts expected patterns found in iteration it.
	IterationProfile map[int]int
	// InterruptedRuns totals the resource-limited outcomes across all rows
	// (the paper's Table 3 reports the analogous resource-limited solver
	// runs).
	InterruptedRuns int
	// SolverStats rolls up matcher effort across all runs.
	SolverStats map[patterns.Kind]patterns.KindStats
	// Results keeps the raw per-run results for downstream experiments.
	Results []*starbench.BenchResult
}

// RunTable3 evaluates every benchmark and version.
func RunTable3(opts core.Options) (*Table3Result, error) {
	out := &Table3Result{IterationProfile: map[int]int{}}
	for _, b := range starbench.All() {
		for _, v := range starbench.Versions() {
			res, err := starbench.Evaluate(b, v, opts)
			if err != nil {
				return nil, err
			}
			row := Table3Row{
				Bench: b.Name, Version: v,
				FoundByIteration: map[int][]string{},
			}
			for _, er := range res.Expectations {
				if er.Missed {
					row.Missed = append(row.Missed, er.Label)
					out.Missed++
					continue
				}
				row.ExpectedCount++
				out.Expected++
				if er.Found {
					row.FoundCount++
					out.Found++
					out.IterationProfile[er.FoundIteration]++
					row.FoundByIteration[er.FoundIteration] =
						append(row.FoundByIteration[er.FoundIteration], er.Label)
				}
			}
			row.Additional = len(res.Additional)
			row.Interrupted = res.Finder.Interrupted
			if row.Interrupted {
				out.InterruptedRuns++
			}
			for kind, ks := range res.Finder.SolverStats {
				if out.SolverStats == nil {
					out.SolverStats = map[patterns.Kind]patterns.KindStats{}
				}
				cur := out.SolverStats[kind]
				cur.Add(ks)
				out.SolverStats[kind] = cur
			}
			out.Rows = append(out.Rows, row)
			out.Results = append(out.Results, res)
		}
	}
	return out, nil
}

// Text renders the Table 3 experiment.
func (t *Table3Result) Text() string {
	var sb strings.Builder
	sb.WriteString("Table 3: found and missed parallel patterns in Starbench\n")
	sb.WriteString("(m=map, cm=conditional, fm=fused, r=reduction, mr=map-reduction)\n\n")
	fmt.Fprintf(&sb, "%-14s %-9s  %-18s %-12s %-8s  %s\n",
		"bench.", "version", "it.1", "it.2", "it.3", "missed")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-14s %-9s  %-18s %-12s %-8s  %s\n",
			r.Bench, r.Version,
			strings.Join(r.FoundByIteration[1], ","),
			strings.Join(r.FoundByIteration[2], ","),
			strings.Join(r.FoundByIteration[3], ","),
			strings.Join(r.Missed, ","))
	}
	fmt.Fprintf(&sb, "\nfound %d of %d expected patterns (%.0f%%); %d missed as in the paper\n",
		t.Found, t.Expected+t.Missed,
		100*float64(t.Found)/float64(t.Expected+t.Missed), t.Missed)
	its := make([]int, 0, len(t.IterationProfile))
	for it := range t.IterationProfile {
		its = append(its, it)
	}
	sort.Ints(its)
	for _, it := range its {
		fmt.Fprintf(&sb, "  %d found in iteration %d\n", t.IterationProfile[it], it)
	}
	// Resource-limit rollup, rendered only when a budget actually cut
	// something short so unbudgeted tables stay byte-identical.
	if t.InterruptedRuns > 0 {
		fmt.Fprintf(&sb, "\nresource-limited: %d run(s) interrupted\n", t.InterruptedRuns)
		for _, r := range t.Rows {
			if r.Interrupted {
				fmt.Fprintf(&sb, "  %-14s %-9s  (interrupted)\n", r.Bench, r.Version)
			}
		}
		kinds := make([]patterns.Kind, 0, len(t.SolverStats))
		for k := range t.SolverStats {
			kinds = append(kinds, k)
		}
		sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
		for _, k := range kinds {
			ks := t.SolverStats[k]
			fmt.Fprintf(&sb, "  matcher %-22s %d run(s), %d pattern(s)\n",
				k, ks.Runs, ks.Solutions)
		}
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// §6.1 accuracy.

// AccuracyResult is the additional-pattern classification.
type AccuracyResult struct {
	Additional, True, False int
	FalseWhere              []string
}

// RunAccuracy classifies every additional pattern.
func RunAccuracy(opts core.Options) (*AccuracyResult, error) {
	out := &AccuracyResult{}
	for _, b := range starbench.All() {
		for _, v := range starbench.Versions() {
			res, err := starbench.Evaluate(b, v, opts)
			if err != nil {
				return nil, err
			}
			acc, err := res.ClassifyAdditional(opts)
			if err != nil {
				return nil, err
			}
			out.Additional += len(res.Additional)
			out.True += acc.True
			out.False += acc.False
			for range acc.FalsePatterns {
				out.FalseWhere = append(out.FalseWhere, fmt.Sprintf("%s/%s", b.Name, v))
			}
		}
	}
	return out, nil
}

// Text renders the accuracy experiment.
func (a *AccuracyResult) Text() string {
	var sb strings.Builder
	sb.WriteString("Accuracy of additional patterns (paper §6.1)\n\n")
	fmt.Fprintf(&sb, "additional patterns reported: %d\n", a.Additional)
	fmt.Fprintf(&sb, "  true patterns (apply to other inputs):  %d\n", a.True)
	fmt.Fprintf(&sb, "  false patterns (input-specific):        %d  %v\n", a.False, a.FalseWhere)
	if a.Additional > 0 {
		fmt.Fprintf(&sb, "accuracy: %.0f%% of reported additional patterns are true\n",
			100*float64(a.True)/float64(a.Additional))
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Figure 7: scalability.

// Figure7Row is one measurement point.
type Figure7Row struct {
	Bench    string
	Version  starbench.Version
	Scale    int
	DDGNodes int
	Total    time.Duration
	Tracing  time.Duration
}

// Figure7Result is the scalability experiment.
type Figure7Result struct {
	Rows []Figure7Row
	// Slope is the fitted log-log slope of total time vs DDG size
	// (1.0 = linear scaling, as the paper reports).
	Slope float64
}

// scaleParams grows a benchmark's analysis input by the given factor.
func scaleParams(b *starbench.Benchmark, factor int64) starbench.Params {
	p := starbench.Params{}
	for k, v := range b.Analysis {
		p[k] = v
	}
	switch b.Name {
	case "c-ray", "ray-rot":
		p["w"] = p["w"] * factor
	case "md5":
		p["nbuf"] = p["nbuf"] * factor
	case "rgbyuv", "rotate", "rot-cc":
		p["w"] = p["w"] * factor
	case "kmeans", "streamcluster":
		p["n"] = p["n"] * factor
	}
	return p
}

// RunFigure7 measures pattern finding time across a ladder of input
// scales. Factors are per-benchmark powers of two.
func RunFigure7(opts core.Options, factors []int64) (*Figure7Result, error) {
	if len(factors) == 0 {
		factors = []int64{1, 2, 4}
	}
	out := &Figure7Result{}
	for _, b := range starbench.All() {
		for _, v := range starbench.Versions() {
			for _, f := range factors {
				par := scaleParams(b, f)
				built := b.Build(v, par)
				start := time.Now()
				tr, err := trace.Run(built.Prog)
				if err != nil {
					return nil, fmt.Errorf("%s/%s x%d: %w", b.Name, v, f, err)
				}
				tracing := time.Since(start)
				core.Find(tr.Graph, opts)
				out.Rows = append(out.Rows, Figure7Row{
					Bench: b.Name, Version: v, Scale: int(f),
					DDGNodes: tr.Graph.NumNodes(),
					Total:    time.Since(start),
					Tracing:  tracing,
				})
			}
		}
	}
	out.Slope = fitLogLogSlope(out.Rows)
	return out, nil
}

// fitLogLogSlope least-squares fits log(time) against log(size).
func fitLogLogSlope(rows []Figure7Row) float64 {
	var xs, ys []float64
	for _, r := range rows {
		if r.DDGNodes > 0 && r.Total > 0 {
			xs = append(xs, math.Log(float64(r.DDGNodes)))
			ys = append(ys, math.Log(float64(r.Total)))
		}
	}
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

// Text renders the scalability experiment.
func (f *Figure7Result) Text() string {
	var sb strings.Builder
	sb.WriteString("Figure 7: pattern finding time by DDG size\n\n")
	fmt.Fprintf(&sb, "%-14s %-9s %-6s %10s %12s %12s\n",
		"bench.", "version", "scale", "DDG nodes", "total", "tracing")
	for _, r := range f.Rows {
		fmt.Fprintf(&sb, "%-14s %-9s x%-5d %10d %12v %12v\n",
			r.Bench, r.Version, r.Scale, r.DDGNodes,
			r.Total.Round(time.Millisecond), r.Tracing.Round(time.Millisecond))
	}
	fmt.Fprintf(&sb, "\nfitted log-log slope of time vs size: %.2f "+
		"(1.0 = linear, the paper's finding; O(n log n) fits ~1.1)\n", f.Slope)
	return sb.String()
}

// ---------------------------------------------------------------------------
// §5 simplification factor.

// SimplifyResult reports the DDG reduction achieved by simplification.
type SimplifyResult struct {
	// PerBench maps benchmark/version to its reduction factor.
	PerBench map[string]float64
	// Average is the mean factor (the paper reports 3.82x).
	Average float64
}

// RunSimplify measures the simplification factor on every benchmark.
func RunSimplify(opts core.Options) (*SimplifyResult, error) {
	out := &SimplifyResult{PerBench: map[string]float64{}}
	var sum float64
	var n int
	for _, b := range starbench.All() {
		for _, v := range starbench.Versions() {
			res, err := starbench.Evaluate(b, v, opts)
			if err != nil {
				return nil, err
			}
			f := float64(res.DDGNodes) / float64(res.Finder.SimplifiedNodes)
			out.PerBench[fmt.Sprintf("%s/%s", b.Name, v)] = f
			sum += f
			n++
		}
	}
	out.Average = sum / float64(n)
	return out, nil
}

// Text renders the simplification experiment.
func (s *SimplifyResult) Text() string {
	var sb strings.Builder
	sb.WriteString("DDG simplification factor (paper §5 reports 3.82x average)\n\n")
	keys := make([]string, 0, len(s.PerBench))
	for k := range s.PerBench {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "  %-26s %.2fx\n", k, s.PerBench[k])
	}
	fmt.Fprintf(&sb, "average: %.2fx\n", s.Average)
	return sb.String()
}

// ---------------------------------------------------------------------------
// Figure 8: portability.

// Figure8Text renders the portability study.
func Figure8Text() string {
	var sb strings.Builder
	sb.WriteString("Figure 8: speedup of streamcluster variants over sequential\n")
	sb.WriteString("execution on the CPU-centric machine (reference input)\n\n")
	for _, r := range sc.Figure8() {
		fmt.Fprintf(&sb, "%-50s %-30s %6.1fx  (%s)\n", r.Arch, r.Impl, r.Speedup, r.Backend)
	}
	sb.WriteString("\npaper: CPU-centric 10x / 9.6x / 2.4x; GPU-centric 4.3x / 15.6x / 7.1x\n")
	return sb.String()
}

// ---------------------------------------------------------------------------
// Ablations.

// AblationRow is the outcome of one ablation configuration.
type AblationRow struct {
	Name     string
	Found    int // expected patterns found (of the benchmark's findable)
	Findable int
	Skipped  int // views skipped for exceeding the budget
}

// RunAblations re-runs streamcluster (Pthreads) with each design choice
// disabled, demonstrating why the finder needs them (paper §5).
func RunAblations() ([]AblationRow, error) {
	b := starbench.ByName("streamcluster")
	configs := []struct {
		name string
		opts core.Options
	}{
		{"full pipeline", core.Options{VerifyMatches: true}},
		{"no iteration (single match pass)", core.Options{DisableIterate: true}},
		{"no compaction", core.Options{DisableCompact: true, MaxViewGroups: 512}},
		{"no decomposition", core.Options{DisableDecompose: true, MaxViewGroups: 256}},
		{"no simplification", core.Options{DisableSimplify: true}},
	}
	var rows []AblationRow
	for _, c := range configs {
		res, err := starbench.Evaluate(b, starbench.Pthreads, c.opts)
		if err != nil {
			return nil, err
		}
		found, total := res.FoundCount()
		rows = append(rows, AblationRow{
			Name: c.name, Found: found, Findable: total,
			Skipped: res.Finder.SkippedViews,
		})
	}
	return rows, nil
}

// AblationsText renders the ablation study.
func AblationsText(rows []AblationRow) string {
	var sb strings.Builder
	sb.WriteString("Ablations on streamcluster/pthreads (paper §5 design choices)\n\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-36s found %d/%d expected patterns", r.Name, r.Found, r.Findable)
		if r.Skipped > 0 {
			fmt.Fprintf(&sb, " (%d views over budget, the stand-in for the paper's memory exhaustion)", r.Skipped)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
