package experiments

// §6.2 phase split and DDG growth, sourced from observability spans. Each
// benchmark version is traced and analyzed under its own obs.Collector
// and the numbers are read back from the span tree, so the fractions and
// the per-benchmark table are exactly what `discovery -obs` reports — one
// source of truth for "where did the time go".

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"discovery/internal/core"
	"discovery/internal/obs"
	"discovery/internal/starbench"
	"discovery/internal/trace"
)

// PhaseRow is one benchmark version's phase split, in span wall time.
type PhaseRow struct {
	Bench   string
	Version starbench.Version
	// Nodes is the traced DDG size before simplification.
	Nodes int
	// Trace is the "trace" span's wall time; Phases maps each child phase
	// of the "find" span (simplify, decompose, match, ...) to the summed
	// wall time of its spans (iterations repeat match/subtract/fuse).
	Trace  time.Duration
	Phases map[string]time.Duration
	// Total is the root "find" span's wall time plus Trace.
	Total time.Duration
}

// matching is the row's matcher time: the fixpoint's match phases plus
// the pipeline detection pass, which runs matchers too.
func (r PhaseRow) matching() time.Duration {
	return r.Phases["match"] + r.Phases["pipelines"]
}

// PhasesResult captures the time split, the seq-vs-Pthreads comparisons
// and the per-benchmark rows they are computed from.
type PhasesResult struct {
	TracingFraction  float64
	MatchingFraction float64
	OtherFraction    float64
	// DDGGrowth is the average Pthreads/sequential DDG size ratio.
	DDGGrowth float64
	// TimeGrowth is the average Pthreads/sequential analysis time ratio.
	TimeGrowth float64
	// Rows holds every benchmark in both versions, sequential first.
	Rows []PhaseRow
}

// phaseColumns is the display order; phases not listed (cache-prepare,
// pipelines) fold into "other" to keep the table narrow.
var phaseColumns = []string{"simplify", "decompose", "match", "subtract", "fuse", "merge"}

// RunPhases traces and analyzes every Starbench benchmark in both
// versions and measures where the analysis time goes. Every run records
// into a collector of its own (replacing opts.Obs), so the spans read back
// are that run's alone.
func RunPhases(opts core.Options) (*PhasesResult, error) {
	res := &PhasesResult{}
	var growthN, growthT float64
	for _, b := range starbench.All() {
		seq, err := phaseRow(b, starbench.Seq, opts)
		if err != nil {
			return nil, err
		}
		par, err := phaseRow(b, starbench.Pthreads, opts)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, seq, par)
		growthN += float64(par.Nodes) / float64(seq.Nodes)
		growthT += float64(par.Total) / float64(seq.Total)
	}
	var tracing, matching float64
	for _, row := range res.Rows {
		tot := float64(row.Total)
		tracing += float64(row.Trace) / tot
		matching += float64(row.matching()) / tot
	}
	runs, n := float64(len(res.Rows)), float64(len(res.Rows)/2)
	res.TracingFraction = tracing / runs
	res.MatchingFraction = matching / runs
	res.OtherFraction = 1 - res.TracingFraction - res.MatchingFraction
	res.DDGGrowth = growthN / n
	res.TimeGrowth = growthT / n
	return res, nil
}

func phaseRow(b *starbench.Benchmark, v starbench.Version, opts core.Options) (PhaseRow, error) {
	c := obs.NewCollector()
	built := b.Build(v, b.Analysis)
	tr, err := trace.RunObserved(built.Prog, c, 0)
	if err != nil {
		return PhaseRow{}, fmt.Errorf("experiments: tracing %s/%s: %w", b.Name, v, err)
	}
	opts.Obs = c
	core.Find(tr.Graph, opts)

	row := PhaseRow{Bench: b.Name, Version: v, Nodes: tr.Graph.NumNodes(), Phases: map[string]time.Duration{}}
	for _, root := range obs.Tree(c) {
		switch root.Span.Name {
		case "trace":
			row.Trace = root.Span.Wall
			row.Total += root.Span.Wall
		case "find":
			row.Total += root.Span.Wall
			accumulatePhases(root, row.Phases)
		}
	}
	return row, nil
}

// accumulatePhases sums the find span's phase children by name, one level
// of "iteration" spans unwrapped so repeated match/subtract/fuse phases
// aggregate across iterations.
func accumulatePhases(find *obs.TreeNode, into map[string]time.Duration) {
	for _, child := range find.Children {
		if child.Span.Name == "iteration" {
			for _, phase := range child.Children {
				into[phase.Span.Name] += phase.Span.Wall
			}
			continue
		}
		into[child.Span.Name] += child.Span.Wall
	}
}

// Text renders the §6.2 summary followed by the per-benchmark table.
func (p *PhasesResult) Text() string {
	var sb strings.Builder
	sb.WriteString("Phase time split and DDG growth (paper §6.2)\n\n")
	fmt.Fprintf(&sb, "tracing:      %5.1f%% of total time (paper: ~1%%)\n", 100*p.TracingFraction)
	fmt.Fprintf(&sb, "matching:     %5.1f%% of total time (paper: ~48%%)\n", 100*p.MatchingFraction)
	fmt.Fprintf(&sb, "other phases: %5.1f%% of total time (paper: ~51%%)\n", 100*p.OtherFraction)
	fmt.Fprintf(&sb, "Pthreads DDGs %.0f%% larger than sequential (paper: 15%%)\n",
		100*(p.DDGGrowth-1))
	fmt.Fprintf(&sb, "Pthreads finding %.0f%% slower than sequential (paper: 28%%)\n",
		100*(p.TimeGrowth-1))

	sb.WriteString("\nPer-benchmark phase times (from observability spans)\n\n")
	fmt.Fprintf(&sb, "%-14s %-8s %9s", "benchmark", "version", "trace")
	for _, ph := range phaseColumns {
		fmt.Fprintf(&sb, " %9s", ph)
	}
	fmt.Fprintf(&sb, " %9s %9s\n", "other", "total")
	for _, row := range p.Rows {
		fmt.Fprintf(&sb, "%-14s %-8s %9s", row.Bench, row.Version, fmtMS(row.Trace))
		listed := map[string]bool{}
		for _, ph := range phaseColumns {
			listed[ph] = true
			fmt.Fprintf(&sb, " %9s", fmtMS(row.Phases[ph]))
		}
		var other time.Duration
		names := make([]string, 0, len(row.Phases))
		for name := range row.Phases {
			names = append(names, name)
		}
		sort.Strings(names) // deterministic accumulation order
		for _, name := range names {
			if !listed[name] {
				other += row.Phases[name]
			}
		}
		fmt.Fprintf(&sb, " %9s %9s\n", fmtMS(other), fmtMS(row.Total))
	}
	return sb.String()
}

// fmtMS renders a duration in fractional milliseconds.
func fmtMS(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
}
