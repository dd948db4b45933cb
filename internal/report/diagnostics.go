package report

// Diagnostics rendering and the machine-readable summary. The paper's
// evaluation reports which solver runs were resource-limited (Table 3);
// this file surfaces the equivalent for a finder run: whether the global
// budget interrupted it, how many views the size gate skipped, and the
// per-kind matcher effort rollup. The text section renders only for
// degraded runs so default (unbudgeted) outputs stay byte-for-byte what
// they were before budgets existed.

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"discovery/internal/core"
	"discovery/internal/patterns"
)

// Diagnostics renders the resource-limit section of a result: why the
// pattern set is a lower bound, and what the matchers spent. Returns "" for
// a run that no bound cut short.
func Diagnostics(res *core.Result) string {
	if !res.Degraded() {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("resource limits hit; the pattern set is a lower bound:\n")
	if res.Interrupted {
		sb.WriteString("  - interrupted: global budget or context expired before the fixpoint\n")
	}
	if res.SkippedViews > 0 {
		fmt.Fprintf(&sb, "  - %d view(s) skipped for exceeding the view size limit\n",
			res.SkippedViews)
	}
	if res.PoolLimited {
		sb.WriteString("  - sub-DDG pool hit its size limit; some subtractions/fusions dropped\n")
	}
	for _, f := range res.Failures {
		fmt.Fprintf(&sb, "  - contained failure: %v\n", f)
	}
	if line := PrescreenStats(res); line != "" {
		sb.WriteString("  " + line + "\n")
	}
	sb.WriteString(solverEffort(res))
	return sb.String()
}

// PrescreenStats renders a one-line structural-prescreen summary ("" when
// the run ran no prescreen checks, e.g. every view was over the size gate
// or the budget ran out before matching).
func PrescreenStats(res *core.Result) string {
	checks, skips := res.PrescreenStats()
	if checks == 0 {
		return ""
	}
	return fmt.Sprintf("prescreen: %d check(s), %d solve(s) skipped", checks, skips)
}

// effortBooked reports whether a kind's tally holds anything the reports
// show: reduction matcher runs or cache outcomes. A kind that only the
// prescreen answered has none, and leaving it out keeps the reports the
// same with the prescreen on or off.
func effortBooked(ks patterns.KindStats) bool {
	return ks.Runs > 0 || ks.CacheHits > 0 || ks.CacheMisses > 0
}

// solverEffort renders the per-kind matcher rollup lines.
func solverEffort(res *core.Result) string {
	var kinds []patterns.Kind
	for k, ks := range res.SolverStats {
		if effortBooked(ks) {
			kinds = append(kinds, k)
		}
	}
	if len(kinds) == 0 {
		return ""
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	var sb strings.Builder
	sb.WriteString("matcher effort per pattern kind:\n")
	for _, k := range kinds {
		ks := res.SolverStats[k]
		fmt.Fprintf(&sb, "  %-22s %d run(s), %d pattern(s) in %v\n",
			k, ks.Runs, ks.Solutions, ks.Elapsed.Round(time.Millisecond))
	}
	return sb.String()
}

// PatternJSON is one reported pattern in the machine-readable summary.
type PatternJSON struct {
	Kind  string `json:"kind"`
	Nodes int    `json:"nodes"`
	Ops   string `json:"ops"`
}

// KindStatsJSON is the matcher effort attributed to one pattern kind:
// reduction matcher runs past the census gate, the patterns they returned
// ("solutions") and their wall time, plus the kind's cache outcomes.
type KindStatsJSON struct {
	Runs        int   `json:"runs"`
	Solutions   int64 `json:"solutions"`
	ElapsedMS   int64 `json:"elapsed_ms"`
	CacheHits   int   `json:"cache_hits,omitempty"`
	CacheMisses int   `json:"cache_misses,omitempty"`
}

// CacheJSON is the view-cache rollup across all pattern kinds.
type CacheJSON struct {
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
}

// PrescreenJSON is the structural-prescreen rollup: census runs and the
// solves they answered without a matcher run.
type PrescreenJSON struct {
	Checks int `json:"checks"`
	Skips  int `json:"skips"`
}

// FailureJSON is one contained failure (a recovered panic or typed error)
// in the machine-readable summary.
type FailureJSON struct {
	Stage   string `json:"stage"`
	Kind    string `json:"kind"`
	Message string `json:"message"`
}

// DiagnosticsJSON describes the resource-limit outcome of a run.
type DiagnosticsJSON struct {
	Degraded     bool                     `json:"degraded"`
	Interrupted  bool                     `json:"interrupted"`
	SkippedViews int                      `json:"skipped_views"`
	PoolLimited  bool                     `json:"pool_limited"`
	Failures     []FailureJSON            `json:"failures,omitempty"`
	Solver       map[string]KindStatsJSON `json:"solver,omitempty"`
	Cache        *CacheJSON               `json:"cache,omitempty"`
	// Prescreen is emitted only on request (IncludePrescreenStats): the
	// prescreen answers solves on every default run, so an unconditional
	// block would churn every existing consumer's output.
	Prescreen *PrescreenJSON `json:"prescreen,omitempty"`
}

// SummaryJSON is the machine-readable counterpart of Summary.
type SummaryJSON struct {
	OriginalNodes   int             `json:"original_nodes"`
	SimplifiedNodes int             `json:"simplified_nodes"`
	Iterations      int             `json:"iterations"`
	PoolSize        int             `json:"pool_size"`
	Matches         int             `json:"matches"`
	Patterns        []PatternJSON   `json:"patterns"`
	Diagnostics     DiagnosticsJSON `json:"diagnostics"`
}

// JSONOptions adjusts what JSONWith includes beyond the defaults.
type JSONOptions struct {
	// IncludePrescreenStats adds the diagnostics "prescreen" block
	// (checks and skipped solves). Off by default to keep existing
	// outputs byte-identical.
	IncludePrescreenStats bool
}

// JSON exports a finder result as an indented JSON document, diagnostics
// included (always, even when clean — consumers branch on "degraded").
func JSON(res *core.Result) ([]byte, error) {
	return JSONWith(res, JSONOptions{})
}

// JSONWith is JSON with explicit options.
func JSONWith(res *core.Result, opts JSONOptions) ([]byte, error) {
	out := SummaryJSON{
		OriginalNodes:   res.OriginalNodes,
		SimplifiedNodes: res.SimplifiedNodes,
		Iterations:      res.Iterations,
		PoolSize:        res.PoolSize,
		Matches:         len(res.Matches),
		Patterns:        []PatternJSON{},
		Diagnostics: DiagnosticsJSON{
			Degraded:     res.Degraded(),
			Interrupted:  res.Interrupted,
			SkippedViews: res.SkippedViews,
			PoolLimited:  res.PoolLimited,
		},
	}
	for _, f := range res.Failures {
		out.Diagnostics.Failures = append(out.Diagnostics.Failures, FailureJSON{
			Stage:   f.Stage.String(),
			Kind:    f.Kind.String(),
			Message: f.Error(),
		})
	}
	for _, p := range res.Patterns {
		out.Patterns = append(out.Patterns, PatternJSON{
			Kind:  kindSlug(p.Kind),
			Nodes: p.Nodes().Len(),
			Ops:   p.OpsSummary(res.Graph),
		})
	}
	for k, ks := range res.SolverStats {
		if !effortBooked(ks) {
			continue
		}
		if out.Diagnostics.Solver == nil {
			out.Diagnostics.Solver = map[string]KindStatsJSON{}
		}
		out.Diagnostics.Solver[kindSlug(k)] = KindStatsJSON{
			Runs:        ks.Runs,
			Solutions:   ks.Solutions,
			ElapsedMS:   ks.Elapsed.Milliseconds(),
			CacheHits:   ks.CacheHits,
			CacheMisses: ks.CacheMisses,
		}
	}
	if hits, misses, _ := res.CacheStats(); hits+misses > 0 {
		out.Diagnostics.Cache = &CacheJSON{Hits: hits, Misses: misses}
	}
	if opts.IncludePrescreenStats {
		checks, skips := res.PrescreenStats()
		out.Diagnostics.Prescreen = &PrescreenJSON{Checks: checks, Skips: skips}
	}
	return json.MarshalIndent(out, "", "  ")
}
