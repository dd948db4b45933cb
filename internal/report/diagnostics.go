package report

// Diagnostics rendering and the machine-readable summary. The paper's
// evaluation reports which solver runs were resource-limited (Table 3);
// this file surfaces the equivalent for a finder run: whether the global
// budget interrupted it, how many views were undecided within the solver
// budget, and the per-kind solver effort rollup. The text section renders
// only for degraded runs so default (unbudgeted) outputs stay byte-for-byte
// what they were before budgets existed.

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
// pattern set is a lower bound, and what the solver spent. Returns "" for a
// run that no bound cut short.
func Diagnostics(res *core.Result) string {
	if !res.Degraded() {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("resource limits hit; the pattern set is a lower bound:\n")
	if res.Interrupted {
		sb.WriteString("  - interrupted: global budget or context expired before the fixpoint\n")
	}
	if res.TimedOutViews > 0 {
		fmt.Fprintf(&sb, "  - %d view(s) undecided within the solver budget (not \"no pattern\")\n",
			res.TimedOutViews)
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
	if line := CacheStats(res); line != "" {
		sb.WriteString("  " + line + "\n")
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

// CacheStats renders a one-line view-cache summary ("" when the run
// recorded no cache activity, e.g. under -no-cache).
func CacheStats(res *core.Result) string {
	hits, misses, skips := res.CacheStats()
	if hits+misses+skips == 0 {
		return ""
	}
	return fmt.Sprintf("view cache: %d hit(s), %d miss(es), %d skip(s)", hits, misses, skips)
}

// solverEffort renders the per-kind solver rollup lines.
func solverEffort(res *core.Result) string {
	if len(res.SolverStats) == 0 {
		return ""
	}
	kinds := make([]patterns.Kind, 0, len(res.SolverStats))
	for k := range res.SolverStats {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	var sb strings.Builder
	sb.WriteString("solver effort per pattern kind:\n")
	for _, k := range kinds {
		ks := res.SolverStats[k]
		fmt.Fprintf(&sb, "  %-22s %d run(s), %d timed out; %d nodes, %d propagations, %d solutions in %v",
			k, ks.Runs, ks.Timeouts, ks.Nodes, ks.Propagations, ks.Solutions,
			ks.Elapsed.Round(time.Millisecond))
		if ks.Restarts > 0 || ks.Nogoods > 0 {
			fmt.Fprintf(&sb, "; %d restart(s), %d nogood(s)", ks.Restarts, ks.Nogoods)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// PatternJSON is one reported pattern in the machine-readable summary.
type PatternJSON struct {
	Kind  string `json:"kind"`
	Nodes int    `json:"nodes"`
	Ops   string `json:"ops"`
}

// KindStatsJSON is the solver effort attributed to one pattern kind.
type KindStatsJSON struct {
	Runs         int   `json:"runs"`
	Timeouts     int   `json:"timeouts"`
	Nodes        int64 `json:"nodes"`
	Failures     int64 `json:"failures"`
	Propagations int64 `json:"propagations"`
	Solutions    int64 `json:"solutions"`
	ElapsedMS    int64 `json:"elapsed_ms"`
	CacheHits    int   `json:"cache_hits,omitempty"`
	CacheMisses  int   `json:"cache_misses,omitempty"`
	CacheSkips   int   `json:"cache_skips,omitempty"`
	// Restarts/Nogoods stay zero unless solver restarts are enabled
	// (-solver-restarts), so default outputs are unchanged.
	Restarts int64 `json:"restarts,omitempty"`
	Nogoods  int64 `json:"nogoods,omitempty"`
}

// CacheJSON is the view-cache rollup across all pattern kinds.
type CacheJSON struct {
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
	Skips  int `json:"skips"`
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
	Degraded      bool                     `json:"degraded"`
	Interrupted   bool                     `json:"interrupted"`
	TimedOutViews int                      `json:"timed_out_views"`
	SkippedViews  int                      `json:"skipped_views"`
	PoolLimited   bool                     `json:"pool_limited"`
	Failures      []FailureJSON            `json:"failures,omitempty"`
	Solver        map[string]KindStatsJSON `json:"solver,omitempty"`
	Cache         *CacheJSON               `json:"cache,omitempty"`
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
	// IncludeCacheStats forces the diagnostics "cache" block even when the
	// run recorded no cache activity, as an explicit zeroed block. Without
	// it a consumer asking for cache stats on a cache-disabled run saw the
	// field silently vanish — indistinguishable from an old producer that
	// never emitted it.
	IncludeCacheStats bool
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
			Degraded:      res.Degraded(),
			Interrupted:   res.Interrupted,
			TimedOutViews: res.TimedOutViews,
			SkippedViews:  res.SkippedViews,
			PoolLimited:   res.PoolLimited,
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
	if len(res.SolverStats) > 0 {
		out.Diagnostics.Solver = map[string]KindStatsJSON{}
		for k, ks := range res.SolverStats {
			out.Diagnostics.Solver[kindSlug(k)] = KindStatsJSON{
				Runs: ks.Runs, Timeouts: ks.Timeouts,
				Nodes: ks.Nodes, Failures: ks.Failures,
				Propagations: ks.Propagations, Solutions: ks.Solutions,
				ElapsedMS:   ks.Elapsed.Milliseconds(),
				CacheHits:   ks.CacheHits,
				CacheMisses: ks.CacheMisses,
				CacheSkips:  ks.CacheSkips,
				Restarts:    ks.Restarts,
				Nogoods:     ks.Nogoods,
			}
		}
	}
	if hits, misses, skips := res.CacheStats(); hits+misses+skips > 0 || opts.IncludeCacheStats {
		out.Diagnostics.Cache = &CacheJSON{Hits: hits, Misses: misses, Skips: skips}
	}
	if opts.IncludePrescreenStats {
		checks, skips := res.PrescreenStats()
		out.Diagnostics.Prescreen = &PrescreenJSON{Checks: checks, Skips: skips}
	}
	return json.MarshalIndent(out, "", "  ")
}
