package patterns

// Solver budgeting and diagnostics. The paper runs every MiniZinc/Chuffed
// solve under explicit resource limits and reports resource-limited runs
// in Table 3; a Budget is our per-matcher-invocation equivalent. It arms
// each constraint-solver run with the caller's bounds (a per-solve
// timeout clamped to the time remaining in the caller's context deadline,
// an optional deterministic step limit, and the context itself for
// cancellation) and collects what the solver spent, per pattern kind, so
// a nil match can be told apart as "no pattern" vs "undecided within
// budget".

import (
	"context"
	"errors"
	"math"
	"time"

	"discovery/internal/analysis"
	"discovery/internal/cp"
	"discovery/internal/obs"
)

// KindStats rolls up constraint-solver effort across the runs attributed
// to one pattern kind.
type KindStats struct {
	// Runs counts solver invocations; Timeouts counts the resource-limited
	// ones among them (deadline, cancellation, or step limit).
	Runs     int
	Timeouts int
	// The remaining fields accumulate cp.Stats counters over all runs.
	Nodes        int64
	Failures     int64
	Propagations int64
	Solutions    int64
	Elapsed      time.Duration
	// Prescreened counts solves answered by the structural prescreen
	// (prescreen.go) — provably-UNSAT views that never reached the matcher.
	// A prescreened solve is also booked as a cache interaction (hit or
	// miss) so the cache accounting matches a prescreen-less run.
	Prescreened int
	// Cache outcomes for this kind from the finder's view–verdict cache:
	// Hits are solves answered from a cached verdict, Misses are solves
	// that ran (and then populated the cache), Skips are solves suppressed
	// because a previous attempt was already undecided under a budget at
	// least as large.
	CacheHits   int
	CacheMisses int
	CacheSkips  int
}

// Add accumulates other into k (for cross-worker rollups).
func (k *KindStats) Add(other KindStats) {
	k.Runs += other.Runs
	k.Timeouts += other.Timeouts
	k.Nodes += other.Nodes
	k.Failures += other.Failures
	k.Propagations += other.Propagations
	k.Solutions += other.Solutions
	k.Elapsed += other.Elapsed
	k.Prescreened += other.Prescreened
	k.CacheHits += other.CacheHits
	k.CacheMisses += other.CacheMisses
	k.CacheSkips += other.CacheSkips
}

// BudgetScore is a comparable summary of how much solver effort a budget
// allows per run. The view cache stores the score alongside each
// "undecided" verdict and retries the solve only when the current budget's
// score grew — a larger budget might decide what a smaller one could not,
// while an equal or smaller one cannot.
type BudgetScore struct {
	// TimeoutNS is the effective per-solve timeout in nanoseconds (the
	// budget's SolveTimeout or the package default, clamped to the context
	// deadline's remaining time when there is one).
	TimeoutNS int64
	// Steps is the deterministic step limit; unlimited is MaxInt64.
	Steps int64
}

// Grew reports whether s allows strictly more effort than old on at least
// one axis (and no less on the other is not required: any axis growing can
// flip an undecided verdict).
func (s BudgetScore) Grew(old BudgetScore) bool {
	return s.TimeoutNS > old.TimeoutNS || s.Steps > old.Steps
}

// Budget bounds the constraint-solver effort of matcher invocations and
// records the outcome. A nil *Budget is valid everywhere and means
// "default bounds, no diagnostics" (each run capped at SolverBudget, the
// package default the paper's 60-second limit corresponds to).
//
// A Budget is not safe for concurrent use; give each matching worker its
// own and merge the KindStats afterwards.
type Budget struct {
	// Ctx cancels in-flight solver runs when done. If it carries a
	// deadline, each run's timeout is clamped to the remaining time, so
	// per-solve budgets shrink as the global budget drains. Nil means no
	// cancellation.
	Ctx context.Context
	// SolveTimeout caps each individual solver run; zero means the
	// package default SolverBudget.
	SolveTimeout time.Duration
	// StepLimit bounds each run's nodes+propagations deterministically;
	// zero means no limit.
	StepLimit int64
	// Obs, when non-nil and enabled, receives one span per solver run
	// (parented under Span) and a solve-latency histogram sample. Nil —
	// the default — keeps the solve path free of observability work.
	Obs obs.Recorder
	// Span parents the solver-run spans, typically the span of the match
	// phase or sub-DDG whose matchers this budget arms.
	Span obs.SpanID

	// Exceeded reports that at least one solver run under this budget was
	// resource-limited: a nil match outcome is "budget exceeded", not
	// "no pattern". This is the distinguishable outcome core.Find
	// aggregates into Result.TimedOutViews.
	Exceeded bool
	// Kinds accumulates per-kind solver effort, keyed by the pattern kind
	// whose matcher ran the solver.
	Kinds map[Kind]*KindStats
	// Errs collects panics contained inside solver runs (cp.Stats.Err),
	// one per failed run, in run order. A failed run behaves like an
	// unsatisfiable one for matching purposes; the error is kept so
	// core.Find can surface it in the run's diagnostics.
	Errs []*analysis.Error
}

// arm configures sv with the budget's bounds. With a nil budget the run
// gets the package-default timeout only.
func (b *Budget) arm(sv *cp.Solver) {
	if b == nil {
		sv.Timeout = SolverBudget
		return
	}
	t := b.SolveTimeout
	if t == 0 {
		t = SolverBudget
	}
	if b.Ctx != nil {
		sv.Ctx = b.Ctx
		if d, ok := b.Ctx.Deadline(); ok {
			r := time.Until(d)
			if r <= 0 {
				r = -1 // exhausted: the solver returns TimedOut immediately
			}
			if r < t {
				t = r
			}
		}
	}
	sv.Timeout = t
	sv.StepLimit = b.StepLimit
	sv.Obs = b.Obs
	sv.SpanParent = b.Span
}

// record books one finished run's stats under kind.
func (b *Budget) record(kind Kind, st cp.Stats) {
	if b == nil {
		return
	}
	if b.Kinds == nil {
		b.Kinds = map[Kind]*KindStats{}
	}
	ks := b.Kinds[kind]
	if ks == nil {
		ks = &KindStats{}
		b.Kinds[kind] = ks
	}
	ks.Runs++
	ks.Nodes += st.Nodes
	ks.Failures += st.Failures
	ks.Propagations += st.Propagations
	ks.Solutions += st.Solutions
	ks.Elapsed += st.Elapsed
	if st.Limited() {
		ks.Timeouts++
		b.Exceeded = true
	}
	if st.Err != nil {
		var ae *analysis.Error
		if !errors.As(st.Err, &ae) {
			ae = analysis.Wrap(analysis.StageMatch, analysis.Internal, st.Err, "solver run failed")
		}
		b.Errs = append(b.Errs, ae)
	}
	if b.Obs != nil && b.Obs.Enabled() {
		b.Obs.Observe(obs.MetricSolveSeconds, st.Elapsed.Seconds())
	}
}

// Score summarizes the effort the budget currently allows per solver run
// (see BudgetScore). Valid on a nil budget: the package defaults.
func (b *Budget) Score() BudgetScore {
	s := BudgetScore{TimeoutNS: int64(SolverBudget), Steps: math.MaxInt64}
	if b == nil {
		return s
	}
	if b.SolveTimeout != 0 {
		s.TimeoutNS = int64(b.SolveTimeout)
	}
	if b.Ctx != nil {
		if d, ok := b.Ctx.Deadline(); ok {
			if r := int64(time.Until(d)); r < s.TimeoutNS {
				if r < 0 {
					r = 0
				}
				s.TimeoutNS = r
			}
		}
	}
	if b.StepLimit != 0 {
		s.Steps = b.StepLimit
	}
	return s
}

// Deadline translates the budget's context deadline into a scheduler
// task deadline: the instant past which a not-yet-started solve under
// this budget is pointless (arm would clamp its timeout to nothing), so
// the scheduler can drop the task at claim time instead of running it.
// The zero time means no deadline. Valid on a nil budget.
func (b *Budget) Deadline() time.Time {
	if b == nil || b.Ctx == nil {
		return time.Time{}
	}
	if d, ok := b.Ctx.Deadline(); ok {
		return d
	}
	return time.Time{}
}

// MarkExceeded records a resource-limited outcome without a solver run —
// used when the view cache suppresses a solve whose previous attempt was
// undecided, so the caller still observes "undecided within budget" rather
// than "no pattern".
func (b *Budget) MarkExceeded() {
	if b != nil {
		b.Exceeded = true
	}
}

// stats returns (allocating if needed) the KindStats bucket for kind.
func (b *Budget) stats(kind Kind) *KindStats {
	if b.Kinds == nil {
		b.Kinds = map[Kind]*KindStats{}
	}
	ks := b.Kinds[kind]
	if ks == nil {
		ks = &KindStats{}
		b.Kinds[kind] = ks
	}
	return ks
}

// RecordCacheHit books a solve answered from the view cache.
func (b *Budget) RecordCacheHit(kind Kind) {
	if b != nil {
		b.stats(kind).CacheHits++
	}
}

// RecordCacheMiss books a solve that ran because the view cache had no
// usable entry.
func (b *Budget) RecordCacheMiss(kind Kind) {
	if b != nil {
		b.stats(kind).CacheMisses++
	}
}

// RecordCacheSkip books a solve suppressed by a cached "undecided" verdict
// whose budget was at least as large as the current one.
func (b *Budget) RecordCacheSkip(kind Kind) {
	if b != nil {
		b.stats(kind).CacheSkips++
	}
}

// RecordPrescreened books a solve answered by the structural prescreen
// (the verdict was CannotMatch, so no matcher ran).
func (b *Budget) RecordPrescreened(kind Kind) {
	if b != nil {
		b.stats(kind).Prescreened++
	}
}

// KindTimeouts returns the resource-limited run count booked under kind so
// far. The finder brackets a matcher call with it to tell whether that
// call specifically was cut short.
func (b *Budget) KindTimeouts(kind Kind) int {
	if b == nil || b.Kinds == nil || b.Kinds[kind] == nil {
		return 0
	}
	return b.Kinds[kind].Timeouts
}

// solve runs sv.Solve under the budget, attributing the effort to kind.
func (b *Budget) solve(kind Kind, sv *cp.Solver) cp.Solution {
	b.arm(sv)
	sol := sv.Solve()
	b.record(kind, sv.Stats())
	return sol
}

// solveAll runs sv.SolveAll under the budget, attributing the effort to
// kind.
func (b *Budget) solveAll(kind Kind, sv *cp.Solver, cb func(cp.Solution) bool) {
	b.arm(sv)
	sv.SolveAll(cb)
	b.record(kind, sv.Stats())
}

// Merge folds the diagnostics of other into b (bounds are left alone).
// Used to combine per-worker budgets deterministically.
func (b *Budget) Merge(other *Budget) {
	if b == nil || other == nil {
		return
	}
	b.Exceeded = b.Exceeded || other.Exceeded
	b.Errs = append(b.Errs, other.Errs...)
	for kind, ks := range other.Kinds {
		if b.Kinds == nil {
			b.Kinds = map[Kind]*KindStats{}
		}
		if mine := b.Kinds[kind]; mine != nil {
			mine.Add(*ks)
		} else {
			clone := *ks
			b.Kinds[kind] = &clone
		}
	}
}
