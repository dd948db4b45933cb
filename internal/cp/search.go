package cp

import (
	"context"
	"strconv"
	"time"

	"discovery/internal/analysis"
	"discovery/internal/obs"
)

// Stats reports search effort.
type Stats struct {
	Nodes        int64
	Failures     int64
	Solutions    int64
	Propagations int64
	Elapsed      time.Duration
	// TimedOut reports that the wall-clock deadline expired mid-search.
	TimedOut bool
	// Cancelled reports that the solver's context was cancelled.
	Cancelled bool
	// LimitHit reports that the step limit (nodes + propagations) was
	// exhausted.
	LimitHit bool
	// Err records a panic recovered during the run — a solver or propagator
	// bug contained at the Solve boundary, as a match-stage
	// *analysis.Error. The counters above remain valid for the partial
	// search; any solution found before the panic was already delivered.
	Err error
}

// Limited reports whether the search was cut short by any resource bound
// (deadline, cancellation, or step limit). A nil solution from a limited
// run means "undecided within budget", not "unsatisfiable".
func (s Stats) Limited() bool { return s.TimedOut || s.Cancelled || s.LimitHit }

// Add accumulates the effort counters of other into s; the limit flags
// are OR-ed. Useful for rolling up diagnostics across solver runs.
func (s *Stats) Add(other Stats) {
	s.Nodes += other.Nodes
	s.Failures += other.Failures
	s.Solutions += other.Solutions
	s.Propagations += other.Propagations
	s.Elapsed += other.Elapsed
	s.TimedOut = s.TimedOut || other.TimedOut
	s.Cancelled = s.Cancelled || other.Cancelled
	s.LimitHit = s.LimitHit || other.LimitHit
	if s.Err == nil {
		s.Err = other.Err
	}
}

// firstFail returns the unassigned variable with the smallest domain,
// the earliest declared on ties, or nil when every variable is assigned
// (a solution).
func firstFail(s *Space) *IntVar {
	var best *IntVar
	bestSize := int(^uint(0) >> 1)
	for _, v := range s.model.vars {
		if sz := s.Size(v); sz > 1 && sz < bestSize {
			best, bestSize = v, sz
		}
	}
	return best
}

// Solver runs depth-first search with propagation over a model,
// branching first-fail (firstFail) and trying values in increasing order.
type Solver struct {
	Model *Model
	// Timeout bounds the wall-clock search time; zero means no limit. The
	// paper uses a 60-second budget per solver run. A negative Timeout
	// means the budget is already exhausted: the solver returns
	// immediately with TimedOut set, without searching.
	Timeout time.Duration
	// Ctx, if non-nil, cancels the search when done; the solver polls it
	// periodically alongside the deadline and reports Stats.Cancelled.
	Ctx context.Context
	// StepLimit deterministically bounds search effort: the solve aborts
	// with Stats.LimitHit once Nodes+Propagations exceeds it. Zero means
	// no limit. Unlike Timeout it is reproducible across machines, which
	// the degraded-result tests rely on.
	StepLimit int64
	// Obs, when non-nil and enabled, receives one span per solve (under
	// SpanParent) carrying the run's verdict and effort counters. The
	// solver emits nothing per search node, so observability costs one
	// span per Solve/SolveAll call.
	Obs obs.Recorder
	// SpanParent parents the solve span (typically the sub-DDG match span).
	SpanParent obs.SpanID

	stats    Stats
	deadline time.Time
}

// Stats returns effort counters from the last Solve/SolveAll call.
func (sv *Solver) Stats() Stats { return sv.stats }

// Solve returns the first solution, or nil if unsatisfiable or out of
// time.
func (sv *Solver) Solve() Solution {
	var first Solution
	sv.SolveAll(func(sol Solution) bool {
		first = sol
		return false
	})
	return first
}

// SolveAll enumerates solutions until the callback returns false, the
// search space is exhausted, or the timeout expires.
func (sv *Solver) SolveAll(cb func(Solution) bool) {
	start := time.Now()
	sv.stats = Stats{}
	// The solve span. Its deferred end is registered before the recover
	// boundary below, so on a contained panic the recover (which records
	// Stats.Err) runs first and the span still closes, marked failed.
	if sv.Obs != nil && sv.Obs.Enabled() {
		span := sv.Obs.StartSpan("solve", sv.SpanParent)
		defer func() { sv.Obs.EndSpan(span, sv.spanAttrs()...) }()
	}
	// Containment boundary: a buggy propagator (or a malformed model) must
	// cost one solver run, not the process. The recovered panic is reported
	// through Stats.Err so callers can attach it to their diagnostics.
	defer func() {
		if r := recover(); r != nil {
			sv.stats.Err = analysis.Recovered(analysis.StageMatch, r)
			sv.stats.Elapsed = time.Since(start)
		}
	}()
	switch {
	case sv.Timeout < 0:
		// The caller's budget was exhausted before this run began.
		sv.stats.TimedOut = true
		sv.stats.Elapsed = time.Since(start)
		return
	case sv.Timeout > 0:
		sv.deadline = start.Add(sv.Timeout)
	default:
		sv.deadline = time.Time{}
	}
	if sv.Ctx != nil && sv.Ctx.Err() != nil {
		sv.stats.Cancelled = true
		sv.stats.Elapsed = time.Since(start)
		return
	}
	root := sv.Model.newSpace()
	root.scheduleAll()
	if !root.failed && root.propagate(&sv.stats) {
		sv.dfs(root, cb)
	}
	sv.stats.Elapsed = time.Since(start)
}

// spanAttrs summarizes the finished run for its solve span: the verdict
// ("sat", "unsat", or "undecided" for a resource-limited run) and the
// effort counters, plus a failure marker when the run panicked.
func (sv *Solver) spanAttrs() []obs.Attr {
	verdict := "unsat"
	switch {
	case sv.stats.Solutions > 0:
		verdict = "sat"
	case sv.stats.Limited():
		verdict = "undecided"
	}
	attrs := []obs.Attr{
		obs.Str("verdict", verdict),
		obs.Int("nodes", sv.stats.Nodes),
		obs.Int("propagations", sv.stats.Propagations),
		obs.Int("solutions", sv.stats.Solutions),
	}
	if sv.stats.Limited() {
		attrs = append(attrs, obs.Str("limited", strconv.FormatBool(true)))
	}
	if sv.stats.Err != nil {
		attrs = append(attrs, obs.Failed(sv.stats.Err.Error()))
	}
	return attrs
}

// stopNow checks the solver's resource bounds, recording which one fired.
// The step limit is exact (checked every node); the wall clock and the
// context are polled every 256 nodes to keep the hot path cheap.
func (sv *Solver) stopNow() bool {
	if sv.StepLimit > 0 && sv.stats.Nodes+sv.stats.Propagations > sv.StepLimit {
		sv.stats.LimitHit = true
		return true
	}
	if sv.stats.Nodes%256 == 0 {
		if !sv.deadline.IsZero() && time.Now().After(sv.deadline) {
			sv.stats.TimedOut = true
			return true
		}
		if sv.Ctx != nil && sv.Ctx.Err() != nil {
			sv.stats.Cancelled = true
			return true
		}
	}
	return false
}

// dfs explores the space; it returns false to abort the whole search.
func (sv *Solver) dfs(s *Space, cb func(Solution) bool) bool {
	sv.stats.Nodes++
	if sv.stopNow() {
		return false
	}
	v := firstFail(s)
	if v == nil {
		sol := Solution{}
		for _, mv := range sv.Model.vars {
			sol[mv] = s.Value(mv)
		}
		sv.stats.Solutions++
		return cb(sol)
	}
	for _, val := range s.Values(v) {
		child := s.clone()
		if !child.Assign(v, val) || !child.propagate(&sv.stats) {
			sv.stats.Failures++
			continue
		}
		if !sv.dfs(child, cb) {
			return false
		}
	}
	return true
}
