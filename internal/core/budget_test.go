package core

import (
	"context"
	"testing"
	"time"

	"discovery/internal/patterns"
	"discovery/internal/sched"
)

// TestTinyStepLimitDegradedDeterministic: with a deliberately tiny
// deterministic solver budget, Find must still return, label the result as
// degraded (timed-out views, per-kind timeout counts) instead of silently
// reporting "no pattern", and do so reproducibly — the step limit, unlike a
// wall-clock budget, cuts the search at the same point every run.
func TestTinyStepLimitDegradedDeterministic(t *testing.T) {
	g := traceProgram(t, seqSumProgram(6))

	run := func() *Result {
		// A zero-worker pool runs every task on this goroutine, in
		// submission order: an exact replay.
		pool := sched.NewPool(0, nil)
		defer pool.Close()
		opts := defaultOpts()
		opts.Scheduler = pool
		opts.SolverStepLimit = 1
		return Find(g, opts)
	}
	res := run()

	if res.TimedOutViews == 0 {
		t.Fatal("tiny step limit produced no timed-out views")
	}
	if !res.Degraded() {
		t.Error("resource-limited result not labeled Degraded")
	}
	ks, ok := res.SolverStats[patterns.KindLinearReduction]
	if !ok || ks.Runs == 0 || ks.Timeouts == 0 {
		t.Errorf("linear-reduction solver stats = %+v, want runs with timeouts", ks)
	}
	// The budget must cut the solver's cross-check, not the structural
	// matchers: the undecided reduction views are exactly what goes missing.
	if n := kinds(res)[patterns.KindLinearMapReduction]; n != 0 {
		t.Errorf("step-limited run still confirmed %d linear map-reductions", n)
	}

	// Reproducibility: everything except wall-clock time is identical.
	res2 := run()
	if res2.TimedOutViews != res.TimedOutViews ||
		res2.Iterations != res.Iterations ||
		len(res2.Patterns) != len(res.Patterns) ||
		len(res2.SolverStats) != len(res.SolverStats) {
		t.Fatalf("degraded runs differ: %+v vs %+v", res, res2)
	}
	for kind, a := range res.SolverStats {
		b := res2.SolverStats[kind]
		a.Elapsed, b.Elapsed = 0, 0
		if a != b {
			t.Errorf("%v stats differ across runs: %+v vs %+v", kind, a, b)
		}
	}
}

// TestUnbudgetedFindClean: with no budget configured, the diagnostics must
// all read "nothing was limited" — the invariant behind keeping default
// experiment outputs byte-identical.
func TestUnbudgetedFindClean(t *testing.T) {
	g := traceProgram(t, fig2cProgram(4, 2))
	res := Find(g, defaultOpts())
	if res.TimedOutViews != 0 || res.Interrupted || res.Degraded() {
		t.Errorf("unbudgeted run reported limits: timedOut=%d interrupted=%v",
			res.TimedOutViews, res.Interrupted)
	}
	// Solver effort is still accounted even when nothing is limited.
	if ks := res.SolverStats[patterns.KindLinearReduction]; ks.Runs == 0 || ks.Timeouts != 0 {
		t.Errorf("linear-reduction stats = %+v, want clean counted runs", ks)
	}
}

// TestMaxPoolSizeEnforced: the pool cap must hold at the single point of
// growth — including the subtract and fuse phases — and be reported.
func TestMaxPoolSizeEnforced(t *testing.T) {
	g := traceProgram(t, fig2cProgram(4, 2))
	opts := defaultOpts()
	opts.MaxPoolSize = 2
	res := Find(g, opts)
	if !res.PoolLimited {
		t.Error("pool cap of 2 not reported as PoolLimited")
	}
	if res.PoolSize > 2 {
		t.Errorf("pool grew to %d despite MaxPoolSize=2", res.PoolSize)
	}
	if !res.Degraded() {
		t.Error("pool-limited result not labeled Degraded")
	}
}

// TestFindCtxCancelled: a cancelled context stops the finder promptly with
// an Interrupted result instead of an unbounded match phase. Run under
// -race this also exercises the worker feed/drain shutdown for data races.
func TestFindCtxCancelled(t *testing.T) {
	g := traceProgram(t, fig2cProgram(4, 2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := FindCtx(ctx, g, defaultOpts())
	if !res.Interrupted {
		t.Error("cancelled context not reported as Interrupted")
	}
	if !res.Degraded() {
		t.Error("interrupted result not labeled Degraded")
	}
	if len(res.Matches) != 0 {
		t.Errorf("cancelled-before-start run still matched %d times", len(res.Matches))
	}
}

// TestFindCtxCancelMidRun cancels concurrently with the match phase; the
// assertion is only that Find returns and the result is well-formed (the
// race detector checks the rest).
func TestFindCtxCancelMidRun(t *testing.T) {
	g := traceProgram(t, fig2cProgram(4, 2))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		cancel()
		close(done)
	}()
	res := FindCtx(ctx, g, defaultOpts())
	<-done
	if res == nil {
		t.Fatal("FindCtx returned nil")
	}
	if res.Iterations > defaultOpts().maxIterations() {
		t.Errorf("iterations = %d out of range", res.Iterations)
	}
}

// TestGlobalBudgetExpires: an absurdly small global budget must come back
// quickly, labeled, rather than hanging.
func TestGlobalBudgetExpires(t *testing.T) {
	g := traceProgram(t, fig2cProgram(4, 2))
	opts := defaultOpts()
	opts.Budget = time.Nanosecond
	start := time.Now()
	res := Find(g, opts)
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("budgeted run took %v", elapsed)
	}
	if !res.Degraded() {
		t.Error("expired global budget not labeled Degraded")
	}
}
