package core_test

import (
	"context"
	"testing"

	"discovery/internal/core"
	"discovery/internal/sched"
)

// TestSweepStopsInsideClaimedChunk cancels the run's context while the
// first subtract item runs. On a pool with no workers the phase goroutine
// runs the sweep's only claimer itself, so the count is exact: the
// claimer must stop at its next claim, and the result be labelled
// Interrupted.
func TestSweepStopsInsideClaimedChunk(t *testing.T) {
	tr := tracedBenchmark(t)
	pool := sched.NewPool(0, nil)
	defer pool.Close()
	opts := core.Options{Scheduler: pool}

	// The uncancelled run sizes the first subtract sweep: eight or more
	// items leave the claimer work to skip after the first.
	var items int
	core.SetSweepItemHook(func(phase string) {
		if phase == "subtract" {
			items++
		}
	})
	defer core.SetSweepItemHook(nil)
	if res := core.FindCtx(context.Background(), tr.Graph, opts); res.Interrupted || items < 8 {
		t.Fatalf("reference run: interrupted=%v, %d subtract items; want a full run with >= 8", res.Interrupted, items)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	items = 0
	core.SetSweepItemHook(func(phase string) {
		if phase == "subtract" {
			items++
			cancel()
		}
	})
	res := core.FindCtx(ctx, tr.Graph, opts)
	if items != 1 {
		t.Errorf("%d subtract items ran after the cancel in the first one; want the claimer to stop", items-1)
	}
	if !res.Interrupted {
		t.Error("run cancelled mid-chunk not reported as Interrupted")
	}
}
