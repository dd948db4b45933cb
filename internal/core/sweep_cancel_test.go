package core_test

import (
	"context"
	"testing"

	"discovery/internal/core"
	"discovery/internal/sched"
)

// TestSweepStopsInsideClaimedChunk cancels the run's context while the
// first subtract item runs. On a pool with no workers the phase goroutine
// runs every chunk itself, one after another, so the count is exact: the
// rest of the claimed chunk must be skipped at its next item (the later
// chunks are dropped at claim time), and the result labelled Interrupted.
func TestSweepStopsInsideClaimedChunk(t *testing.T) {
	tr := tracedBenchmark(t)
	pool := sched.NewPool(0, nil)
	defer pool.Close()
	opts := core.Options{Scheduler: pool}

	// The uncancelled run sizes the first subtract sweep: with one
	// executor it is cut into four chunks, so a pool of eight or more
	// sub-DDGs gives the first chunk at least two items.
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
		t.Errorf("%d subtract items ran after the cancel in the first one; want the chunk to stop", items-1)
	}
	if !res.Interrupted {
		t.Error("run cancelled mid-chunk not reported as Interrupted")
	}
}
