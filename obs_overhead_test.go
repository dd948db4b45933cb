package discovery

// Observability overhead gate for the disabled path. The zero-cost claim
// (DESIGN.md §12) rests on every hot path guarding its span/attr work
// behind Recorder.Enabled(); this test would catch the regression that
// breaks it — code keying on `rec != nil` instead of Enabled(), or attr
// construction hoisted out of the guard — by timing the find fixpoint
// with no recorder against the same fixpoint with the no-op recorder
// installed. The two must be within 2% (min-of-N against min-of-N, the
// noise-robust comparison for "is there systematic extra work").
//
// Timing-threshold tests are environment-sensitive, so the gate is
// opt-in: `make benchsmoke` (and CI through it) runs it with
// OBS_OVERHEAD=1; a bare `go test ./...` skips it.

import (
	"os"
	"testing"
	"time"

	"discovery/internal/core"
	"discovery/internal/obs"
	"discovery/internal/sched"
	"discovery/internal/starbench"
	"discovery/internal/trace"
)

func minFindTime(run func() *core.Result, reps int) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		run()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

func TestNopRecorderOverhead(t *testing.T) {
	if os.Getenv("OBS_OVERHEAD") == "" {
		t.Skip("timing gate; set OBS_OVERHEAD=1 (make benchsmoke does)")
	}
	bench := starbench.ByName("streamcluster")
	built := bench.Build(starbench.Pthreads, bench.Analysis)
	tr, err := trace.Run(built.Prog)
	if err != nil {
		t.Fatal(err)
	}
	// A zero-worker pool runs every task on the calling goroutine, which
	// keeps scheduler noise out of a timing comparison.
	pool := sched.NewPool(0, nil)
	defer pool.Close()
	withNil := func() *core.Result {
		return core.Find(tr.Graph, core.Options{Scheduler: pool})
	}
	withNop := func() *core.Result {
		return core.Find(tr.Graph, core.Options{Scheduler: pool, Obs: obs.Nop})
	}

	const reps = 7
	withNil() // warm up (page cache, JIT-ish runtime effects)
	// A tight threshold on wall time needs retries to ride out unlucky
	// scheduling; systematic overhead fails all attempts.
	var base, nop time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		base = minFindTime(withNil, reps)
		nop = minFindTime(withNop, reps)
		if float64(nop) <= float64(base)*1.02 {
			return
		}
	}
	t.Errorf("no-op recorder overhead: %v with Nop vs %v without (%.1f%% > 2%%)",
		nop, base, 100*(float64(nop)/float64(base)-1))
}
