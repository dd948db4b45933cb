package core_test

// Regression coverage for the match phase's scheduling: the unit of
// parallel work is a sub-DDG, swept by one claimer per executor, so a
// phase over many sub-DDGs runs on every executor at once.

import (
	"sync"
	"testing"
	"time"

	"discovery/internal/core"
	"discovery/internal/sched"
	"discovery/internal/starbench"
	"discovery/internal/trace"
)

// TestMatchPhaseRunsSubDDGsOnTwoExecutors holds the first two match items
// at a rendezvous: both must be running at once before either proceeds.
// On a pool of one worker plus the sweep's caller, that happens only
// if the phase hands its sub-DDGs to both executors; a phase that ran them
// all on one executor would leave the first item waiting forever.
func TestMatchPhaseRunsSubDDGsOnTwoExecutors(t *testing.T) {
	tr := tracedBenchmark(t)
	arrived := make(chan struct{}, 2)
	proceed := make(chan struct{})
	var mu sync.Mutex
	items := 0
	core.SetSweepItemHook(func(phase string) {
		if phase != "match" {
			return
		}
		mu.Lock()
		items++
		first := items <= 2
		mu.Unlock()
		if first {
			arrived <- struct{}{}
			<-proceed
		}
	})
	defer core.SetSweepItemHook(nil)

	pool := sched.NewPool(1, nil)
	defer pool.Close()
	done := make(chan *core.Result, 1)
	go func() {
		done <- core.Find(tr.Graph, core.Options{Scheduler: pool, VerifyMatches: true, DisableIterate: true})
	}()
	for i := 0; i < 2; i++ {
		select {
		case <-arrived:
		case <-time.After(30 * time.Second):
			close(proceed)
			t.Fatalf("only %d match items ran at once on two executors; "+
				"the match phase is serializing its sub-DDGs", i)
		}
	}
	close(proceed)
	res := <-done
	if len(res.Failures) > 0 {
		t.Fatalf("unexpected failures: %v", res.Failures)
	}
	if items < 3 || len(res.Patterns) == 0 {
		t.Fatalf("%d match items, %d patterns; want a phase over many sub-DDGs that finds patterns",
			items, len(res.Patterns))
	}
}

// TestFindDefaultsToProcessPool: a Find with no Scheduler sweeps its
// phases on sched.Default(), and leaves it drained on return.
func TestFindDefaultsToProcessPool(t *testing.T) {
	b := starbench.ByName("rgbyuv")
	tr, err := trace.Run(b.Build(starbench.Seq, b.Analysis).Prog)
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	pool := sched.Default()
	before := pool.Stats()
	res := core.Find(tr.Graph, core.Options{VerifyMatches: true})
	after := pool.Stats()
	if len(res.Patterns) == 0 {
		t.Fatal("no patterns found")
	}
	if after.Helped <= before.Helped {
		t.Errorf("default pool ran no sweeps: %d before, %d after", before.Helped, after.Helped)
	}
	if after.Queued != 0 || after.Running != 0 {
		t.Errorf("default pool not drained after the run: %+v", after)
	}
}
