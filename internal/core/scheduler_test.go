package core_test

// Regression coverage for the task-level match scheduler: the unit of
// parallel work is a (sub-DDG × kind) solve, so a phase with one active
// sub-DDG must still fan out across workers — the old sub-level scheduler
// clamped the worker count to the sub-DDG count and serialized it.

import (
	"testing"
	"time"

	"discovery/internal/core"
	"discovery/internal/mir"
	"discovery/internal/patterns"
	"discovery/internal/sched"
	"discovery/internal/starbench"
	"discovery/internal/trace"
)

func TestSingleSubDDGMatchesOnMultipleWorkers(t *testing.T) {
	// A plain sequential sum; the shape is irrelevant — DisableDecompose
	// forces the match phase to see exactly one (non-fused) sub-DDG, which
	// schedules three kind tasks.
	p := mir.NewProgram("sched")
	p.DeclareStatic("a", 16)
	p.DeclareStatic("out", 1)
	f, b := p.NewFunc("main", "sched.c")
	b.For("i", mir.C(0), mir.C(16), mir.C(1), func(b *mir.Block) {
		b.Store(mir.Idx(mir.G("a"), mir.V("i")), mir.FMul(mir.I2F(mir.V("i")), mir.F(2)))
	})
	b.Assign("s", mir.F(0))
	b.For("i", mir.C(0), mir.C(16), mir.C(1), func(b *mir.Block) {
		b.Assign("s", mir.FAdd(mir.V("s"), mir.Load(mir.Idx(mir.G("a"), mir.V("i")))))
	})
	b.Store(mir.Idx(mir.G("out"), mir.C(0)), mir.V("s"))
	b.Return(mir.V("s"))
	b.Finish(f)
	p.SetEntry("main")
	tr, err := trace.Run(p)
	if err != nil {
		t.Fatalf("trace: %v", err)
	}

	// Rendezvous: the first two tasks to start block until both have
	// arrived. With task-level scheduling two workers claim them
	// concurrently and the barrier resolves; a sub-level scheduler would
	// run every kind on one worker and the first task would wait forever.
	arrived := make(chan patterns.Kind, 8)
	proceed := make(chan struct{})
	taskNum := make(chan int, 8) // capacity ≥ task count; acts as a counter
	for i := 1; i <= 8; i++ {
		taskNum <- i
	}
	core.SetMatchTaskHook(func(kind patterns.Kind) {
		if n := <-taskNum; n <= 2 {
			arrived <- kind
			<-proceed
		}
	})
	defer core.SetMatchTaskHook(nil)

	// Two executors: one pool worker plus the run's helping waiter.
	pool := sched.NewPool(1, nil)
	defer pool.Close()
	done := make(chan *core.Result, 1)
	go func() {
		done <- core.Find(tr.Graph, core.Options{
			Scheduler: pool, VerifyMatches: true, DisableDecompose: true, DisableIterate: true,
		})
	}()
	var kinds []patterns.Kind
	for i := 0; i < 2; i++ {
		select {
		case k := <-arrived:
			kinds = append(kinds, k)
		case <-time.After(30 * time.Second):
			close(proceed)
			t.Fatalf("only %d of a single sub-DDG's kind tasks started concurrently; "+
				"the match scheduler is serializing per sub-DDG", i)
		}
	}
	close(proceed)
	res := <-done
	if len(res.Failures) > 0 {
		t.Fatalf("unexpected failures: %v", res.Failures)
	}
	// The sole sub-DDG schedules one task per kind, so the two concurrent
	// tasks must have been different kinds of the same sub-DDG.
	if kinds[0] == kinds[1] {
		t.Fatalf("both concurrent tasks were %v; want two distinct kinds of the one sub-DDG", kinds[0])
	}
}

// TestFindDefaultsToProcessPool: a Find with no Scheduler runs its tasks
// on sched.Default() as one owner, and deregisters that owner on return.
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
	if after.Submitted <= before.Submitted {
		t.Errorf("default pool saw no submissions: %d before, %d after", before.Submitted, after.Submitted)
	}
	if after.Owners != before.Owners {
		t.Errorf("default pool owners %d after the run, want %d as before", after.Owners, before.Owners)
	}
}
