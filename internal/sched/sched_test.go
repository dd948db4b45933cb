package sched

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"discovery/internal/obs"
)

// TestPoolRunsAllTasks: every submitted task runs exactly once, across
// submission batches and Wait rounds.
func TestPoolRunsAllTasks(t *testing.T) {
	p := NewPool(3, nil)
	defer p.Close()
	o := p.NewOwner(context.Background())
	defer o.Close()

	var ran atomic.Int64
	for round := 0; round < 4; round++ {
		var tasks []Task
		for i := 0; i < 50; i++ {
			tasks = append(tasks, Task{Do: func(expired bool) {
				if expired {
					t.Error("unexpected expired task")
				}
				ran.Add(1)
			}})
		}
		o.Submit(tasks...)
		o.Wait()
	}
	if got := ran.Load(); got != 200 {
		t.Fatalf("ran %d tasks, want 200", got)
	}
	st := p.Stats()
	if st.Submitted != 200 || st.Completed != 200 || st.Queued != 0 || st.Running != 0 {
		t.Fatalf("stats after drain: %+v", st)
	}
}

// TestZeroWorkerPoolHelps: a pool with no worker goroutines still
// completes all work — the waiting owner executes its own tasks. This is
// the degenerate case that makes the scheduler safe as a default: pool
// capacity can never deadlock an owner.
func TestZeroWorkerPoolHelps(t *testing.T) {
	p := NewPool(0, nil)
	defer p.Close()
	o := p.NewOwner(nil)
	defer o.Close()

	var ran int // no atomics needed: only the helping goroutine executes
	for i := 0; i < 20; i++ {
		o.Submit(Task{Do: func(expired bool) { ran++ }})
	}
	o.Wait()
	if ran != 20 {
		t.Fatalf("ran %d tasks, want 20", ran)
	}
	if st := p.Stats(); st.Helped != 20 {
		t.Fatalf("Helped = %d, want 20", st.Helped)
	}
}

// TestPriorityClasses: with a single executor (the helping waiter), tasks
// run in (class, submission) order regardless of submission order.
func TestPriorityClasses(t *testing.T) {
	p := NewPool(0, nil)
	defer p.Close()
	o := p.NewOwner(nil)
	defer o.Close()

	var order []int
	mark := func(id int) Task {
		return Task{Class: id / 100, Do: func(expired bool) { order = append(order, id) }}
	}
	// Submit out of class order: class 2, 0, 1, 0.
	o.Submit(mark(200), mark(1), mark(100), mark(2))
	o.Wait()
	want := []int{1, 2, 100, 200}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestSubmitFromTask: a running task may submit follow-up work to its own
// owner, and Wait covers it.
func TestSubmitFromTask(t *testing.T) {
	p := NewPool(2, nil)
	defer p.Close()
	o := p.NewOwner(nil)
	defer o.Close()

	var ran atomic.Int64
	o.Submit(Task{Do: func(expired bool) {
		ran.Add(1)
		o.Submit(Task{Do: func(expired bool) { ran.Add(1) }})
	}})
	o.Wait()
	if got := ran.Load(); got != 2 {
		t.Fatalf("ran %d tasks, want 2", got)
	}
}

// TestDeadlineExpiry: tasks claimed past their deadline are dropped —
// Do(true) runs for bookkeeping, and the pool counts them expired.
func TestDeadlineExpiry(t *testing.T) {
	p := NewPool(1, nil)
	defer p.Close()
	o := p.NewOwner(nil)
	defer o.Close()

	var live, dropped atomic.Int64
	past := time.Now().Add(-time.Hour)
	for i := 0; i < 10; i++ {
		o.Submit(Task{Deadline: past, Do: func(expired bool) {
			if expired {
				dropped.Add(1)
			} else {
				live.Add(1)
			}
		}})
	}
	o.Wait()
	if live.Load() != 0 || dropped.Load() != 10 {
		t.Fatalf("live=%d dropped=%d, want 0/10", live.Load(), dropped.Load())
	}
	if st := p.Stats(); st.Expired != 10 {
		t.Fatalf("Stats.Expired = %d, want 10", st.Expired)
	}
}

// TestOwnerContextExpiry: cancelling the owner's context drops every task
// claimed afterwards.
func TestOwnerContextExpiry(t *testing.T) {
	p := NewPool(0, nil) // no workers: nothing claims until Wait helps
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	o := p.NewOwner(ctx)
	defer o.Close()

	var dropped int
	for i := 0; i < 5; i++ {
		o.Submit(Task{Do: func(expired bool) {
			if expired {
				dropped++
			}
		}})
	}
	cancel()
	o.Wait()
	if dropped != 5 {
		t.Fatalf("dropped %d tasks, want 5", dropped)
	}
}

// awaitCompleted spins until the pool has completed n tasks. Used by the
// claim-order tests, which must not call Wait (the helping waiter would
// execute the tasks itself and hide the worker's claim order).
func awaitCompleted(t *testing.T, p *Pool, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for p.Stats().Completed < n {
		if time.Now().After(deadline) {
			t.Fatalf("pool stuck at %+v, want %d completed", p.Stats(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStealsAcrossOwners: a pool worker that drains one owner's deque
// moves on to another owner's, and the switch is counted as a steal. The
// worker is pinned on a gated first task so both queues are populated
// before it claims again, and no goroutine Waits (helping would race the
// worker for the tasks).
func TestStealsAcrossOwners(t *testing.T) {
	p := NewPool(1, nil)
	defer p.Close()

	a := p.NewOwner(nil)
	b := p.NewOwner(nil)

	claimed := make(chan struct{})
	gate := make(chan struct{})
	var bRan atomic.Int64
	a.Submit(Task{Do: func(expired bool) { close(claimed); <-gate }})
	<-claimed // the worker holds a's task
	for i := 0; i < 3; i++ {
		b.Submit(Task{Do: func(expired bool) { bRan.Add(1) }})
	}
	close(gate)
	awaitCompleted(t, p, 4)
	if bRan.Load() != 3 {
		t.Fatalf("bRan = %d, want 3", bRan.Load())
	}
	// The worker's only path to b's tasks was a switch away from a.
	if st := p.Stats(); st.Steals == 0 {
		t.Fatalf("Stats.Steals = 0, want > 0 (stats %+v)", st)
	}
	a.Close()
	b.Close()
}

// TestUrgentOwnerPreempts: a later owner's class-0 task is claimed before
// an earlier owner's class-1 backlog — the anti-starvation property the
// shared pool exists for (a small warm request never queues behind a
// large cold one whole). Same pinning discipline as the steal test: the
// single worker is the only executor, so its first claim after the gate
// is the claim scan's verdict.
func TestUrgentOwnerPreempts(t *testing.T) {
	p := NewPool(1, nil)
	defer p.Close()

	slow := p.NewOwner(nil)
	fast := p.NewOwner(nil)

	claimed := make(chan struct{})
	gate := make(chan struct{})
	var mu sync.Mutex
	var order []string
	mark := func(tag string) func(bool) {
		return func(expired bool) {
			mu.Lock()
			order = append(order, tag)
			mu.Unlock()
		}
	}
	slow.Submit(Task{Class: 0, Do: func(expired bool) { close(claimed); <-gate }})
	<-claimed
	for i := 0; i < 4; i++ {
		slow.Submit(Task{Class: 1, Do: mark("slow")})
	}
	fast.Submit(Task{Class: 0, Do: mark("fast")})
	close(gate)
	awaitCompleted(t, p, 6)

	mu.Lock()
	defer mu.Unlock()
	if len(order) != 5 || order[0] != "fast" {
		t.Fatalf("claim order = %v, want the class-0 task first", order)
	}
	slow.Close()
	fast.Close()
}

// TestTaskPanicContained: a panicking task is counted and does not kill
// the worker or wedge Wait.
func TestTaskPanicContained(t *testing.T) {
	p := NewPool(1, nil)
	defer p.Close()
	o := p.NewOwner(nil)
	defer o.Close()

	var after atomic.Bool
	o.Submit(
		Task{Do: func(expired bool) { panic("task bug") }},
		Task{Do: func(expired bool) { after.Store(true) }},
	)
	o.Wait()
	if !after.Load() {
		t.Fatal("task after the panicking one did not run")
	}
	if st := p.Stats(); st.Panics != 1 {
		t.Fatalf("Stats.Panics = %d, want 1", st.Panics)
	}
}

// TestConcurrentOwners: many owners submitting and waiting concurrently
// under -race; all work completes, counts balance.
func TestConcurrentOwners(t *testing.T) {
	p := NewPool(4, nil)
	defer p.Close()

	const owners, perOwner = 8, 120
	var total atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < owners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := p.NewOwner(context.Background())
			defer o.Close()
			for j := 0; j < perOwner; j++ {
				o.Submit(Task{Class: j % 3, Do: func(expired bool) { total.Add(1) }})
				if j%30 == 0 {
					o.Wait()
				}
			}
			o.Wait()
		}()
	}
	wg.Wait()
	if got := total.Load(); got != owners*perOwner {
		t.Fatalf("ran %d tasks, want %d", got, owners*perOwner)
	}
	st := p.Stats()
	if st.Queued != 0 || st.Running != 0 || st.Owners != 0 {
		t.Fatalf("pool not drained: %+v", st)
	}
	if st.Completed != owners*perOwner {
		t.Fatalf("Completed = %d, want %d", st.Completed, owners*perOwner)
	}
}

// TestMetricsEmitted: the pool reports its gauges and counters under the
// canonical discovery_sched_* names.
func TestMetricsEmitted(t *testing.T) {
	rec := obs.NewCollector()
	p := NewPool(2, rec)
	o := p.NewOwner(nil)
	o.Submit(Task{Do: func(expired bool) {}})
	o.Submit(Task{Deadline: time.Now().Add(-time.Second), Do: func(expired bool) {}})
	o.Wait()
	o.Close()
	p.Close()

	text := obs.Prometheus(rec.Metrics())
	for _, name := range []string{
		obs.MetricSchedWorkers,
		obs.MetricSchedQueueDepth,
		obs.MetricSchedTasks,
		obs.MetricSchedExpired,
	} {
		if !contains(text, name) {
			t.Errorf("metric %q missing from exposition:\n%s", name, text)
		}
	}
}

func contains(haystack, needle string) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}

// TestCloseIdempotent: double Close is safe; Close drains nothing by
// itself but returns once workers exit.
func TestCloseIdempotent(t *testing.T) {
	p := NewPool(2, nil)
	o := p.NewOwner(nil)
	var ran atomic.Int64
	o.Submit(Task{Do: func(expired bool) { ran.Add(1) }})
	o.Wait()
	o.Close()
	p.Close()
	p.Close()
	if ran.Load() != 1 {
		t.Fatalf("ran = %d, want 1", ran.Load())
	}
}

// TestExecutors: the per-owner parallel capacity is workers + the helping
// waiter.
func TestExecutors(t *testing.T) {
	if got := NewPool(0, nil).Executors(); got != 1 {
		t.Fatalf("Executors() = %d, want 1", got)
	}
	p := NewPool(3, nil)
	defer p.Close()
	if got := p.Executors(); got != 4 {
		t.Fatalf("Executors() = %d, want 4", got)
	}
}

// TestDefaultPool: Default is one lazily built pool, the same on every
// call, sized GOMAXPROCS−1 so a run plus its helping waiter sees
// GOMAXPROCS executors.
func TestDefaultPool(t *testing.T) {
	p := Default()
	if Default() != p {
		t.Fatal("Default() returned two different pools")
	}
	if got, want := p.Workers(), max(runtime.GOMAXPROCS(0)-1, 0); got != want {
		t.Fatalf("Default().Workers() = %d, want %d", got, want)
	}
}
