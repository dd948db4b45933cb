package sched

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"discovery/internal/obs"
)

// TestPoolRunsAllTasks: a sweep runs every index exactly once, on pools
// of 0, 1 and 4 workers, sweep after sweep, and leaves the pool drained.
func TestPoolRunsAllTasks(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			p := NewPool(workers, nil)
			defer p.Close()
			p.Sweep(context.Background(), 0, func(int) { t.Error("item of an empty sweep ran") })
			for _, n := range []int{1, 3, 50, 200} {
				runs := make([]atomic.Int32, n)
				p.Sweep(context.Background(), n, func(i int) { runs[i].Add(1) })
				for i := range runs {
					if got := runs[i].Load(); got != 1 {
						t.Fatalf("n=%d: index %d ran %d times, want 1", n, i, got)
					}
				}
			}
			st := p.Stats()
			if st.Queued != 0 || st.Running != 0 || st.Helped != 4 || st.Expired != 0 {
				t.Fatalf("stats after four sweeps: %+v", st)
			}
		})
	}
}

// TestZeroWorkerPoolHelps: a pool with no worker goroutines runs the
// whole sweep on its caller. This is the degenerate case that makes the
// scheduler safe as a default: pool capacity can never stall a sweep.
func TestZeroWorkerPoolHelps(t *testing.T) {
	p := NewPool(0, nil)
	defer p.Close()
	var order []int // no atomics needed: only the caller executes
	p.Sweep(context.Background(), 20, func(i int) { order = append(order, i) })
	if len(order) != 20 {
		t.Fatalf("ran %d items, want 20", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("caller claimed %v, want indices in order", order)
		}
	}
	if st := p.Stats(); st.Helped != 1 || st.Steals != 0 || st.Queued != 0 {
		t.Fatalf("stats = %+v, want one sweep on its caller and no offer", st)
	}
}

// hold occupies the only worker of a 1-worker pool inside an item of a
// 2-item sweep, and returns a function that releases it and waits for
// that sweep to return. Both items are running once hold returns, so one
// of them is on the worker.
func hold(p *Pool) (release func()) {
	arrived := make(chan struct{}, 2)
	gate := make(chan struct{})
	done := make(chan struct{})
	go func() {
		p.Sweep(context.Background(), 2, func(int) {
			arrived <- struct{}{}
			<-gate
		})
		close(done)
	}()
	<-arrived
	<-arrived
	return func() {
		close(gate)
		<-done
	}
}

// await spins until cond holds on the pool's stats.
func await(t *testing.T, p *Pool, what string, cond func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond(p.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("pool stuck at %+v, waiting for %s", p.Stats(), what)
		}
		time.Sleep(time.Millisecond)
	}
}

// expireOffer runs a sweep on a 1-worker pool whose offer the worker
// takes only after the sweep's context is done: the caller is inside the
// sweep's first item, with the worker held, when the context is
// cancelled, and then the worker is released. It returns how many items
// of that sweep ran.
func expireOffer(t *testing.T, p *Pool) int64 {
	t.Helper()
	release := hold(p)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	entered := make(chan struct{})
	gate := make(chan struct{})
	done := make(chan struct{})
	var ran atomic.Int64
	go func() {
		p.Sweep(ctx, 100, func(int) {
			if ran.Add(1) == 1 {
				close(entered)
				<-gate
			}
		})
		close(done)
	}()
	<-entered
	if st := p.Stats(); st.Queued != 1 {
		t.Fatalf("stats = %+v, want the sweep's one offer queued behind the held worker", st)
	}
	cancel()
	release()
	await(t, p, "the offer to expire", func(st Stats) bool { return st.Expired == 1 })
	close(gate)
	<-done
	return ran.Load()
}

// TestOwnerContextExpiry: once the sweeping caller's context is done, no
// item starts: the caller stops claiming, and a worker drops the sweep's
// offer at take and books it as expired. A sweep whose context is done
// before it starts runs nothing.
func TestOwnerContextExpiry(t *testing.T) {
	p := NewPool(1, nil)
	defer p.Close()
	if ran := expireOffer(t, p); ran != 1 {
		t.Fatalf("%d items ran, want only the one claimed before the cancel", ran)
	}
	if st := p.Stats(); st.Expired != 1 || st.Queued != 0 || st.Running != 0 {
		t.Fatalf("stats = %+v, want one expired offer and a drained pool", st)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p.Sweep(ctx, 10, func(int) { t.Error("item ran under a done context") })
}

// TestUrgentSweepRunsOnCaller: a sweep never waits for pool capacity.
// With a 1-worker pool's worker held inside another sweep's item, a
// sweep of 100 items finishes on its caller before the worker is
// released, and its offer is withdrawn, not run later.
func TestUrgentSweepRunsOnCaller(t *testing.T) {
	p := NewPool(1, nil)
	defer p.Close()
	release := hold(p)
	var ran int // no atomics needed: only the caller executes
	p.Sweep(context.Background(), 100, func(int) { ran++ })
	if ran != 100 {
		t.Fatalf("ran %d items with the worker held, want 100", ran)
	}
	if st := p.Stats(); st.Queued != 0 || st.Steals != 1 {
		t.Fatalf("stats = %+v, want the offer withdrawn and only the held sweep's offer run", st)
	}
	release()
	if st := p.Stats(); st.Steals != 1 || st.Expired != 0 || st.Running != 0 {
		t.Fatalf("stats = %+v, want the withdrawn offer dropped unrun", st)
	}
}

// TestTaskPanicContained: a panic escaping an item is counted by the
// last-resort boundary, and the claimer goes on, so every other index
// still runs and no worker dies.
func TestTaskPanicContained(t *testing.T) {
	for _, workers := range []int{0, 1} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			p := NewPool(workers, nil)
			defer p.Close()
			var ran atomic.Int64
			p.Sweep(context.Background(), 10, func(i int) {
				if i == 3 {
					panic("item bug")
				}
				ran.Add(1)
			})
			if got := ran.Load(); got != 9 {
				t.Fatalf("ran %d items, want 9 (all but the panicking one)", got)
			}
			p.Sweep(context.Background(), 4, func(int) { ran.Add(1) })
			if got := ran.Load(); got != 13 {
				t.Fatalf("ran %d items after a second sweep, want 13", got)
			}
			if st := p.Stats(); st.Panics != 1 || st.Running != 0 {
				t.Fatalf("stats = %+v, want one panic and a drained pool", st)
			}
		})
	}
}

// TestConcurrentOwners: many callers sweep concurrently on one pool under
// -race; every item runs once and the pool ends drained.
func TestConcurrentOwners(t *testing.T) {
	p := NewPool(4, nil)
	defer p.Close()

	const callers, sweeps, n = 8, 15, 40
	var total atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < sweeps; s++ {
				p.Sweep(context.Background(), n, func(int) { total.Add(1) })
			}
		}()
	}
	wg.Wait()
	if got := total.Load(); got != callers*sweeps*n {
		t.Fatalf("ran %d items, want %d", got, callers*sweeps*n)
	}
	st := p.Stats()
	if st.Queued != 0 || st.Running != 0 || st.Helped != callers*sweeps {
		t.Fatalf("pool not drained or sweeps miscounted: %+v", st)
	}
}

// TestMetricsEmitted: the pool reports its gauges, counters and task
// histogram under the canonical discovery_sched_* names.
func TestMetricsEmitted(t *testing.T) {
	rec := obs.NewCollector()
	p := NewPool(1, rec)
	expireOffer(t, p) // a stolen offer, a queued one, and an expired one
	p.Close()

	text := obs.Prometheus(rec.Metrics())
	for _, name := range []string{
		obs.MetricSchedWorkers,
		obs.MetricSchedQueueDepth,
		obs.MetricSchedTasks,
		obs.MetricSchedSteals,
		obs.MetricSchedExpired,
		obs.MetricSchedTaskSeconds,
	} {
		if !strings.Contains(text, name) {
			t.Errorf("metric %q missing from exposition:\n%s", name, text)
		}
	}
}

// TestCloseIdempotent: double Close is safe, and a sweep after Close runs
// whole on its caller.
func TestCloseIdempotent(t *testing.T) {
	p := NewPool(2, nil)
	p.Close()
	p.Close()
	var ran int // no atomics needed: only the caller executes
	p.Sweep(context.Background(), 10, func(int) { ran++ })
	if ran != 10 {
		t.Fatalf("ran = %d after Close, want 10", ran)
	}
	if st := p.Stats(); st.Steals != 0 || st.Queued != 0 {
		t.Fatalf("stats = %+v, want no offer on a closed pool", st)
	}
}

// TestExecutors: a sweep sees workers+1 executors — the pool's workers
// plus its caller — and never more. The first workers+1 items wait until
// all of them are running at once.
func TestExecutors(t *testing.T) {
	for _, workers := range []int{0, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			p := NewPool(workers, nil)
			defer p.Close()
			executors := int32(workers + 1)
			all := make(chan struct{})
			var arrived, running, peak atomic.Int32
			p.Sweep(context.Background(), 64, func(i int) {
				r := running.Add(1)
				for old := peak.Load(); r > old && !peak.CompareAndSwap(old, r); old = peak.Load() {
				}
				if arrived.Add(1) == executors {
					close(all)
				}
				if i < int(executors) {
					select {
					case <-all:
					case <-time.After(10 * time.Second):
					}
				}
				running.Add(-1)
			})
			if got := peak.Load(); got != executors {
				t.Fatalf("peak of %d items running at once, want %d", got, executors)
			}
		})
	}
}

// TestDefaultPool: Default is one lazily built pool, the same on every
// call, sized GOMAXPROCS−1 so a sweep plus its caller sees GOMAXPROCS
// executors.
func TestDefaultPool(t *testing.T) {
	p := Default()
	if Default() != p {
		t.Fatal("Default() returned two different pools")
	}
	if got, want := p.Stats().Workers, max(runtime.GOMAXPROCS(0)-1, 0); got != want {
		t.Fatalf("Default() has %d workers, want %d", got, want)
	}
}
