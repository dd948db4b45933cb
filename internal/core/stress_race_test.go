package core

// Concurrency stress for the shared ViewCache: many FindCtx runs in
// flight at once over one cache, mixing identical and differing graph
// fingerprints. Run under `make race` (internal/core is in the race
// target list), this exercises the three headline bugfixes at once —
// the sync.Once-guarded Pattern.Nodes memo on cache-shared patterns,
// per-fingerprint generations instead of the destructive global reset,
// and first-write-wins decided verdicts when runs race the same solve.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"discovery/internal/ddg"
	"discovery/internal/sched"
	"discovery/internal/trace"
)

func TestConcurrentFindSharedViewCache(t *testing.T) {
	// Three distinct programs — three distinct graph fingerprints — plus
	// an options variation that forks a fourth fingerprint off the first
	// graph. Baselines are computed cache-off, sequentially, up front.
	seeds := []uint64{141, 142, 144} // distinct traced-graph fingerprints
	type workload struct {
		name  string
		graph *ddg.Graph
		opts  Options
		want  string
	}
	var work []*workload
	for _, seed := range seeds {
		tr, err := trace.Run(genProgram(seed))
		if err != nil {
			t.Fatalf("trace seed %d: %v", seed, err)
		}
		work = append(work, &workload{
			name:  fmt.Sprintf("seed%d", seed),
			graph: tr.Graph,
			opts:  Options{VerifyMatches: true},
		})
	}
	work = append(work, &workload{
		name:  "seed141-extensions",
		graph: work[0].graph,
		opts:  Options{VerifyMatches: true, Extensions: true},
	})
	for _, w := range work {
		off := w.opts
		off.DisableCache = true
		w.want = resultSig(Find(w.graph, off))
	}

	cache := NewViewCache()
	const goroutines = 8
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Walk the workloads with a per-goroutine stride so cold,
				// warm, and cross-fingerprint acquisitions all overlap.
				w := work[(g+r)%len(work)]
				opts := w.opts
				opts.Cache = cache
				res := FindCtx(context.Background(), w.graph, opts)
				if got := resultSig(res); got != w.want {
					errs <- fmt.Errorf("goroutine %d round %d: %s diverges under shared cache:\nwant %s\ngot  %s",
						g, r, w.name, w.want, got)
					return
				}
				if len(res.Failures) > 0 {
					errs <- fmt.Errorf("goroutine %d round %d: %s recorded contained failures: %v",
						g, r, w.name, res.Failures)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// All four fingerprints fit the default generation bound, so nothing
	// was evicted and every generation stayed warm to the end.
	if s := cache.Snapshot(); s.Generations != len(work) || s.Resets != 0 {
		t.Errorf("want %d coexisting generations and no evictions, got %+v", len(work), s)
	}

	// A final run per workload must now be answered entirely from the
	// cache: byte-identical results with zero misses.
	for _, w := range work {
		opts := w.opts
		opts.Cache = cache
		res := Find(w.graph, opts)
		if got := resultSig(res); got != w.want {
			t.Errorf("%s: post-stress warm run diverges:\nwant %s\ngot  %s", w.name, w.want, got)
		}
		if _, misses, _ := res.CacheStats(); misses != 0 {
			t.Errorf("%s: post-stress warm run recorded %d cache miss(es)", w.name, misses)
		}
	}
}

// TestConcurrentFindSharedSchedulerPool is the determinism-under-stealing
// stress: 8 goroutines run mixed-size Finds concurrently as owners of ONE
// shared scheduler pool, so their solve tasks interleave on the same
// workers (stealing across runs is the pool's whole point). Every result
// is byte-compared against a solo cache-off baseline — scheduling may
// reorder execution, never output. The cache is off in the concurrent
// runs too, so every solve actually executes on the shared pool rather
// than short-circuiting on a warm verdict.
func TestConcurrentFindSharedSchedulerPool(t *testing.T) {
	seeds := []uint64{141, 142, 144} // mixed graph sizes and shapes
	type workload struct {
		name  string
		graph *ddg.Graph
		opts  Options
		want  string
	}
	var work []*workload
	for _, seed := range seeds {
		tr, err := trace.Run(genProgram(seed))
		if err != nil {
			t.Fatalf("trace seed %d: %v", seed, err)
		}
		work = append(work, &workload{
			name:  fmt.Sprintf("seed%d", seed),
			graph: tr.Graph,
			opts:  Options{VerifyMatches: true, DisableCache: true},
		})
	}
	work = append(work, &workload{
		name:  "seed141-extensions",
		graph: work[0].graph,
		opts:  Options{VerifyMatches: true, DisableCache: true, Extensions: true},
	})
	// Solo baselines on a zero-worker pool: the sequential reference.
	solo := sched.NewPool(0, nil)
	defer solo.Close()
	for _, w := range work {
		opts := w.opts
		opts.Scheduler = solo
		w.want = resultSig(Find(w.graph, opts))
	}

	pool := sched.NewPool(4, nil)
	defer pool.Close()
	const goroutines = 8
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				w := work[(g+r)%len(work)]
				opts := w.opts
				opts.Scheduler = pool
				res := FindCtx(context.Background(), w.graph, opts)
				if got := resultSig(res); got != w.want {
					errs <- fmt.Errorf("goroutine %d round %d: %s diverges on the shared pool:\nwant %s\ngot  %s",
						g, r, w.name, w.want, got)
					return
				}
				if len(res.Failures) > 0 {
					errs <- fmt.Errorf("goroutine %d round %d: %s recorded contained failures: %v",
						g, r, w.name, res.Failures)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The pool must be fully drained — every owner closed, nothing queued —
	// and must actually have been shared: 32 runs' worth of tasks all
	// flowed through these 4 workers and their helping waiters.
	st := pool.Stats()
	if st.Owners != 0 || st.Queued != 0 || st.Running != 0 {
		t.Errorf("pool not drained after all runs: %+v", st)
	}
	if st.Completed == 0 || st.Completed != st.Submitted {
		t.Errorf("task accounting unbalanced: %+v", st)
	}
}

// TestSharedSchedulerPoolWithSharedCache layers both process-wide
// resources at once — one scheduler pool AND one view cache across
// concurrent mixed runs — the daemon's actual configuration. Warm rounds
// resolve mostly at enumeration time (cache hits submit no solver work),
// cold rounds flood the pool; both must stay byte-identical to the solo
// cache-off baselines.
func TestSharedSchedulerPoolWithSharedCache(t *testing.T) {
	seeds := []uint64{141, 142}
	type workload struct {
		name  string
		graph *ddg.Graph
		opts  Options
		want  string
	}
	var work []*workload
	for _, seed := range seeds {
		tr, err := trace.Run(genProgram(seed))
		if err != nil {
			t.Fatalf("trace seed %d: %v", seed, err)
		}
		work = append(work, &workload{
			name:  fmt.Sprintf("seed%d", seed),
			graph: tr.Graph,
			opts:  Options{VerifyMatches: true, Extensions: true},
		})
	}
	for _, w := range work {
		off := w.opts
		off.DisableCache = true
		w.want = resultSig(Find(w.graph, off))
	}

	pool := sched.NewPool(3, nil)
	defer pool.Close()
	cache := NewViewCache()
	const goroutines = 6
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				w := work[(g+r)%len(work)]
				opts := w.opts
				opts.Scheduler = pool
				opts.Cache = cache
				res := FindCtx(context.Background(), w.graph, opts)
				if got := resultSig(res); got != w.want {
					errs <- fmt.Errorf("goroutine %d round %d: %s diverges (shared pool + cache):\nwant %s\ngot  %s",
						g, r, w.name, w.want, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Fully warm run on the shared pool: answered from the cache with zero
	// misses, still byte-identical.
	for _, w := range work {
		opts := w.opts
		opts.Scheduler = pool
		opts.Cache = cache
		res := Find(w.graph, opts)
		if got := resultSig(res); got != w.want {
			t.Errorf("%s: warm shared-pool run diverges:\nwant %s\ngot  %s", w.name, w.want, got)
		}
		if _, misses, _ := res.CacheStats(); misses != 0 {
			t.Errorf("%s: warm shared-pool run recorded %d cache miss(es)", w.name, misses)
		}
	}
}
