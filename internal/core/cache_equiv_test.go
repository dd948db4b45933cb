package core

// Cache/no-cache equivalence on random programs, in-package so it reuses
// the random_test generators. Complements the corpus suite in
// equivalence_test.go; a pool of 7 workers (8 executors) makes `make
// race` exercise the matching workers sharing one cache.

import (
	"fmt"
	"testing"

	"discovery/internal/sched"
	"discovery/internal/trace"
)

// resultSig summarizes a Find outcome: final patterns plus every match
// with its provenance, in order.
func resultSig(res *Result) string {
	s := fmt.Sprintf("iters=%d;", res.Iterations)
	for _, p := range res.Patterns {
		s += p.Kind.String() + ":" + p.Nodes().Key() + ";"
	}
	for _, m := range res.Matches {
		s += fmt.Sprintf("it%d:%s:%s@%v;", m.Iteration, m.Pattern.Kind,
			m.Pattern.Nodes().Key(), m.Sub.Key())
	}
	return s
}

func TestCacheEquivalenceOnRandomPrograms(t *testing.T) {
	for seed := uint64(101); seed <= 130; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			tr, err := trace.Run(genProgram(seed))
			if err != nil {
				t.Fatalf("trace: %v", err)
			}
			pool := sched.NewPool(7, nil)
			defer pool.Close()
			opts := Options{Scheduler: pool, VerifyMatches: true}
			if seed%3 == 0 {
				opts.Extensions = true
			}

			off := opts
			off.DisableCache = true
			want := resultSig(Find(tr.Graph, off))

			if got := resultSig(Find(tr.Graph, opts)); got != want {
				t.Errorf("fresh cache diverges:\nno-cache: %s\ncached:   %s", want, got)
			}

			shared := opts
			shared.Cache = NewViewCache()
			Find(tr.Graph, shared) // prime
			res := Find(tr.Graph, shared)
			if got := resultSig(res); got != want {
				t.Errorf("warm cache diverges:\nno-cache: %s\nwarm:     %s", want, got)
			}
			if _, misses, _ := res.CacheStats(); misses != 0 {
				t.Errorf("warm run recorded %d cache miss(es)", misses)
			}
		})
	}
}

func TestSharedCacheAcrossGraphs(t *testing.T) {
	// One cache fed two different traces keeps a warm generation per graph
	// fingerprint: the interleaved runs still produce the uncached results,
	// and — the cross-run invalidation fix — returning to the first graph
	// hits its surviving generation instead of re-solving from scratch.
	cache := NewViewCache()
	for i, seed := range []uint64{131, 132, 131} {
		tr, err := trace.Run(genProgram(seed))
		if err != nil {
			t.Fatal(err)
		}
		off := Options{DisableCache: true}
		want := resultSig(Find(tr.Graph, off))
		res := Find(tr.Graph, Options{Cache: cache})
		if got := resultSig(res); got != want {
			t.Errorf("seed %d with shared cache diverges:\nwant %s\ngot  %s", seed, want, got)
		}
		if i == 2 {
			if _, misses, _ := res.CacheStats(); misses != 0 {
				t.Errorf("returning to seed 131 must be fully warm, got %d miss(es)", misses)
			}
		}
	}
	if s := cache.Snapshot(); s.Generations != 2 || s.Resets != 0 {
		t.Errorf("want 2 coexisting generations and no evictions, got %+v", s)
	}
}
