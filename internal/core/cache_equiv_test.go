package core

// Cache/no-cache equivalence on random programs, in-package so it reuses
// the random_test generators. Complements the corpus suite in
// equivalence_test.go; a pool of 7 workers (8 executors) makes `make
// race` exercise the matching workers sharing one cache.

import (
	"fmt"
	"testing"

	"discovery/internal/obs"
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

			want := resultSig(Find(tr.Graph, opts))

			shared := opts
			shared.Cache = NewViewCache()
			if got := resultSig(Find(tr.Graph, shared)); got != want {
				t.Errorf("fresh cache diverges:\nno-cache: %s\ncached:   %s", want, got)
			}
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
		want := resultSig(Find(tr.Graph, Options{}))
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
	if s := cache.Snapshot(); s.Generations != 2 || s.Evictions != 0 {
		t.Errorf("want 2 coexisting generations and no evictions, got %+v", s)
	}
}

// TestFindWithoutCacheKeepsNone: a Find given no Options.Cache keeps no
// cache of its own. It runs no cache phase, emits no cache-prepare span,
// hashes no sub-DDG view, and books no cache hits or misses — also in the
// pipeline pass. The same run given a cache does all four, which shows
// the checks can see them.
func TestFindWithoutCacheKeepsNone(t *testing.T) {
	tr, err := trace.Run(genProgram(102))
	if err != nil {
		t.Fatal(err)
	}
	run := func(cache *ViewCache) (res *Result, cachePhase, prepareSpan, hashed bool) {
		c := obs.NewCollector()
		res = Find(tr.Graph, Options{
			Extensions: true, Cache: cache, Obs: c,
			PhaseHook: func(p string) { cachePhase = cachePhase || p == "cache" },
		})
		for _, s := range c.Spans() {
			prepareSpan = prepareSpan || s.Name == "cache-prepare"
		}
		for _, m := range res.Matches {
			hashed = hashed || !m.Sub.vhash.IsZero()
		}
		return res, cachePhase, prepareSpan, hashed
	}

	res, cachePhase, prepareSpan, hashed := run(nil)
	if len(res.Matches) == 0 {
		t.Fatal("no matches: the view-hash check sees nothing")
	}
	if cachePhase || prepareSpan {
		t.Errorf("no cache given, yet the cache phase ran (hook %v, span %v)", cachePhase, prepareSpan)
	}
	if hashed {
		t.Error("no cache given, yet a matched sub-DDG's view was hashed")
	}
	if hits, misses, _ := res.CacheStats(); hits+misses != 0 {
		t.Errorf("no cache given, yet %d hit(s) and %d miss(es) were booked", hits, misses)
	}

	res, cachePhase, prepareSpan, hashed = run(NewViewCache())
	if hits, misses, _ := res.CacheStats(); !cachePhase || !prepareSpan || !hashed || misses == 0 {
		t.Errorf("with a cache: phase %v, span %v, hashed %v, %d hit(s), %d miss(es); want all and misses",
			cachePhase, prepareSpan, hashed, hits, misses)
	}
}
