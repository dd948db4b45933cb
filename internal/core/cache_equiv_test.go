package core_test

// Cache/no-cache equivalence on random programs and the warm-run
// accounting of the view cache. A pool of 7 workers (8 executors) makes
// `make race` exercise the matching workers sharing one cache.

import (
	"fmt"
	"testing"

	"discovery/internal/core"
	"discovery/internal/mir"
	"discovery/internal/obs"
	"discovery/internal/patterns"
	"discovery/internal/report"
	"discovery/internal/sched"
	"discovery/internal/starbench"
	"discovery/internal/trace"
)

func TestCacheEquivalenceOnRandomPrograms(t *testing.T) {
	for seed := uint64(101); seed <= 130; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			tr, err := trace.Run(core.GenRandomProgram(seed))
			if err != nil {
				t.Fatalf("trace: %v", err)
			}
			pool := sched.NewPool(7, nil)
			defer pool.Close()
			opts := core.Options{Scheduler: pool, VerifyMatches: true}
			if seed%3 == 0 {
				opts.Extensions = true
			}

			want := findSig(core.Find(tr.Graph, opts))

			shared := opts
			shared.Cache = core.NewViewCache()
			if got := findSig(core.Find(tr.Graph, shared)); got != want {
				t.Errorf("fresh cache diverges:\nno-cache: %s\ncached:   %s", want, got)
			}
			res := core.Find(tr.Graph, shared)
			if got := findSig(res); got != want {
				t.Errorf("warm cache diverges:\nno-cache: %s\nwarm:     %s", want, got)
			}
			if _, misses, _ := res.CacheStats(); misses != 0 {
				t.Errorf("warm run recorded %d cache miss(es)", misses)
			}
		})
	}
}

// TestWarmRunAnswersFromCache: a warm run answers every sub-DDG and
// pipeline stage pair from the entries its cold run stored. Per kind it
// books as many cache hits as the cold run booked misses, it computes no
// prescreen census, and both runs render the reports of a run without a
// cache byte for byte.
func TestWarmRunAnswersFromCache(t *testing.T) {
	type program struct {
		name string
		prog *mir.Program
		opts core.Options
	}
	var progs []program
	add := func(name string, v starbench.Version, tag string, opts core.Options) {
		b := starbench.Lookup(name)
		progs = append(progs, program{name + "/" + string(v) + tag, b.Build(v, b.Analysis).Prog, opts})
	}
	for _, b := range starbench.All() {
		for _, v := range starbench.Versions() {
			add(b.Name, v, "", core.Options{VerifyMatches: true})
		}
	}
	// With extensions on: the pipeline workloads store stage-pair
	// entries. ray-rot is left out: its extension pass is far too slow
	// for the tier-1 suite, cache or no cache.
	ext := core.Options{VerifyMatches: true, Extensions: true}
	for _, b := range starbench.Extended() {
		add(b.Name, starbench.Pthreads, "/extensions", ext)
	}
	add("rot-cc", starbench.Pthreads, "/extensions", ext)
	add("streamcluster", starbench.Pthreads, "/extensions", ext)
	for seed := uint64(101); seed <= 130; seed++ {
		progs = append(progs, program{fmt.Sprintf("seed%d/extensions", seed), core.GenRandomProgram(seed), ext})
	}
	// A view-size gate that skips sub-DDGs stores skipped entries.
	add("md5", starbench.Pthreads, "/gated", core.Options{VerifyMatches: true, MaxViewGroups: 4})

	reportOf := func(prog *mir.Program, res *core.Result) string {
		s := report.Text(prog, res)
		if !res.Degraded() {
			return s + report.Summary(res)
		}
		// A degraded summary lists the matcher effort and prescreen
		// activity, which a warm run does not spend.
		return s + fmt.Sprintf("%d patterns, %d matches, %d skipped views",
			len(res.Patterns), len(res.Matches), res.SkippedViews)
	}
	var pairs, skipped int // what the programs exercise
	for _, p := range progs {
		p := p
		t.Run(p.name, func(t *testing.T) {
			tr, err := trace.Run(p.prog)
			if err != nil {
				t.Fatalf("trace: %v", err)
			}
			want := reportOf(p.prog, core.Find(tr.Graph, p.opts))
			shared := p.opts
			shared.Cache = core.NewViewCache()
			cold := core.Find(tr.Graph, shared)
			warm := core.Find(tr.Graph, shared)
			pairs += cold.SolverStats[patterns.KindPipeline].CacheMisses
			skipped += warm.SkippedViews

			if hits, misses, _ := cold.CacheStats(); hits != 0 || misses == 0 {
				t.Errorf("cold run: %d hit(s), %d miss(es); want none and some", hits, misses)
			}
			for kind, ks := range cold.SolverStats {
				if w := warm.SolverStats[kind]; w.CacheHits != ks.CacheMisses || w.CacheMisses != 0 {
					t.Errorf("%v: warm run booked %d hit(s) and %d miss(es), cold run %d miss(es)",
						kind, w.CacheHits, w.CacheMisses, ks.CacheMisses)
				}
			}
			for kind := range warm.SolverStats {
				if _, ok := cold.SolverStats[kind]; !ok {
					t.Errorf("%v: warm run booked what the cold run did not", kind)
				}
			}
			if checks, skips := warm.PrescreenStats(); checks != 0 || skips != 0 {
				t.Errorf("warm run computed %d census(es) answering %d solve(s)", checks, skips)
			}
			if got := reportOf(p.prog, cold); got != want {
				t.Errorf("cold run's report differs from the uncached one:\n--- no cache ---\n%s--- cold ---\n%s", want, got)
			}
			if got := reportOf(p.prog, warm); got != want {
				t.Errorf("warm run's report differs from the uncached one:\n--- no cache ---\n%s--- warm ---\n%s", want, got)
			}
		})
	}
	if pairs == 0 || skipped == 0 {
		t.Errorf("the programs stored %d stage-pair and %d skipped entries; want some of each", pairs, skipped)
	}
}

func TestSharedCacheAcrossGraphs(t *testing.T) {
	// One cache fed two different traces keeps a warm generation per graph
	// fingerprint: the interleaved runs still produce the uncached results,
	// and — the cross-run invalidation fix — returning to the first graph
	// hits its surviving generation instead of re-solving from scratch.
	cache := core.NewViewCache()
	for i, seed := range []uint64{131, 132, 131} {
		tr, err := trace.Run(core.GenRandomProgram(seed))
		if err != nil {
			t.Fatal(err)
		}
		want := findSig(core.Find(tr.Graph, core.Options{}))
		res := core.Find(tr.Graph, core.Options{Cache: cache})
		if got := findSig(res); got != want {
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
// and books no cache hits or misses — also in the pipeline pass. The same
// run given a cache does all three, which shows the checks can see them.
func TestFindWithoutCacheKeepsNone(t *testing.T) {
	tr, err := trace.Run(core.GenRandomProgram(102))
	if err != nil {
		t.Fatal(err)
	}
	run := func(cache *core.ViewCache) (res *core.Result, cachePhase, prepareSpan bool) {
		c := obs.NewCollector()
		res = core.Find(tr.Graph, core.Options{
			Extensions: true, Cache: cache, Obs: c,
			PhaseHook: func(p string) { cachePhase = cachePhase || p == "cache" },
		})
		for _, s := range c.Spans() {
			prepareSpan = prepareSpan || s.Name == "cache-prepare"
		}
		return res, cachePhase, prepareSpan
	}

	res, cachePhase, prepareSpan := run(nil)
	if cachePhase || prepareSpan {
		t.Errorf("no cache given, yet the cache phase ran (hook %v, span %v)", cachePhase, prepareSpan)
	}
	if hits, misses, _ := res.CacheStats(); hits+misses != 0 {
		t.Errorf("no cache given, yet %d hit(s) and %d miss(es) were booked", hits, misses)
	}

	res, cachePhase, prepareSpan = run(core.NewViewCache())
	if hits, misses, _ := res.CacheStats(); !cachePhase || !prepareSpan || misses == 0 {
		t.Errorf("with a cache: phase %v, span %v, %d hit(s), %d miss(es); want both and misses",
			cachePhase, prepareSpan, hits, misses)
	}
}
