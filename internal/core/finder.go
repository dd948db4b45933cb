package core

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"discovery/internal/analysis"
	"discovery/internal/ddg"
	"discovery/internal/obs"
	"discovery/internal/patterns"
	"discovery/internal/sched"
)

// Options configures the pattern finder. The Disable* switches exist for
// the ablation studies: the paper reports (§5) that disabling
// decomposition and compaction makes the solver exhaust its memory even on
// the smallest benchmark, and (§6.1) that seven patterns need a second and
// two a third iteration.
type Options struct {
	// Scheduler is the solve pool this run sweeps its parallel phases on
	// (see internal/sched). Nil — the default — means the process default
	// pool (sched.Default), which with the run's own goroutine gives
	// GOMAXPROCS executors. The daemon passes one sized pool of its own so
	// its metrics reach the daemon's registry. Every sweep runs on its
	// run's goroutine and offers itself to the pool's workers, which take
	// the offers of all runs sharing the pool in arrival order, so a small
	// warm run never queues behind a large cold one. Scheduling never
	// changes output, only execution order: results are folded in index
	// order whichever executor produced them.
	Scheduler *sched.Pool
	// VerifyMatches re-checks every match against the unrelaxed §4
	// definitions and drops violators (none arise in our experiments,
	// mirroring the paper's observation).
	VerifyMatches bool
	// MaxViewGroups skips matching views larger than this many groups,
	// standing in for the paper's solver memory limit. 0 means 10000.
	MaxViewGroups int

	// Budget bounds the whole Find run's wall-clock time, the paper's
	// per-solve limits lifted to an end-to-end deadline: when it expires,
	// the remaining work is abandoned and the Result is labeled
	// Interrupted instead of being silently smaller. 0 means no global
	// budget (any context passed to FindCtx still applies).
	Budget time.Duration

	// Extensions enables the pattern kinds beyond the paper's evaluated
	// set (stencils and tree reductions, from the paper's future work).
	// Off by default so Table 3 behaviour is the baseline.
	Extensions bool

	// SpillBudget, when positive, bounds the resident arc bytes of the
	// graph the finder matches on: after simplification, a graph whose
	// CSR arc arrays exceed the budget is spilled out of core
	// (ddg.SpillArcs) and paged back through a resident set of at most
	// this many bytes. Spilling never changes output — only where the
	// adjacency bytes live — so it is not part of any cache fingerprint.
	// 0 (the default) keeps every graph fully resident. The caller owns
	// the returned Result.Graph's spill lifecycle (ddg.Graph.CloseSpill).
	SpillBudget int64
	// SpillDir is the directory for spill files; empty means the system
	// temp directory. Files are unlinked at creation, so nothing survives
	// a crash.
	SpillDir string

	// Obs receives this run's phase spans and metrics (see internal/obs):
	// a "find" root span, one span per phase per iteration, one per
	// sub-DDG a match phase takes, and the unified metric rollup
	// that mirrors SolverStats/CacheStats. Nil — the default — resolves
	// to the zero-cost no-op recorder, keeping the hot path free of
	// observability work and the output byte-identical to an
	// uninstrumented build.
	Obs obs.Recorder
	// ObsParent, with Obs set, parents the run's root span under an
	// enclosing span (e.g. the CLI's whole-analysis span).
	ObsParent obs.SpanID

	// PhaseHook, when non-nil, runs at the entry of every guarded phase
	// with the phase's name, inside the phase's recover boundary — a panic
	// it raises is contained exactly like a bug in the phase itself
	// (recorded on Result.Failures, run degraded, later phases continue).
	// It exists for deterministic fault injection (internal/fault) and
	// crash tests; being per-run, concurrent FindCtx runs can carry
	// independent fault plans without racing. It never changes a
	// non-panicking run's output and is not part of any cache fingerprint.
	PhaseHook func(phase string)

	// noPrescreen turns off the structural prescreen: every (sub-DDG ×
	// kind) solve that the cache did not answer runs its matcher. The
	// prescreen is sound (it prunes only solves the matcher would reject
	// at its census gate), so the switch exists only as the
	// differential tests' reference (export_test.go).
	noPrescreen bool
	// poolBound, when positive, replaces maxPoolSize as the sub-DDG pool
	// bound, so a test can reach the bound on a small program.
	poolBound int

	// Cache, when non-nil, is the view cache the run consults and
	// populates, one match outcome per sub-DDG under its pool key, letting
	// repeated runs over the same trace skip matching (see ViewCache); the
	// analysis daemon passes its shared one. Safe to share between
	// concurrent FindCtx runs: each run binds to the generation of its own
	// run fingerprint (graph + match-relevant options), so runs over
	// different graphs neither see nor evict each other's entries. Nil —
	// the default — means no cache: the run fingerprints no graph for it
	// and books no cache hits or misses.
	Cache *ViewCache

	// Ablation switches.
	DisableSimplify  bool
	DisableDecompose bool
	DisableCompact   bool
	DisableIterate   bool
}

// maxIterations bounds the match/subtract/fuse fixpoint loop.
const maxIterations = 10

// maxPoolSize stops generating new sub-DDGs once the pool reaches this
// many entries.
const maxPoolSize = 50000

func (o Options) poolLimit() int {
	if o.poolBound > 0 {
		return o.poolBound
	}
	return maxPoolSize
}

func (o Options) maxViewGroups() int {
	if o.MaxViewGroups > 0 {
		return o.MaxViewGroups
	}
	return 10000
}

// Match records one matched pattern: where it was found and when.
type Match struct {
	Pattern   *patterns.Pattern
	Sub       *SubDDG
	Iteration int // 1-based
}

// Result is the outcome of a pattern finding run.
type Result struct {
	// Patterns are the final merged patterns (subsumed ones discarded).
	Patterns []*patterns.Pattern
	// Matches is every match across all iterations, in match order.
	Matches []Match
	// Iterations is the number of fixpoint iterations executed.
	Iterations int
	// Graph is the simplified DDG that patterns refer to.
	Graph *ddg.Graph
	// OriginalNodes and SimplifiedNodes measure the simplification factor.
	OriginalNodes, SimplifiedNodes int
	// PoolSize is the final sub-DDG pool size.
	PoolSize int
	// SkippedViews counts sub-DDGs skipped for exceeding MaxViewGroups.
	SkippedViews int
	// PoolLimited reports that the sub-DDG pool hit its size bound.
	PoolLimited bool
	// Interrupted reports that the global budget or the caller's context
	// expired before the fixpoint completed; the remaining iterations,
	// sub-DDGs, and extension passes were abandoned.
	Interrupted bool
	// PrescreenChecks counts the structural censuses computed (one per
	// non-fused sub-DDG that passed the size gate and missed the view
	// cache, when the prescreen is enabled). The per-kind solves they
	// answered are in SolverStats[kind].Prescreened; PrescreenStats sums
	// both sides.
	PrescreenChecks int
	// CensusReads counts the adjacency entries those censuses read, each
	// census counted once, in the match phase that uses it: all of a
	// sub-DDG's members' for one counted fresh, the leaving nodes' and
	// their neighbours' for one the subtract phase derived.
	CensusReads int
	// SolverStats rolls up matcher effort and cache outcomes per pattern
	// kind (patterns.KindStats: reduction matcher runs, the patterns they
	// returned and their wall time; prescreen answers; cache hits and
	// misses).
	SolverStats map[patterns.Kind]patterns.KindStats
	// Failures collects errors contained by the finder's recover
	// boundaries: panics inside a phase, a sweep item or one kind's
	// match, converted to structured match-stage errors. The rest of the
	// run continued, so the other Result fields hold the partial outcome;
	// a non-empty Failures marks the run degraded.
	Failures []*analysis.Error

	// phaseHook carries Options.PhaseHook to guard without threading a
	// parameter through every phase call site.
	phaseHook func(phase string)
}

// Degraded reports whether any resource bound or contained failure cut the
// run short, i.e. the pattern set is a lower bound on what an unbounded,
// failure-free run would report.
func (r *Result) Degraded() bool {
	return r.Interrupted || r.SkippedViews > 0 || r.PoolLimited || len(r.Failures) > 0
}

// CacheStats sums the view-cache outcomes recorded across all pattern
// kinds: solves answered from a stored entry and solves that ran and
// populated one. skips is always zero: it counted solves suppressed by a
// cached "budget-undecided" verdict, and no verdict is undecided any
// more.
func (r *Result) CacheStats() (hits, misses, skips int) {
	for _, ks := range r.SolverStats {
		hits += ks.CacheHits
		misses += ks.CacheMisses
	}
	return hits, misses, 0
}

// PrescreenStats sums the structural-prescreen activity across all pattern
// kinds: censuses computed and per-kind solves they answered without a
// matcher run. A sub-DDG answered from the view cache runs no census.
func (r *Result) PrescreenStats() (checks, skips int) {
	for _, ks := range r.SolverStats {
		skips += ks.Prescreened
	}
	return r.PrescreenChecks, skips
}

// Find runs the iterative pattern finder on a traced DDG.
func Find(g *ddg.Graph, opts Options) *Result {
	return FindCtx(context.Background(), g, opts)
}

// FindCtx is Find under a context: cancelling ctx (or exhausting
// opts.Budget, which is layered onto it as a deadline) stops the finder
// early with a merged-but-labeled degraded Result instead of blocking for
// an unbounded match phase.
//
// FindCtx is also the match stage's recover boundary: each phase runs
// guarded, so an internal panic — in a phase, a sweep item or one kind's
// match — is contained, recorded on Result.Failures, and the finder
// carries what it has into the remaining phases. A degraded Result with
// Failures is therefore partial, never absent.
func FindCtx(ctx context.Context, g *ddg.Graph, opts Options) (res *Result) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Budget)
		defer cancel()
	}
	res = &Result{phaseHook: opts.PhaseHook}
	// Last-resort boundary for panics between the phase guards. Registered
	// before the root span's deferred end, so on such a panic the span
	// tree still closes (deferred calls run in reverse order) and only
	// then is the panic recorded.
	defer func() {
		if r := recover(); r != nil {
			res.Failures = append(res.Failures, analysis.Recovered(analysis.StageMatch, r))
		}
	}()
	rec := obs.OrNop(opts.Obs)
	root := rec.StartSpan("find", opts.ObsParent)
	var cache *ViewCache
	var rcache *runCache
	defer func() {
		emitFindMetrics(rec, res, cache)
		rec.EndSpan(root,
			obs.Int("iterations", int64(res.Iterations)),
			obs.Int("matches", int64(len(res.Matches))),
			obs.Int("patterns", int64(len(res.Patterns))),
			obs.Str("degraded", boolStr(res.Degraded())))
	}()
	if g == nil {
		res.Failures = append(res.Failures, analysis.Errorf(
			analysis.StageMatch, analysis.InvalidInput, "core: Find of a nil graph"))
		return res
	}
	res.OriginalNodes = g.NumNodes()

	// Phase: simplify.
	gs := g
	if !opts.DisableSimplify {
		sp := rec.StartSpan("simplify", root, obs.Int("nodes", int64(g.NumNodes())))
		ok := guard(res, "simplify", func() { gs = Simplify(g) })
		if !ok {
			gs = g // fall back to matching the unsimplified graph
		}
		endPhase(rec, sp, ok, obs.Int("simplified", int64(gs.NumNodes())))
	}
	res.Graph = gs
	res.SimplifiedNodes = gs.NumNodes()

	// Phase: spill. The simplified graph is what every later phase
	// traverses; when its arc arrays exceed the budget they move out of
	// core here, before the first adjacency-heavy phase. A spill failure
	// (temp dir unwritable, disk full) degrades to in-core matching —
	// recorded, not fatal.
	if opts.SpillBudget > 0 {
		spilled, err := gs.MaybeSpill(ddg.SpillConfig{Dir: opts.SpillDir, Budget: opts.SpillBudget})
		if err != nil {
			res.Failures = append(res.Failures, analysis.Wrap(
				analysis.StageMatch, analysis.Transient, err, "spilling simplified graph failed"))
		} else if spilled && rec.Enabled() {
			rec.Count(obs.MetricDDGSpills, 1)
		}
	}

	// The view–verdict cache, when the caller passed one: it carries
	// verdicts across runs — sequential or concurrent. acquire binds this
	// run to the generation of its fingerprint, so the cache's other
	// tenants are invisible.
	if opts.Cache != nil {
		cache = opts.Cache
		sp := rec.StartSpan("cache-prepare", root)
		ok := guard(res, "cache", func() { rcache = cache.acquire(cacheFingerprint(gs, opts)) })
		if !ok {
			cache, rcache = nil, nil
		}
		snap := cache.Snapshot()
		endPhase(rec, sp, ok,
			obs.Int("entries", int64(snap.Entries)),
			obs.Int("generations", int64(snap.Generations)),
			obs.Int("evictions", int64(snap.Evictions)))
	}

	// The solve scheduler: every parallel phase of the run — decompose,
	// match, subtract, fuse, pipelines — sweeps its items (associative
	// components, sub-DDGs, pool entries, stage pairs) over the pool, and
	// the sweep returns at the phase barrier.
	sc := newRunSched(ctx, opts, res)

	// Phase: decompose (the decomposed sub-DDGs are compacted lazily when
	// viewed, per sub-DDG provenance).
	pool := newSubPool(opts.poolLimit())
	if opts.DisableDecompose {
		pool.add(&SubDDG{Nodes: gs.Nodes()})
	} else {
		sp := rec.StartSpan("decompose", root)
		ok := guard(res, "decompose", func() {
			for _, s := range decompose(sc, gs) {
				pool.add(s)
			}
		})
		interrupted(ctx, res)
		if !ok && len(pool.subs) == 0 {
			// Decomposition died before producing anything; match the whole
			// graph as one sub-DDG, the same degraded-but-sound view the
			// DisableDecompose ablation uses.
			pool.add(&SubDDG{Nodes: gs.Nodes()})
		}
		endPhase(rec, sp, ok, obs.Int("pool", int64(len(pool.subs))))
	}
	active := append([]*SubDDG(nil), pool.subs...)

	// Fixpoint loop: match, subtract, fuse.
	for iter := 1; len(active) > 0 && iter <= maxIterations; iter++ {
		if interrupted(ctx, res) {
			break
		}
		res.Iterations = iter
		iterSpan := rec.StartSpan("iteration", root, obs.Int("i", int64(iter)))

		// Phase: match (parallel across active sub-DDGs). Panics are
		// contained per kind inside runMatchPhase; this guard covers the
		// phase's own bookkeeping.
		var matched []*SubDDG
		reads := res.CensusReads
		sp := rec.StartSpan("match", iterSpan, obs.Int("active", int64(len(active))))
		ok := guard(res, "match", func() { matched = runMatchPhase(ctx, gs, active, opts, res, rcache, sc, rec, sp) })
		endPhase(rec, sp, ok, obs.Int("matched", int64(len(matched))),
			obs.Int("census_reads", int64(res.CensusReads-reads)))
		for _, s := range matched {
			for _, p := range s.Matched {
				res.Matches = append(res.Matches, Match{Pattern: p, Sub: s, Iteration: iter})
			}
		}

		if opts.DisableIterate {
			rec.EndSpan(iterSpan)
			break
		}

		var fresh []*SubDDG

		// Phase: subtract new matches from pool sub-DDGs. Subtraction
		// exposes patterns hidden inside sub-DDGs that did not match
		// anything themselves (maps buried in complex loops); subtracting
		// from already-matched sub-DDGs only fragments their pattern into
		// smaller instances that merging would discard anyway, and does so
		// combinatorially, so matched sub-DDGs are skipped.
		sp = rec.StartSpan("subtract", iterSpan)
		ok = guard(res, "subtract", func() {
			fresh = append(fresh, subtractPhase(ctx, gs, pool, matched, sc, res)...)
		})
		endPhase(rec, sp, ok, obs.Int("fresh", int64(len(fresh))))

		// Phase: fuse adjacent pool sub-DDGs with compatible matches (a
		// map flowing into any pattern).
		sp = rec.StartSpan("fuse", iterSpan)
		ok = guard(res, "fuse", func() {
			fresh = append(fresh, fusePhase(ctx, gs, pool, matched, sc, res)...)
		})
		endPhase(rec, sp, ok, obs.Int("fresh", int64(len(fresh))))

		rec.EndSpan(iterSpan)
		active = fresh
	}
	res.PoolSize = len(pool.subs)
	res.PoolLimited = pool.limited

	// Extension: pipeline detection over pairs of unmatched stage loops
	// (paper §9 future work; see patterns.MatchPipeline).
	if opts.Extensions && !interrupted(ctx, res) {
		sp := rec.StartSpan("pipelines", root, obs.Int("pool", int64(len(pool.subs))))
		ok := guard(res, "pipelines", func() { detectPipelines(ctx, gs, pool.subs, opts, res, rcache, sc) })
		endPhase(rec, sp, ok)
	}

	// Phase: merge — discard patterns subsumed by larger ones.
	sp := rec.StartSpan("merge", root, obs.Int("matches", int64(len(res.Matches))))
	ok := guard(res, "merge", func() { res.Patterns = merge(res.Matches) })
	endPhase(rec, sp, ok, obs.Int("patterns", int64(len(res.Patterns))))
	return res
}

// endPhase closes a phase span, adding the conventional failure marker
// when the guarded phase panicked (guard reported false). Runs after
// guard returns, so a phase span always closes — also for a phase that
// died — which is what keeps the exported tree well-formed on degraded
// runs.
func endPhase(rec obs.Recorder, sp obs.SpanID, ok bool, attrs ...obs.Attr) {
	if !ok {
		attrs = append(attrs, obs.Failed("panic contained"))
	}
	rec.EndSpan(sp, attrs...)
}

// boolStr avoids strconv for a two-valued attribute.
func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}

// emitFindMetrics publishes the run's unified metric rollup: the gauges
// describing the final state and the per-kind counters mirroring
// Result.SolverStats (the obs view of the same numbers the Result carries
// for backward compatibility). Runs in FindCtx's deferred epilogue so the
// metrics recorded before a contained failure still surface.
func emitFindMetrics(rec obs.Recorder, res *Result, cache *ViewCache) {
	if !rec.Enabled() {
		return
	}
	rec.Gauge(obs.MetricIterations, float64(res.Iterations))
	rec.Gauge(obs.MetricPoolSize, float64(res.PoolSize))
	rec.Gauge(obs.MetricPatterns, float64(len(res.Patterns)))
	rec.Count(obs.MetricMatches, int64(len(res.Matches)))
	if res.Graph != nil && res.Graph.Spilled() {
		st := res.Graph.PageStats()
		rec.Count(obs.MetricDDGPageFaults, st.Faults)
		rec.Count(obs.MetricDDGPageEvictions, st.Evictions)
		rec.Gauge(obs.MetricDDGPagesSpilledBytes, float64(st.SpilledBytes))
		rec.Gauge(obs.MetricDDGPagesResidentBytes, float64(st.ResidentBytes))
		rec.Gauge(obs.MetricDDGPagesPeakResidentBytes, float64(st.PeakResidentBytes))
	}
	if cache != nil {
		rec.Gauge(obs.MetricCacheEntries, float64(cache.Snapshot().Entries))
	}
	if res.PrescreenChecks > 0 {
		rec.Count(obs.MetricPrescreenChecks, int64(res.PrescreenChecks))
		rec.Count(obs.MetricCensusReads, int64(res.CensusReads))
	}
	for kind, ks := range res.SolverStats {
		k := kind.String()
		rec.Count(obs.L(obs.MetricSolverRuns, "kind", k), int64(ks.Runs))
		if cache != nil {
			rec.Count(obs.L(obs.MetricCacheHits, "kind", k), int64(ks.CacheHits))
			rec.Count(obs.L(obs.MetricCacheMisses, "kind", k), int64(ks.CacheMisses))
		}
		if ks.Prescreened > 0 {
			rec.Count(obs.L(obs.MetricPrescreenSkips, "kind", k), int64(ks.Prescreened))
		}
	}
}

// guard runs one finder phase inside a recover boundary. A panic inside fn
// is recorded on res.Failures as a structured match-stage error naming the
// phase; whatever the phase wrote before dying is kept, and guard reports
// false so the caller can fall back. Phases run on the calling goroutine —
// item panics are contained separately (runSched.item), since a
// recover only catches panics on its own stack.
func guard(res *Result, phase string, fn func()) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			ae := analysis.Recovered(analysis.StageMatch, r)
			res.Failures = append(res.Failures,
				analysis.Wrap(ae.Stage, ae.Kind, ae, "%s phase failed", phase))
			ok = false
		}
	}()
	if res.phaseHook != nil {
		res.phaseHook(phase)
	}
	fn()
	return true
}

// interrupted reports (and records) that the context is done: the caller
// should abandon its remaining work.
func interrupted(ctx context.Context, res *Result) bool {
	if ctx.Err() != nil {
		res.Interrupted = true
		return true
	}
	return false
}

// sweep runs body(i) for every index in [0, n) on the run's pool (see
// sched.Pool.Sweep: the phase goroutine claims indices one at a time
// alongside any pool workers that join, so one slow item never holds a
// batch of others behind it) and then moves the contained item failures
// onto the Result. Once the run's context is done the unclaimed indices
// are skipped (they contribute nothing, and the interrupted(ctx, res) the
// caller runs afterwards labels the result), while a claimed item always
// runs to its end. Each item runs inside the item recover boundary
// (runSched.item), so a panic costs only that item. Runs on the phase
// goroutine, the Result's only writer at that point.
func sweep(sc *runSched, phase string, n int, body func(i int)) {
	sc.pool.Sweep(sc.ctx, n, func(i int) { sc.item(phase, i, body) })
	sc.mu.Lock()
	sc.res.Failures = append(sc.res.Failures, sc.fails...)
	sc.fails = nil
	sc.mu.Unlock()
}

// subPool is the finder's sub-DDG pool: its entries in the order they
// were admitted, the keys it holds, and its bound. Every entry passes
// admit, the single point of growth, so decompose, subtract and fuse all
// respect the bound and limited cannot under-report.
type subPool struct {
	subs    []*SubDDG
	seen    map[ddg.Hash128]bool
	limit   int
	limited bool
}

func newSubPool(limit int) *subPool {
	return &subPool{seen: map[ddg.Hash128]bool{}, limit: limit}
}

// admit reports whether the pool takes an entry under key, and reserves
// the key if it does. It refuses a key it holds, and once it holds limit
// entries, pending admitted ones not yet appended included, it refuses
// every new key and records that the bound bit.
func (p *subPool) admit(key ddg.Hash128, pending int) bool {
	if p.seen[key] {
		return false
	}
	if len(p.subs)+pending >= p.limit {
		p.limited = true
		return false
	}
	p.seen[key] = true
	return true
}

// add appends s unless it is empty or the pool refuses its key.
func (p *subPool) add(s *SubDDG) bool {
	if s.Nodes.Len() == 0 || !p.admit(s.Key(), 0) {
		return false
	}
	p.subs = append(p.subs, s)
	return true
}

// cand is one candidate of a subtract or fuse phase, before its sub-DDG
// is built: its pool key, the position j of the partner it derives from
// (a matched set for subtract, a pool entry for fuse), and its node count
// where the phase knows it ahead (subtract's difference).
type cand struct {
	key  ddg.Hash128
	j, n int32
}

// foldCands adds a phase's candidates to the pool, those of each pool
// position in the order its sweep item listed them, and returns the
// sub-DDGs the pool took. The pool admits or refuses each candidate by key
// alone, in that order, so dedup, the bound and the fresh order are the
// sequential loop's, and a refused candidate costs its key and nothing
// else. A second sweep builds only the admitted sub-DDGs, one item each.
// A build item that never ran, because the run ended, or that failed
// leaves no entry, and its key goes back.
func (p *subPool) foldCands(sc *runSched, phase string, cands [][]cand, build func(i int, c cand) *SubDDG) []*SubDDG {
	type pick struct {
		i int
		c cand
	}
	var picks []pick
	for i, cs := range cands {
		for _, c := range cs {
			if p.admit(c.key, len(picks)) {
				picks = append(picks, pick{i, c})
			}
		}
	}
	fresh := make([]*SubDDG, len(picks))
	sweep(sc, phase, len(picks), func(k int) { fresh[k] = build(picks[k].i, picks[k].c) })
	built := fresh[:0]
	for k, s := range fresh {
		if s == nil {
			delete(p.seen, picks[k].c.key)
			continue
		}
		built = append(built, s)
	}
	p.subs = append(p.subs, built...)
	return built
}

// subtractPhase subtracts this iteration's matches from the unmatched
// pool sub-DDGs. Each pool entry's sweep item keys its candidate
// differences — each writes only its own slot — and the pool folds them
// in pool order afterwards (foldCands), so which candidates it takes, and
// in which order, is exactly the sequential loop's whatever order the
// items ran in.
//
// Subtraction exposes patterns hidden inside sub-DDGs that did not match
// anything themselves (maps buried in complex loops); subtracting from
// already-matched sub-DDGs only fragments their pattern into smaller
// instances that merging would discard anyway, and does so
// combinatorially, so matched sub-DDGs are skipped.
//
// A match disjoint from g1 would leave it unchanged, so each g1 asks a
// node index over the matches for the ones it shares a node with, in
// matched order — the same candidates, in the same order, as testing
// every match. A candidate is keyed from the member masks of g1 and the
// match and g1's additive set hash (SubView.DiffHash), at most one overlay
// per match and one per g1, and only the differences the pool admits are
// built. A difference that loses fewer nodes than it keeps derives its
// census from g1's, when g1 has one, from the nodes it loses and their
// neighbours (patterns.Census.Without); any other is censused whole when
// matched.
func subtractPhase(ctx context.Context, gs *ddg.Graph, pool *subPool, matched []*SubDDG, sc *runSched, res *Result) []*SubDDG {
	if len(matched) == 0 {
		return nil
	}
	subs := pool.subs
	sets := nodeSets(matched)
	ix := newNodeIndex(sets)
	// A match's mask is built by the first item that shares a node with
	// it: on md5-wide most matches share none with any unmatched entry.
	// Items racing on one build equal masks, and the first stored is kept.
	masks := make([]atomic.Pointer[ddg.SubView], len(sets))
	mask := func(j int32) *ddg.SubView {
		if m := masks[j].Load(); m != nil {
			return m
		}
		masks[j].CompareAndSwap(nil, gs.Overlay(sets[j]))
		return masks[j].Load()
	}
	cands := make([][]cand, len(subs))
	sweep(sc, "subtract", len(subs), func(i int) {
		g1 := subs[i]
		if len(g1.Matched) > 0 {
			return
		}
		for _, j := range ix.sharing(g1.Nodes) {
			// Sharing a node, the difference is smaller than g1.
			h, n := g1.overlay(gs).DiffHash(mask(j), g1.nodesHash())
			if n == 0 {
				continue
			}
			cands[i] = append(cands[i], cand{key: provenanceKey(h, g1.Loop, g1.Assoc), j: j, n: int32(n)})
		}
	})
	interrupted(ctx, res)
	fresh := pool.foldCands(sc, "subtract", cands, func(i int, c cand) *SubDDG {
		g1, m := subs[i], masks[c.j].Load()
		d := &SubDDG{Nodes: g1.sub.Diff(m, int(c.n)), Loop: g1.Loop, Assoc: g1.Assoc, key: c.key}
		d.hash, _ = g1.sub.DiffHash(m, g1.nodesHash())
		if g1.census != nil && g1.Nodes.Len()-int(c.n) < int(c.n) {
			d.census = g1.census.Without(gs, g1.sub, m)
		}
		return d
	})
	// A mask costs an eighth of a node set's bytes or more over a sparse
	// span, so none outlives the phase: a later g1 rebuilds its own.
	for _, s := range subs {
		s.sub = nil
	}
	interrupted(ctx, res)
	return fresh
}

// fusePhase fuses adjacent pool sub-DDGs with compatible matches (a map
// flowing into any pattern). Same shape as subtractPhase: a parallel sweep
// keys the candidates over the pool snapshot, and the pool folds them in
// (a, b) order and builds the unions it admits. The snapshot is taken
// before any candidate is added, so items never observe this phase's own
// additions — the sequential loop behaved identically, since every added
// fusion has no matches yet and both loops skip matchless sub-DDGs.
// Partners come from a node index over the matched pool entries
// (nodeIndex.flowTargets), in pool order.
func fusePhase(ctx context.Context, gs *ddg.Graph, pool *subPool, matched []*SubDDG, sc *runSched, res *Result) []*SubDDG {
	if len(matched) == 0 {
		return nil
	}
	subs := pool.subs
	isNew := make(map[*SubDDG]bool, len(matched))
	for _, s := range matched {
		isNew[s] = true
	}
	sets := make([]ddg.Set, len(subs))
	for i, s := range subs {
		if len(s.Matched) > 0 {
			sets[i] = s.Nodes
		}
	}
	ix := newNodeIndex(sets)
	cands := make([][]cand, len(subs))
	sweep(sc, "fuse", len(subs), func(i int) {
		a := subs[i]
		if len(a.Matched) == 0 || !hasMapMatch(a) {
			return
		}
		ix.flowTargets(gs, i, func(j int) {
			// At least one of the pair must be a new match this iteration,
			// otherwise the fusion already happened.
			if b := subs[j]; isNew[a] || isNew[b] {
				cands[i] = append(cands[i], cand{key: fusedKey(a, b), j: int32(j)})
			}
		})
	})
	interrupted(ctx, res)
	fresh := pool.foldCands(sc, "fuse", cands, func(i int, c cand) *SubDDG {
		a, b := subs[i], subs[c.j]
		return &SubDDG{Nodes: a.Nodes.Union(b.Nodes), FusedA: a, FusedB: b, key: c.key}
	})
	interrupted(ctx, res)
	return fresh
}

// detectPipelines looks for stage pairs among unmatched loop sub-DDGs: the
// paper's patterns leave stateful stages unmatched, which is exactly where
// pipelines hide (its excluded benchmarks bodytrack and h264dec).
func detectPipelines(ctx context.Context, gs *ddg.Graph, pool []*SubDDG, opts Options, res *Result, cache *runCache, sc *runSched) {
	var stages []*SubDDG
	for _, s := range pool {
		if s.Loop != 0 && len(s.Matched) == 0 {
			stages = append(stages, s)
		}
	}
	// Match.Iteration is documented 1-based; res.Iterations is 0 when the
	// fixpoint loop never ran (an empty pool), so clamp instead of
	// recording an out-of-range iteration.
	iter := res.Iterations
	if iter == 0 {
		iter = 1
	}
	compact := !opts.DisableCompact
	// The pass's own views, one per stage, built by the sequential
	// enumeration below and only read by the sweep.
	views := map[*SubDDG]*patterns.View{}
	groupsOf := func(s *SubDDG) int {
		v := views[s]
		if v == nil {
			v = s.View(gs, compact)
			views[s] = v
		}
		return v.NumGroups()
	}
	// Local tally of this pass's cache counters; merged into
	// res.SolverStats at the end.
	pb := &patterns.Budget{}
	defer func() { rollupStats(res, pb) }()

	// The pass enumerates pairs sequentially — cache lookups and gate
	// checks in deterministic (a, b) order, so the counters are exactly
	// the sequential pass's — and sweeps only the solves over the
	// scheduler. Matches are folded in enumeration order after the
	// barrier, so the reported list is identical whatever order the
	// solves ran in. The stages are distinct pool entries, so no pair key
	// repeats within a pass. With a warm cache every pair resolves at
	// enumeration, no view is built and the sweep is empty; without a
	// cache every pair is solved.
	type pairJob struct {
		a, b *SubDDG
		key  ddg.Hash128
		p    *patterns.Pattern
	}
	var jobs, solves []*pairJob
	ix := newNodeIndex(nodeSets(stages))
	for ai, a := range stages {
		if interrupted(ctx, res) {
			break
		}
		ix.flowTargets(gs, ai, func(bi int) {
			j := &pairJob{a: a, b: stages[bi]}
			if cache != nil {
				j.key = pairKey(j.a, j.b)
				if e, ok := cache.lookup(j.key); ok {
					for _, k := range e.kinds {
						pb.RecordCacheHit(k)
					}
					if len(e.pats) > 0 {
						j.p = e.pats[0]
					}
					jobs = append(jobs, j)
					return
				}
			}
			if groupsOf(j.a) > opts.maxViewGroups() || groupsOf(j.b) > opts.maxViewGroups() {
				return
			}
			if cache != nil {
				pb.RecordCacheMiss(patterns.KindPipeline)
			}
			jobs = append(jobs, j)
			solves = append(solves, j)
		})
	}
	sweep(sc, "pipelines", len(solves), func(i int) {
		j := solves[i]
		p := patterns.MatchPipeline(gs, views[j.a], views[j.b])
		if p != nil && opts.VerifyMatches {
			if err := patterns.Verify(gs, p); err != nil {
				p = nil
			}
		}
		e := cacheEntry{kinds: pipelineKinds}
		if p != nil {
			p.Nodes() // memoized here, so merge only reads it
			e.pats = []*patterns.Pattern{p}
		}
		cache.store(j.key, e)
		j.p = p
	})
	interrupted(ctx, res)
	for _, j := range jobs {
		if j.p != nil {
			res.Matches = append(res.Matches,
				Match{Pattern: j.p, Sub: j.a, Iteration: iter})
		}
	}
}

// pipelineKinds lists the one kind a stage pair's solve books.
var pipelineKinds = []patterns.Kind{patterns.KindPipeline}

// hashSeedPipelinePair tags ordered stage-pair keys in the view cache.
const hashSeedPipelinePair = 0x6b8d2f4a1c3e5077

// pairKey is the view-cache key of the ordered stage pair (a, b).
func pairKey(a, b *SubDDG) ddg.Hash128 {
	h := ddg.NewHasher(hashSeedPipelinePair)
	h.Hash(a.Key())
	h.Hash(b.Key())
	return h.Sum()
}

// runSched is one Find run's handle on its solve pool
// (Options.Scheduler, else sched.Default): the pool, the run's context —
// the Budget deadline included, so no item starts after the run ends —
// and the run's item recover boundary.
type runSched struct {
	pool *sched.Pool
	ctx  context.Context
	res  *Result

	mu    sync.Mutex
	fails []*analysis.Error // contained item panics, flushed by sweep
}

func newRunSched(ctx context.Context, opts Options, res *Result) *runSched {
	pool := opts.Scheduler
	if pool == nil {
		pool = sched.Default()
	}
	return &runSched{pool: pool, ctx: ctx, res: res}
}

// item runs one sweep item of the named phase. It is the item recover
// boundary: a panic inside body is recorded as a structured "<phase> task
// failed" error, which the sweep appends to Result.Failures; the claimer
// goes on to its next item.
func (rs *runSched) item(phase string, i int, body func(int)) {
	defer func() {
		if r := recover(); r != nil {
			ae := analysis.Recovered(analysis.StageMatch, r)
			rs.mu.Lock()
			rs.fails = append(rs.fails, analysis.Wrap(ae.Stage, ae.Kind, ae,
				"%s task failed", phase))
			rs.mu.Unlock()
		}
	}()
	if sweepItemHook != nil {
		sweepItemHook(phase)
	}
	body(i)
}

// sweepItemHook, when non-nil, runs before every sweep item, on the
// executing goroutine, with the sweep's phase name. Tests install it
// through export_test.go to observe or interrupt a phase mid-sweep.
var sweepItemHook func(phase string)

// The pattern kinds a sub-DDG is matched against, in the order its
// matches are assembled: map, linear, tiled — an associative component
// skips the map — then the combining-tree follow-up (extensions, only
// where linear and tiled both missed).
var (
	plainKinds = []patterns.Kind{patterns.KindMap, patterns.KindLinearReduction, patterns.KindTiledReduction}
	assocKinds = plainKinds[1:]
)

// matchPhase carries the match phase's shared state: the accumulators
// each sub-DDG's item merges into once, from whatever executor ran it.
// The counters are commutative and the tally merge is order-insensitive
// for everything the default output reads, so any item-to-executor
// assignment rolls up the same.
type matchPhase struct {
	gs      *ddg.Graph
	opts    Options
	cache   *runCache
	rec     obs.Recorder
	span    obs.SpanID
	compact bool

	mu          sync.Mutex
	rollup      patterns.Budget
	fails       []*analysis.Error
	skips       int
	preChecks   int
	censusReads int
}

// subMatch is one sub-DDG's matching state, private to the item that
// matches it.
type subMatch struct {
	s      *SubDDG
	census *patterns.Census    // nil when disabled or skipped
	pre    *patterns.Prescreen // the census's verdicts
	view   *patterns.View      // built on first use, dropped with the item
	b      patterns.Budget
	missed []patterns.Kind // the kinds booked as cache misses
	fails  []*analysis.Error
}

// runMatchPhase matches every active sub-DDG against the pattern
// definitions and returns the sub-DDGs with at least one match. The unit
// of parallel work is the sub-DDG: one sweep item looks up its cache
// entry or runs its gate, census, view and every kind. Once the run's
// deadline or cancellation is seen, the unclaimed sub-DDGs stay
// unmatched — a sub-DDG is matched whole or not at all — and the
// remainder is reported via res.Interrupted rather than silently
// smaller.
func runMatchPhase(ctx context.Context, gs *ddg.Graph, active []*SubDDG, opts Options, res *Result, cache *runCache, sc *runSched, rec obs.Recorder, span obs.SpanID) []*SubDDG {
	mp := &matchPhase{
		gs:      gs,
		opts:    opts,
		cache:   cache,
		rec:     rec,
		span:    span,
		compact: !opts.DisableCompact,
	}
	sweep(sc, "match", len(active), func(i int) { mp.matchSub(active[i]) })
	res.SkippedViews += mp.skips
	res.PrescreenChecks += mp.preChecks
	res.CensusReads += mp.censusReads
	res.Failures = append(res.Failures, mp.fails...)
	rollupStats(res, &mp.rollup)
	interrupted(ctx, res)

	var matched []*SubDDG
	for _, s := range active { // deterministic order
		if len(s.Matched) > 0 {
			matched = append(matched, s)
		}
	}
	return matched
}

// matchSub matches one sub-DDG and merges its tally, failures and skip
// into the phase once. A fused sub-DDG combines its constituents'
// patterns; any other takes its outcome from the cache entry under its
// pool key, which books one cache hit per kind the entry lists and runs
// no gate, census or view, or else is matched by matchPlain and stores
// its entry unless the item contained a failure.
func (mp *matchPhase) matchSub(s *SubDDG) {
	rec := mp.rec
	var span obs.SpanID
	if rec.Enabled() {
		span = rec.StartSpan("match-sub", mp.span, obs.Int("nodes", int64(s.Nodes.Len())))
	}
	m := &subMatch{s: s, b: patterns.Budget{Obs: rec}}
	var found []*patterns.Pattern
	skipped, miss := false, false
	if s.FusedA != nil {
		m.contain(func() { found = mp.matchFused(s) })
	} else if e, ok := mp.cache.lookup(s.Key()); ok {
		found, skipped = e.pats, e.skipped
		for _, kind := range e.kinds {
			m.b.RecordCacheHit(kind)
		}
	} else {
		found, skipped = mp.matchPlain(m)
		miss = true
	}
	// Memoize each pattern's node set here, on the item's executor, so
	// that merge only reads it and a stored entry's patterns are
	// immutable when it is published.
	for _, p := range found {
		p.Nodes()
	}
	if miss && len(m.fails) == 0 {
		mp.cache.store(s.Key(), cacheEntry{pats: found, skipped: skipped, kinds: m.missed})
	}
	s.Matched = found
	// An unmatched sub-DDG keeps its census for the differences
	// subtracted from it; a matched one is never subtracted from.
	if len(found) > 0 {
		s.sub, s.census = nil, nil
	} else if m.census != nil {
		s.census = m.census
	}
	mp.mu.Lock()
	mp.rollup.Merge(&m.b)
	mp.fails = append(mp.fails, m.fails...)
	if skipped {
		mp.skips++
	}
	if m.census != nil {
		mp.preChecks++
		mp.censusReads += m.census.Reads()
	}
	mp.mu.Unlock()
	if rec.Enabled() {
		attrs := []obs.Attr{obs.Int("matched", int64(len(found)))}
		if skipped {
			attrs = append(attrs, obs.Str("skipped", "true"))
		}
		if len(m.fails) > 0 {
			attrs = append(attrs, obs.Failed(m.fails[0].Error()))
		}
		rec.EndSpan(span, attrs...)
	}
}

// contain is the per-kind recover boundary: a panic inside fn — one
// kind's solve, the gate and census, or a fused sub-DDG's compound
// matching — is recorded on the sub-DDG's failures and costs only fn's
// result, not the sub-DDG's other kinds. It reports whether fn returned.
func (m *subMatch) contain(fn func()) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			ae := analysis.Recovered(analysis.StageMatch, r)
			m.fails = append(m.fails, analysis.Wrap(ae.Stage, ae.Kind, ae,
				"matching a sub-DDG of %d nodes failed", m.s.Nodes.Len()))
			ok = false
		}
	}()
	fn()
	return true
}

// matchPlain matches a sub-DDG that is not fused and that the cache did
// not answer: the size gate and the prescreen census, then each kind in
// assembly order.
func (mp *matchPhase) matchPlain(m *subMatch) (found []*patterns.Pattern, skipped bool) {
	s := m.s
	if m.contain(func() { skipped = mp.prep(m) }) && !skipped {
		kinds := plainKinds
		if s.Assoc {
			kinds = assocKinds
		}
		for _, kind := range kinds {
			if p := mp.matchKind(m, kind); p != nil {
				found = append(found, p)
			}
		}
		if s.Assoc && mp.opts.Extensions && len(found) == 0 {
			// The combining-tree generalization, only where the paper's
			// specific variants did not apply.
			if p := mp.matchKind(m, patterns.KindTreeReduction); p != nil {
				found = append(found, p)
			}
		}
	}
	return found, skipped
}

// prep runs the sub-DDG's once-per-sub work ahead of its kinds: the
// oversized-view gate (reporting whether it skips the sub-DDG) and the
// structural prescreen census. The census is the one the subtract phase
// derived for the sub-DDG, when it did, and is otherwise counted over the
// sub-DDG's overlay; either counts as one check.
func (mp *matchPhase) prep(m *subMatch) (skip bool) {
	s := m.s
	max := mp.opts.maxViewGroups()
	// Groups never outnumber nodes, so only a view bigger than the gate in
	// node count can exceed it in group count — small views pass without
	// being counted, and no view is built to count one.
	if s.Nodes.Len() > max && s.numGroups(mp.gs, mp.compact) > max {
		return true
	}
	if mp.opts.noPrescreen {
		return false
	}
	var t0 time.Time
	if mp.rec.Enabled() {
		t0 = time.Now()
	}
	m.census = s.census
	if m.census == nil {
		m.census = patterns.NewCensus(mp.gs, s.overlay(mp.gs), s.viewLoop(mp.compact))
	}
	m.pre = m.census.Prescreen()
	if mp.rec.Enabled() {
		mp.rec.Observe(obs.MetricPrescreenSeconds, time.Since(t0).Seconds())
	}
	return false
}

// viewOf builds (once) and returns the sub-DDG's matching view over the
// shared overlay, recording its group count in the size histogram.
func (mp *matchPhase) viewOf(m *subMatch) *patterns.View {
	if m.view == nil {
		m.view = m.s.View(mp.gs, mp.compact)
		m.view.SetOverlay(m.s.overlay(mp.gs))
		if mp.rec.Enabled() {
			mp.rec.Observe(obs.MetricViewGroups, float64(m.view.NumGroups()))
		}
	}
	return m.view
}

// matchKind solves one kind of the sub-DDG inside the per-kind recover
// boundary: a panic costs this kind's result and nothing else.
func (mp *matchPhase) matchKind(m *subMatch, kind patterns.Kind) (p *patterns.Pattern) {
	m.contain(func() { p = mp.solveKind(m, kind) })
	return p
}

// solveKind runs one kind's solve through the prescreen. With a cache,
// the solve is booked as a miss and the kind listed for the sub-DDG's
// entry, prescreen prune or matcher run alike, so the cache accounting is
// identical with the prescreen on or off. A reduction matcher run is
// booked with its wall time and whether it returned a pattern, and only
// when the view passes the matcher's census gate, so that tally is
// identical with the prescreen on or off as well.
func (mp *matchPhase) solveKind(m *subMatch, kind patterns.Kind) *patterns.Pattern {
	b := &m.b
	if mp.cache != nil {
		b.RecordCacheMiss(kind)
		m.missed = append(m.missed, kind)
	}
	if m.pre.CannotMatch(kind) {
		// Fast path: the census proved this kind's matcher returns nil, at
		// O(view) cost instead of a matcher run.
		b.RecordPrescreened(kind)
		return nil
	}
	booked := (kind == patterns.KindLinearReduction || kind == patterns.KindTiledReduction) &&
		!mp.viewOf(m).CannotMatch(kind)
	start := time.Now()
	p := mp.runMatcher(m, kind)
	if booked {
		b.RecordRun(kind, p != nil, time.Since(start))
	}
	if p != nil && mp.opts.VerifyMatches {
		if err := patterns.Verify(mp.gs, p); err != nil {
			p = nil
		}
	}
	return p
}

// runMatcher dispatches to the kind's matcher over the (lazily built) view.
func (mp *matchPhase) runMatcher(m *subMatch, kind patterns.Kind) *patterns.Pattern {
	v := mp.viewOf(m)
	switch kind {
	case patterns.KindMap:
		p := patterns.MatchMap(v)
		if mp.opts.Extensions && p != nil {
			if stn := patterns.MatchStencil(mp.gs, p); stn != nil {
				p = stn // report the more specific refinement
			}
		}
		return p
	case patterns.KindLinearReduction:
		return patterns.MatchLinearReduction(v)
	case patterns.KindTiledReduction:
		return patterns.MatchTiledReduction(v)
	default:
		return patterns.MatchTreeReduction(v)
	}
}

// matchFused combines the patterns already matched on a fused sub-DDG's
// constituents. Not view solves — the inputs are pattern lists, not a view
// — so neither the cache nor the prescreen applies.
func (mp *matchPhase) matchFused(s *SubDDG) []*patterns.Pattern {
	var found []*patterns.Pattern
	keep := func(p *patterns.Pattern) {
		if p == nil {
			return
		}
		if mp.opts.VerifyMatches {
			if err := patterns.Verify(mp.gs, p); err != nil {
				return
			}
		}
		found = append(found, p)
	}
	for _, pa := range s.FusedA.Matched {
		if !pa.Kind.IsMapKind() {
			continue
		}
		for _, pb := range s.FusedB.Matched {
			switch {
			case pb.Kind.IsMapKind():
				keep(patterns.MatchFusedMap(mp.gs, pa, pb))
			case pb.Kind == patterns.KindLinearReduction:
				keep(patterns.MatchLinearMapReduction(mp.gs, pa, pb))
			case pb.Kind == patterns.KindTiledReduction:
				keep(patterns.MatchTiledMapReduction(mp.gs, pa, pb))
			}
		}
	}
	return found
}

// rollupStats folds a tally's per-kind matcher effort and cache counters
// into the result.
func rollupStats(res *Result, b *patterns.Budget) {
	b.Each(func(kind patterns.Kind, ks patterns.KindStats) {
		if res.SolverStats == nil {
			res.SolverStats = map[patterns.Kind]patterns.KindStats{}
		}
		cur := res.SolverStats[kind]
		cur.Add(ks)
		res.SolverStats[kind] = cur
	})
}

func hasMapMatch(s *SubDDG) bool {
	for _, p := range s.Matched {
		if p.Kind.IsMapKind() {
			return true
		}
	}
	return false
}

// merge combines all matches into the final reported set, discarding
// patterns strictly subsumed by larger patterns and duplicates (paper §5,
// Pattern Merging).
func merge(matches []Match) []*patterns.Pattern {
	var out []*patterns.Pattern
	type mergeKey struct {
		nodes ddg.Hash128
		kind  patterns.Kind
	}
	seen := map[mergeKey]bool{}
	for _, m := range matches {
		key := mergeKey{m.Pattern.Nodes().Hash(), m.Pattern.Kind}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, m.Pattern)
	}
	// A pattern is discarded iff a strictly larger pattern subsumes it.
	// Such a pattern contains p's first node, and with out sorted by size
	// descending, a node index lists the candidates in that order: each
	// pattern is tested only against the larger patterns holding its first
	// node, stopping at the first entry no larger than itself.
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Nodes().Len() > out[j].Nodes().Len()
	})
	sets := make([]ddg.Set, len(out))
	for i, p := range out {
		sets[i] = p.Nodes()
	}
	ix := newNodeIndex(sets)
	var final []*patterns.Pattern
	for i, p := range out {
		size := sets[i].Len()
		subsumed := false
		for _, j := range ix.list(sets[i][0]) {
			if sets[j].Len() <= size {
				break
			}
			if out[j].Subsumes(p) {
				subsumed = true
				break
			}
		}
		if !subsumed {
			final = append(final, p)
		}
	}
	sort.Slice(final, func(i, j int) bool {
		a, b := final[i].Nodes(), final[j].Nodes()
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		return final[i].Kind < final[j].Kind
	})
	return final
}
