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
	// Scheduler is the solve pool this run submits its parallel work to
	// (see internal/sched). Nil — the default — means the process default
	// pool (sched.Default), which with the run's own helping goroutine
	// gives GOMAXPROCS executors. The daemon passes one sized pool of its
	// own so its metrics reach the daemon's registry. Every run sharing a
	// pool is one owner among many: a small warm run's tasks interleave
	// with a large cold run's instead of queueing behind it. Scheduling
	// never changes output, only execution order: results are delivered
	// in deterministic owner order whichever pool ran them.
	Scheduler *sched.Pool
	// MaxIterations bounds the match/subtract/fuse fixpoint loop.
	MaxIterations int
	// VerifyMatches re-checks every match against the unrelaxed §4
	// definitions and drops violators (none arise in our experiments,
	// mirroring the paper's observation).
	VerifyMatches bool
	// MaxViewGroups skips matching views larger than this many groups,
	// standing in for the paper's solver memory limit. 0 means 10000.
	MaxViewGroups int
	// MaxPoolSize stops generating new sub-DDGs once the pool exceeds
	// this bound. 0 means 50000.
	MaxPoolSize int

	// Budget bounds the whole Find run's wall-clock time, the paper's
	// per-solve limits lifted to an end-to-end deadline: when it expires,
	// the remaining work is abandoned and the Result is labeled
	// Interrupted instead of being silently smaller. 0 means no global
	// budget (any context passed to FindCtx still applies).
	Budget time.Duration
	// SolverBudget caps each constraint-solver run; at solve time it is
	// further clamped to the time remaining in the global budget. 0 means
	// the patterns.SolverBudget default (the paper's 60-second limit).
	SolverBudget time.Duration
	// SolverStepLimit deterministically bounds each solver run's effort
	// (search nodes + propagations). Unlike the wall-clock budgets it is
	// reproducible, which makes degraded results testable. 0 means no
	// limit.
	SolverStepLimit int64
	// SolverRestartSlice, when positive, arms Luby-scheduled solver
	// restarts with nogood recording (see cp.Solver.RestartSlice): each
	// solver run restarts after luby(i)×slice search steps, replaying its
	// refuted prefixes as clauses. Restarts can change which solution an
	// enumeration reaches first, so the option is part of the cache
	// fingerprint and defaults to off (0), keeping default output
	// byte-identical to the plain depth-first search.
	SolverRestartSlice int64

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
	// matched sub-DDG, one per solver run, and the unified metric rollup
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
	// kind) solve consults only the cache and then runs its matcher. The
	// prescreen is sound (it prunes only solves the matcher would reject
	// before reaching the solver), so the switch exists only as the
	// differential tests' reference (export_test.go).
	noPrescreen bool

	// DisableCache turns off the view–verdict cache (the -no-cache escape
	// hatch): every solve runs even when an identical view was already
	// decided, and Cache is ignored.
	DisableCache bool
	// Cache, when non-nil, is consulted and populated in place of the
	// run-private cache, letting repeated runs over the same trace share
	// verdicts (see ViewCache). Safe to share between concurrent FindCtx
	// runs: each run binds to the generation of its own run fingerprint
	// (graph + match-relevant options), so runs over different graphs
	// neither see nor evict each other's entries.
	Cache *ViewCache

	// Ablation switches.
	DisableSimplify  bool
	DisableDecompose bool
	DisableCompact   bool
	DisableIterate   bool
}

func (o Options) maxIterations() int {
	if o.MaxIterations > 0 {
		return o.MaxIterations
	}
	return 10
}

func (o Options) maxViewGroups() int {
	if o.MaxViewGroups > 0 {
		return o.MaxViewGroups
	}
	return 10000
}

func (o Options) maxPoolSize() int {
	if o.MaxPoolSize > 0 {
		return o.MaxPoolSize
	}
	return 50000
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
	// PoolLimited reports that the sub-DDG pool hit MaxPoolSize.
	PoolLimited bool
	// TimedOutViews counts sub-DDGs whose matching hit a solver resource
	// limit: their missing matches mean "undecided within budget", not
	// "no pattern" (the runs the paper reports as resource-limited in
	// Table 3).
	TimedOutViews int
	// Interrupted reports that the global budget or the caller's context
	// expired before the fixpoint completed; the remaining iterations,
	// sub-DDGs, and extension passes were abandoned.
	Interrupted bool
	// PrescreenChecks counts the structural censuses computed (one per
	// non-fused sub-DDG that passed the size gate, when the prescreen is
	// enabled). The per-kind solves they answered are in
	// SolverStats[kind].Prescreened; PrescreenStats sums both sides.
	PrescreenChecks int
	// SolverStats rolls up constraint-solver effort per pattern kind
	// (runs, timeouts, nodes, failures, propagations, solutions, elapsed).
	SolverStats map[patterns.Kind]patterns.KindStats
	// Failures collects errors contained by the finder's recover
	// boundaries: panics inside a phase, a matching worker, or a solver
	// run, converted to structured match-stage errors. The rest of the run
	// continued, so the other Result fields hold the partial outcome; a
	// non-empty Failures marks the run degraded.
	Failures []*analysis.Error

	// phaseHook carries Options.PhaseHook to guard without threading a
	// parameter through every phase call site.
	phaseHook func(phase string)
}

// Degraded reports whether any resource bound or contained failure cut the
// run short, i.e. the pattern set is a lower bound on what an unbounded,
// failure-free run would report.
func (r *Result) Degraded() bool {
	return r.Interrupted || r.TimedOutViews > 0 || r.SkippedViews > 0 || r.PoolLimited ||
		len(r.Failures) > 0
}

// CacheStats sums the view-cache outcomes recorded across all pattern
// kinds: solves answered from the cache, solves that ran and populated it,
// and solves suppressed by a cached "undecided" verdict.
func (r *Result) CacheStats() (hits, misses, skips int) {
	for _, ks := range r.SolverStats {
		hits += ks.CacheHits
		misses += ks.CacheMisses
		skips += ks.CacheSkips
	}
	return hits, misses, skips
}

// PrescreenStats sums the structural-prescreen activity across all pattern
// kinds: censuses computed and per-kind solves they answered without a
// matcher run (cold prunes and warm prescreened-verdict hits alike).
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
// an unbounded match phase. The per-solve solver timeout is derived from
// the time remaining on the context's deadline, so late solves get the
// budget's remainder rather than a blind constant.
//
// FindCtx is also the match stage's recover boundary: each phase runs
// guarded, so an internal panic — in a phase, a matching worker, or a
// solver run — is contained, recorded on Result.Failures, and the finder
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

	// The view–verdict cache. A caller-supplied cache carries verdicts
	// across runs — sequential or concurrent; otherwise a run-private one
	// still serves the group-count gate and deduplicates any identical
	// views within this run. acquire binds this run to the generation of
	// its fingerprint, so a shared cache's other tenants are invisible.
	if !opts.DisableCache {
		cache = opts.Cache
		if cache == nil {
			cache = NewViewCache()
		}
		sp := rec.StartSpan("cache-prepare", root)
		ok := guard(res, "cache", func() { rcache = cache.acquire(cacheFingerprint(gs, opts)) })
		if !ok {
			cache, rcache = nil, nil
		}
		snap := cache.Snapshot()
		endPhase(rec, sp, ok,
			obs.Int("entries", int64(snap.Entries)),
			obs.Int("generations", int64(snap.Generations)),
			obs.Int("resets", int64(snap.Resets)))
	}

	// The solve scheduler: every parallelizable unit of the run — a
	// (sub-DDG × kind) match solve, a subtract or fuse candidate sweep, a
	// pipeline pair solve — is submitted to the run's owner on the pool
	// and waited out at each phase barrier.
	sc := newRunSched(ctx, opts, res)
	defer sc.close()

	// Phase: decompose (the decomposed sub-DDGs are compacted lazily when
	// viewed, per sub-DDG provenance).
	var pool []*SubDDG
	seen := map[ddg.Hash128]bool{}
	addPool := func(s *SubDDG) bool {
		if s.Nodes.Len() == 0 || seen[s.Key()] {
			return false
		}
		if len(pool) >= opts.maxPoolSize() {
			// Defensive bound; no benchmark reaches it. Enforced here, at
			// the single point of growth, so the subtract AND fuse phases
			// both respect it and PoolLimited cannot under-report.
			res.PoolLimited = true
			return false
		}
		seen[s.Key()] = true
		pool = append(pool, s)
		return true
	}
	if opts.DisableDecompose {
		addPool(&SubDDG{Nodes: gs.Nodes()})
	} else {
		sp := rec.StartSpan("decompose", root)
		ok := guard(res, "decompose", func() {
			for _, s := range Decompose(gs) {
				addPool(s)
			}
		})
		if !ok && len(pool) == 0 {
			// Decomposition died before producing anything; match the whole
			// graph as one sub-DDG, the same degraded-but-sound view the
			// DisableDecompose ablation uses.
			addPool(&SubDDG{Nodes: gs.Nodes()})
		}
		endPhase(rec, sp, ok, obs.Int("pool", int64(len(pool))))
	}
	active := append([]*SubDDG(nil), pool...)

	// Fixpoint loop: match, subtract, fuse.
	for iter := 1; len(active) > 0 && iter <= opts.maxIterations(); iter++ {
		if interrupted(ctx, res) {
			break
		}
		res.Iterations = iter
		iterSpan := rec.StartSpan("iteration", root, obs.Int("i", int64(iter)))

		// Phase: match (parallel across active sub-DDGs). Worker panics are
		// contained per sub-DDG inside runMatchPhase; this guard covers the
		// phase's own bookkeeping.
		var matched []*SubDDG
		sp := rec.StartSpan("match", iterSpan, obs.Int("active", int64(len(active))))
		ok := guard(res, "match", func() { matched = runMatchPhase(ctx, gs, active, opts, res, rcache, sc, rec, sp) })
		endPhase(rec, sp, ok, obs.Int("matched", int64(len(matched))))
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
			fresh = append(fresh, subtractPhase(ctx, pool, matched, sc, res, addPool)...)
		})
		endPhase(rec, sp, ok, obs.Int("fresh", int64(len(fresh))))

		// Phase: fuse adjacent pool sub-DDGs with compatible matches (a
		// map flowing into any pattern).
		sp = rec.StartSpan("fuse", iterSpan)
		ok = guard(res, "fuse", func() {
			fresh = append(fresh, fusePhase(ctx, gs, pool, matched, sc, res, addPool)...)
		})
		endPhase(rec, sp, ok, obs.Int("fresh", int64(len(fresh))))

		rec.EndSpan(iterSpan)
		active = fresh
	}
	res.PoolSize = len(pool)

	// Extension: pipeline detection over pairs of unmatched stage loops
	// (paper §9 future work; see patterns.MatchPipeline).
	if opts.Extensions && !interrupted(ctx, res) {
		sp := rec.StartSpan("pipelines", root, obs.Int("pool", int64(len(pool))))
		ok := guard(res, "pipelines", func() { detectPipelines(ctx, gs, pool, opts, res, rcache, sc, rec, sp) })
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
	}
	for kind, ks := range res.SolverStats {
		k := kind.String()
		rec.Count(obs.L(obs.MetricSolverRuns, "kind", k), int64(ks.Runs))
		rec.Count(obs.L(obs.MetricSolverTimeouts, "kind", k), int64(ks.Timeouts))
		rec.Count(obs.L(obs.MetricCacheHits, "kind", k), int64(ks.CacheHits))
		rec.Count(obs.L(obs.MetricCacheMisses, "kind", k), int64(ks.CacheMisses))
		rec.Count(obs.L(obs.MetricCacheSkips, "kind", k), int64(ks.CacheSkips))
		if ks.Prescreened > 0 {
			rec.Count(obs.L(obs.MetricPrescreenSkips, "kind", k), int64(ks.Prescreened))
		}
		if ks.Restarts > 0 {
			rec.Count(obs.L(obs.MetricSolverRestarts, "kind", k), ks.Restarts)
		}
		if ks.Nogoods > 0 {
			rec.Count(obs.L(obs.MetricSolverNogoods, "kind", k), ks.Nogoods)
		}
	}
}

// guard runs one finder phase inside a recover boundary. A panic inside fn
// is recorded on res.Failures as a structured match-stage error naming the
// phase; whatever the phase wrote before dying is kept, and guard reports
// false so the caller can fall back. Phases run on the calling goroutine —
// task panics are contained separately (runSched.submit), since a
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

// sweep fans the index range [0, n) out over the scheduler as chunked
// tasks running body, and waits them out. Panics inside a chunk are
// contained per chunk by the scheduler (runSched.submit); chunks claimed
// past the run's deadline are dropped (their indices contribute nothing,
// and the interrupted(ctx, res) the caller runs afterwards labels the
// result). Runs on the phase goroutine; returns only after every chunk
// finished.
func sweep(sc *runSched, phase string, n int, body func(i int)) {
	if n == 0 {
		return
	}
	// Chunk count: enough slices for the executors to balance moderately
	// uneven items without per-item task overhead on large pools.
	chunks := sc.executors() * 4
	if chunks > n {
		chunks = n
	}
	size := (n + chunks - 1) / chunks
	for lo := 0; lo < n; lo += size {
		lo, hi := lo, lo+size
		if hi > n {
			hi = n
		}
		sc.submit(phase, classSolve, func(expired bool) {
			if expired {
				return
			}
			for i := lo; i < hi; i++ {
				body(i)
			}
		})
	}
	sc.wait()
}

// subtractPhase subtracts this iteration's matches from the unmatched
// pool sub-DDGs. The candidate diffs are computed in parallel — each pool
// index writes only its own slot — and folded into the pool sequentially
// in pool order afterwards, so the addPool call sequence (dedup, pool
// bound, fresh order) is exactly the sequential loop's whatever order the
// tasks ran in.
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
// every match.
func subtractPhase(ctx context.Context, pool, matched []*SubDDG, sc *runSched, res *Result, addPool func(*SubDDG) bool) []*SubDDG {
	if len(matched) == 0 {
		return nil
	}
	sets := nodeSets(matched)
	ix := newNodeIndex(sets)
	cands := make([][]*SubDDG, len(pool))
	sweep(sc, "subtract", len(pool), func(i int) {
		g1 := pool[i]
		if len(g1.Matched) > 0 {
			return
		}
		for _, j := range ix.sharing(g1.Nodes) {
			// Sharing a node, the difference is smaller than g1.
			diff := g1.Nodes.Diff(sets[j])
			if diff.Len() == 0 {
				continue
			}
			c := &SubDDG{Nodes: diff, Loop: g1.Loop, Assoc: g1.Assoc}
			c.Key() // memoized: hashed here in parallel, only looked up by the fold
			cands[i] = append(cands[i], c)
		}
	})
	interrupted(ctx, res)
	return foldCands(cands, addPool)
}

// foldCands adds each phase's candidates to the pool in candidate order
// and returns the ones the pool took.
func foldCands(cands [][]*SubDDG, addPool func(*SubDDG) bool) []*SubDDG {
	var fresh []*SubDDG
	for _, cs := range cands {
		for _, s := range cs {
			if addPool(s) {
				fresh = append(fresh, s)
			}
		}
	}
	return fresh
}

// fusePhase fuses adjacent pool sub-DDGs with compatible matches (a map
// flowing into any pattern). Same shape as subtractPhase: parallel
// candidate computation over the pool snapshot, sequential fold in
// (a, b) order. The snapshot is taken before any candidate is added, so
// tasks never observe this phase's own additions — the sequential loop
// behaved identically, since every added fusion has no matches yet and
// both loops skip matchless sub-DDGs. Partners come from a node index
// over the matched pool entries (nodeIndex.flowTargets), in pool order.
func fusePhase(ctx context.Context, gs *ddg.Graph, pool, matched []*SubDDG, sc *runSched, res *Result, addPool func(*SubDDG) bool) []*SubDDG {
	if len(matched) == 0 {
		return nil
	}
	isNew := make(map[*SubDDG]bool, len(matched))
	for _, s := range matched {
		isNew[s] = true
	}
	sets := make([]ddg.Set, len(pool))
	for i, s := range pool {
		if len(s.Matched) > 0 {
			sets[i] = s.Nodes
		}
	}
	ix := newNodeIndex(sets)
	cands := make([][]*SubDDG, len(pool))
	sweep(sc, "fuse", len(pool), func(i int) {
		a := pool[i]
		if len(a.Matched) == 0 || !hasMapMatch(a) {
			return
		}
		ix.flowTargets(gs, i, func(j int) {
			// At least one of the pair must be a new match this iteration,
			// otherwise the fusion already happened.
			if b := pool[j]; isNew[a] || isNew[b] {
				cands[i] = append(cands[i], &SubDDG{Nodes: a.Nodes.Union(b.Nodes), FusedA: a, FusedB: b})
			}
		})
	})
	interrupted(ctx, res)
	return foldCands(cands, addPool)
}

// detectPipelines looks for stage pairs among unmatched loop sub-DDGs: the
// paper's patterns leave stateful stages unmatched, which is exactly where
// pipelines hide (its excluded benchmarks bodytrack and h264dec).
func detectPipelines(ctx context.Context, gs *ddg.Graph, pool []*SubDDG, opts Options, res *Result, cache *runCache, sc *runSched, rec obs.Recorder, span obs.SpanID) {
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
	// Views are memoized on the sub-DDGs, so a stage viewed by the match
	// phase (or by several candidate pairings here) is built once; with a
	// warm cache the group-count gate needs no view at all.
	groupsOf := func(s *SubDDG) int {
		if n, ok := cache.groupCount(s.ViewHash(compact)); ok {
			return n
		}
		n := s.CachedView(gs, compact).NumGroups()
		cache.storeGroupCount(s.ViewHash(compact), n)
		return n
	}
	// Local budget collecting this pass's cache counters; merged into
	// res.SolverStats at the end (MatchPipeline itself runs no solver).
	pb := &patterns.Budget{Obs: rec, Span: span}
	defer func() { rollupStats(res, pb) }()

	// The pass enumerates pairs sequentially — gate checks and cache
	// lookups in deterministic (a, b) order, so the counters and the
	// hit/miss pattern are exactly the sequential pass's — and fans only
	// the cache misses out as scheduler tasks. Matches are folded in
	// enumeration order after the barrier, so the reported list is
	// identical whatever order the solves ran in. With a warm cache every
	// pair resolves at enumeration and no task is submitted at all.
	score := pb.Score() // pb carries no ctx: constant, safe to read once here
	type pipeSolve struct {
		p *patterns.Pattern
	}
	type pairJob struct {
		a     *SubDDG
		p     *patterns.Pattern // resolved at enumeration (cache hit)
		solve *pipeSolve        // a miss's pending result, shared by duplicate hashes
	}
	var jobs []pairJob
	pendingSolves := map[ddg.Hash128]*pipeSolve{}
	ix := newNodeIndex(nodeSets(stages))
	for ai, a := range stages {
		if interrupted(ctx, res) {
			break
		}
		ix.flowTargets(gs, ai, func(bi int) {
			b := stages[bi]
			if groupsOf(a) > opts.maxViewGroups() || groupsOf(b) > opts.maxViewGroups() {
				return
			}
			// The pipeline verdict is a property of the ordered stage pair,
			// cached under the pair's combined view hash.
			h := ddg.NewHasher(hashSeedPipelinePair)
			h.Hash(a.ViewHash(compact))
			h.Hash(b.ViewHash(compact))
			pair := h.Sum()
			if ps := pendingSolves[pair]; ps != nil {
				// An earlier pair this pass already owns this hash's solve.
				// Sequentially its store landed before this lookup, so this
				// is a cache hit on that solve's verdict — resolved at the
				// fold, when the solve has run.
				pb.RecordCacheHit(patterns.KindPipeline)
				jobs = append(jobs, pairJob{a: a, solve: ps})
				return
			}
			switch status, pat := cache.lookup(pair, patterns.KindPipeline, score); status {
			case cacheHit:
				pb.RecordCacheHit(patterns.KindPipeline)
				jobs = append(jobs, pairJob{a: a, p: pat})
			default:
				if cache != nil {
					pb.RecordCacheMiss(patterns.KindPipeline)
				}
				ps := &pipeSolve{}
				pendingSolves[pair] = ps
				jobs = append(jobs, pairJob{a: a, solve: ps})
				sc.submit("pipelines", classSolve, func(expired bool) {
					if expired {
						return
					}
					p := patterns.MatchPipeline(gs, a.CachedView(gs, compact), b.CachedView(gs, compact))
					if p != nil && opts.VerifyMatches {
						if err := patterns.Verify(gs, p); err != nil {
							p = nil
						}
					}
					cache.store(pair, patterns.KindPipeline, p, false, score)
					ps.p = p
				})
			}
		})
	}
	sc.wait()
	interrupted(ctx, res)
	for _, j := range jobs {
		p := j.p
		if j.solve != nil {
			p = j.solve.p
		}
		if p != nil {
			res.Matches = append(res.Matches,
				Match{Pattern: p, Sub: j.a, Iteration: iter})
		}
	}
}

// hashSeedPipelinePair tags ordered stage-pair hashes in the view cache.
const hashSeedPipelinePair = 0x6b8d2f4a1c3e5077

// Scheduler task classes. Decided-verdict match tasks resolve with one
// cache lookup, so they jump the queue; everything else — solver runs and
// the subtract/fuse/pipeline sweeps — shares one class and runs in
// submission order. The classes matter across runs, not within one: a
// shared pool serves every owner's class-0 backlog before anyone's
// class-1 work.
const (
	classDecided = 0
	classSolve   = 1
)

// runSched is one Find run's client handle on its solve pool
// (Options.Scheduler, else sched.Default): one owner on the pool, plus
// the run's task recover boundary. The submitting goroutine executes its
// own tasks while it waits (sched.Owner help-first waiting), so a run
// progresses even on a pool with no workers.
type runSched struct {
	pool  *sched.Pool
	owner *sched.Owner
	res   *Result
	// deadline is the run's global budget as a per-task deadline, checked
	// by the pool at claim time: once it passes, remaining tasks are
	// dropped before any solver work runs (the run budget, enforced at the
	// steal point instead of inside each solve).
	deadline time.Time

	mu    sync.Mutex
	fails []*analysis.Error // contained task panics, flushed by wait
}

func newRunSched(ctx context.Context, opts Options, res *Result) *runSched {
	pool := opts.Scheduler
	if pool == nil {
		pool = sched.Default()
	}
	return &runSched{
		pool:     pool,
		owner:    pool.NewOwner(ctx),
		res:      res,
		deadline: (&patterns.Budget{Ctx: ctx}).Deadline(),
	}
}

// close deregisters the run's owner; the pool outlives the run.
func (rs *runSched) close() { rs.owner.Close() }

// executors is the parallel capacity this run sees; phase chunking sizes
// its task batches with it.
func (rs *runSched) executors() int { return rs.pool.Executors() }

// submit queues one task of the named phase under the run's deadline.
// It is the task recover boundary: a panic inside do is recorded as a
// structured "<phase> task failed" error, and the next wait appends it to
// Result.Failures; the run's other tasks carry on.
func (rs *runSched) submit(phase string, class int, do func(expired bool)) {
	rs.owner.Submit(sched.Task{Class: class, Deadline: rs.deadline, Do: func(expired bool) {
		defer func() {
			if r := recover(); r != nil {
				ae := analysis.Recovered(analysis.StageMatch, r)
				rs.mu.Lock()
				rs.fails = append(rs.fails, analysis.Wrap(ae.Stage, ae.Kind, ae,
					"%s task failed", phase))
				rs.mu.Unlock()
			}
		}()
		do(expired)
	}})
}

// wait blocks until every submitted task completed, helping the pool by
// executing this run's own tasks meanwhile, then moves the contained task
// failures onto the Result. Runs on the phase goroutine, the Result's
// only writer at that point.
func (rs *runSched) wait() {
	rs.owner.Wait()
	rs.mu.Lock()
	rs.res.Failures = append(rs.res.Failures, rs.fails...)
	rs.fails = nil
	rs.mu.Unlock()
}

// budgetFor builds a fresh solver budget carrying the run's bounds. Each
// solve task gets its own so per-task "budget exceeded" outcomes stay
// distinguishable; diagnostics are merged upward afterwards. rec and span
// route the budget's solver-run spans under the task's match span.
func budgetFor(ctx context.Context, opts Options, rec obs.Recorder, span obs.SpanID) *patterns.Budget {
	return &patterns.Budget{
		Ctx:          ctx,
		SolveTimeout: opts.SolverBudget,
		StepLimit:    opts.SolverStepLimit,
		RestartSlice: opts.SolverRestartSlice,
		Obs:          rec,
		Span:         span,
	}
}

// Kind slots: the canonical per-sub-DDG solve order. Assembling a
// sub-DDG's matches in slot order reproduces the sequential matcher's
// append order exactly, whatever order the tasks actually ran in.
const (
	slotMap = iota
	slotLinear
	slotTiled
	slotTree
	numKindSlots
)

func slotKind(slot int) patterns.Kind {
	switch slot {
	case slotMap:
		return patterns.KindMap
	case slotLinear:
		return patterns.KindLinearReduction
	case slotTiled:
		return patterns.KindTiledReduction
	default:
		return patterns.KindTreeReduction
	}
}

// subState is the shared per-sub-DDG state of the match scheduler. Its
// tasks may run on different workers concurrently: the gate/prescreen prep
// and the view build are once-guarded, per-kind results land in disjoint
// slots, and the last task to finish (pending reaching zero) assembles
// s.Matched and books the per-sub counters exactly once.
type subState struct {
	s     *SubDDG
	vhash ddg.Hash128
	fused bool

	pending  atomic.Int32
	exceeded atomic.Bool // any task's budget was resource-limited
	dropped  atomic.Bool // any task was dropped at claim time (deadline/cancel)

	prepOnce sync.Once
	skip     bool                // oversized-view gate verdict
	pre      *patterns.Prescreen // nil when disabled or skipped

	viewOnce sync.Once
	view     *patterns.View

	slots      [numKindSlots]*patterns.Pattern
	fusedFound []*patterns.Pattern
}

// matchTask is one unit of match work: one pattern kind on one sub-DDG
// (or the whole compound matching of a fused sub-DDG, slot < 0).
type matchTask struct {
	st   *subState
	slot int
	// Priority key: decided-verdict tasks first (class 0 — they resolve
	// with one cache lookup), then by view size ascending, then by pool
	// and slot order for determinism.
	class, nodes, subIdx int
}

// matchPhase carries the match phase's shared state: the task list built
// in priority order and submitted to the scheduler as one batch, and the
// accumulators its tasks merge into from whatever executor ran them. The
// counters are commutative and the budget merge is order-insensitive for
// everything the default output reads, so any task-to-executor assignment
// rolls up the same.
type matchPhase struct {
	ctx     context.Context
	gs      *ddg.Graph
	opts    Options
	cache   *runCache
	rec     obs.Recorder
	span    obs.SpanID
	compact bool

	tasks []matchTask

	skips     atomic.Int64
	timedOut  atomic.Int64
	preChecks atomic.Int64

	mu     sync.Mutex
	rollup patterns.Budget
	fails  []*analysis.Error
}

// matchTaskHook, when non-nil, runs at the entry of every solve task with
// the task's pattern kind, on the worker goroutine. Tests install it
// through export_test.go to observe task-level concurrency.
var matchTaskHook func(kind patterns.Kind)

// runMatchPhase matches every active sub-DDG against the pattern
// definitions and returns the sub-DDGs with at least one match. The unit
// of parallel work is a (sub-DDG × kind) solve task, submitted to the
// run's scheduler in priority order — likely cache hits first (their own
// class), then small views before large — so one pathological kind
// occupies one executor, not a whole sub-DDG's worth of others behind it.
// Tasks claimed after the run's deadline or cancellation are dropped by
// the scheduler before any solver work; their sub-DDGs stay unmatched and
// the remainder is reported via res.Interrupted rather than silently
// smaller.
func runMatchPhase(ctx context.Context, gs *ddg.Graph, active []*SubDDG, opts Options, res *Result, cache *runCache, sc *runSched, rec obs.Recorder, span obs.SpanID) []*SubDDG {
	mp := &matchPhase{
		ctx:     ctx,
		gs:      gs,
		opts:    opts,
		cache:   cache,
		rec:     rec,
		span:    span,
		compact: !opts.DisableCompact,
	}
	mp.buildTasks(active)
	for _, t := range mp.tasks {
		t := t
		sc.submit("match", t.class, func(expired bool) { mp.runTask(t, expired) })
	}
	sc.wait()
	res.SkippedViews += int(mp.skips.Load())
	res.TimedOutViews += int(mp.timedOut.Load())
	res.PrescreenChecks += int(mp.preChecks.Load())
	res.Failures = append(res.Failures, mp.fails...)
	// Panics contained inside individual solver runs (cp.Stats.Err) ride
	// along on the merged budgets.
	res.Failures = append(res.Failures, mp.rollup.Errs...)
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

// buildTasks splits the active sub-DDGs into solve tasks and sorts them by
// priority. View hashes are computed here, on the main goroutine, so the
// sub-DDG memos are written before any worker reads them.
func (mp *matchPhase) buildTasks(active []*SubDDG) {
	for i, s := range active {
		st := &subState{s: s}
		var slots []int
		switch {
		case s.FusedA != nil:
			// Compound matching combines the constituents' patterns; it is
			// one cheap task with no view, gate, or cache interaction.
			st.fused = true
			slots = []int{-1}
		case s.Assoc:
			// The combining-tree follow-up (extensions, only when linear and
			// tiled both miss) is not a schedulable task: it runs inline when
			// the sub-DDG's last prerequisite task completes.
			slots = []int{slotLinear, slotTiled}
		default:
			slots = []int{slotMap, slotLinear, slotTiled}
		}
		if !st.fused {
			st.vhash = s.ViewHash(mp.compact)
		}
		st.pending.Store(int32(len(slots)))
		nodes := s.Nodes.Len()
		for _, slot := range slots {
			t := matchTask{st: st, slot: slot, class: classSolve, nodes: nodes, subIdx: i}
			if slot >= 0 && mp.cache.decided(st.vhash, slotKind(slot)) {
				t.class = classDecided
			}
			mp.tasks = append(mp.tasks, t)
		}
	}
	sort.SliceStable(mp.tasks, func(i, j int) bool {
		a, b := mp.tasks[i], mp.tasks[j]
		if a.class != b.class {
			return a.class < b.class
		}
		if a.nodes != b.nodes {
			return a.nodes < b.nodes
		}
		if a.subIdx != b.subIdx {
			return a.subIdx < b.subIdx
		}
		return a.slot < b.slot
	})
}

// runTask executes one solve task: span, per-task budget, the recover
// boundary, result slotting, and — when it was the sub-DDG's last pending
// task — the sub-DDG's completion. An expired task (claimed past the
// run's deadline or cancellation) does only the completion bookkeeping:
// it marks the sub-DDG dropped so finishSub leaves it unmatched — the
// sequential finder never decided it, so reporting a partial slot
// assembly would invent results a budget-free run could not produce.
func (mp *matchPhase) runTask(t matchTask, expired bool) {
	st := t.st
	if expired {
		st.dropped.Store(true)
		if st.pending.Add(-1) == 0 {
			mp.finishSub(st)
		}
		return
	}
	if matchTaskHook != nil && !st.fused {
		matchTaskHook(slotKind(t.slot))
	}
	rec := mp.rec
	var span obs.SpanID
	if rec.Enabled() {
		kind := "fused"
		if !st.fused {
			kind = slotKind(t.slot).String()
		}
		span = rec.StartSpan("match-task", mp.span,
			obs.Int("nodes", int64(st.s.Nodes.Len())),
			obs.Str("kind", kind))
	}
	b := budgetFor(mp.ctx, mp.opts, rec, span)
	var p *patterns.Pattern
	fail := mp.safeTask(st, t.slot, b, &p)
	if fail != nil {
		mp.mu.Lock()
		mp.fails = append(mp.fails, fail)
		mp.mu.Unlock()
	}
	if !st.fused && t.slot >= 0 && p != nil {
		st.slots[t.slot] = p
	}
	if b.Exceeded {
		st.exceeded.Store(true)
	}
	if rec.Enabled() {
		matched := 0
		if p != nil {
			matched = 1
		}
		if st.fused {
			matched = len(st.fusedFound)
		}
		attrs := []obs.Attr{obs.Int("matched", int64(matched))}
		if st.skip {
			attrs = append(attrs, obs.Str("skipped", "true"))
		}
		if b.Exceeded {
			attrs = append(attrs, obs.Str("undecided", "true"))
		}
		if fail != nil {
			attrs = append(attrs, obs.Failed(fail.Error()))
		}
		rec.EndSpan(span, attrs...)
	}
	mp.mu.Lock()
	mp.rollup.Merge(b)
	mp.mu.Unlock()
	if st.pending.Add(-1) == 0 {
		mp.finishSub(st)
	}
}

// safeTask is the per-task recover boundary: a panic while solving one
// (sub-DDG × kind) costs that task's result, not the phase — and not even
// the sub-DDG's other kinds.
func (mp *matchPhase) safeTask(st *subState, slot int, b *patterns.Budget, out **patterns.Pattern) (fail *analysis.Error) {
	defer func() {
		if r := recover(); r != nil {
			ae := analysis.Recovered(analysis.StageMatch, r)
			*out = nil
			fail = analysis.Wrap(ae.Stage, ae.Kind, ae,
				"matching a sub-DDG of %d nodes failed", st.s.Nodes.Len())
		}
	}()
	if st.fused {
		st.fusedFound = mp.matchFused(st.s)
		return nil
	}
	mp.prep(st)
	if st.skip {
		return nil
	}
	*out = mp.matchKind(st, slotKind(slot), b)
	return nil
}

// prep runs the sub-DDG's once-per-sub work on the first task to arrive:
// the oversized-view gate and the structural prescreen census.
func (mp *matchPhase) prep(st *subState) {
	st.prepOnce.Do(func() {
		max := mp.opts.maxViewGroups()
		// Groups never outnumber nodes, so only a view bigger than the gate
		// in node count can exceed it in group count — small views pass
		// without being built or counted.
		if st.s.Nodes.Len() > max {
			n, ok := mp.cache.groupCount(st.vhash)
			if !ok {
				n = mp.viewOf(st).NumGroups()
			}
			if n > max {
				st.skip = true
				return
			}
		}
		if !mp.opts.noPrescreen {
			rec := mp.rec
			if rec.Enabled() {
				t0 := time.Now()
				st.pre = patterns.PrescreenSub(mp.gs, st.s.Nodes, st.s.viewLoop(mp.compact))
				rec.Observe(obs.MetricPrescreenSeconds, time.Since(t0).Seconds())
			} else {
				st.pre = patterns.PrescreenSub(mp.gs, st.s.Nodes, st.s.viewLoop(mp.compact))
			}
			mp.preChecks.Add(1)
		}
	})
}

// viewOf builds (once) and returns the sub-DDG's matching view, recording
// its group count in the cache and the size histogram.
func (mp *matchPhase) viewOf(st *subState) *patterns.View {
	st.viewOnce.Do(func() {
		st.view = st.s.CachedView(mp.gs, mp.compact)
		n := st.view.NumGroups()
		mp.cache.storeGroupCount(st.vhash, n)
		if mp.rec.Enabled() {
			mp.rec.Observe(obs.MetricViewGroups, float64(n))
		}
	})
	return st.view
}

// matchKind runs one kind's solve through the cache and the prescreen.
// Verdicts are stored post-verification, so a hit's pattern needs no
// re-check. A prescreen prune books the same cache interactions a matcher
// run would have (a miss, then a stored negative verdict), so the cache
// accounting is identical with the prescreen on or off.
func (mp *matchPhase) matchKind(st *subState, kind patterns.Kind, b *patterns.Budget) *patterns.Pattern {
	cache := mp.cache
	switch status, pat := cache.lookup(st.vhash, kind, b.Score()); status {
	case cacheHit:
		b.RecordCacheHit(kind)
		return pat
	case cacheHitPrescreened:
		b.RecordCacheHit(kind)
		b.RecordPrescreened(kind)
		return nil
	case cacheSkip:
		b.RecordCacheSkip(kind)
		b.MarkExceeded()
		return nil
	}
	if cache != nil {
		b.RecordCacheMiss(kind)
	}
	if st.pre.CannotMatch(kind) {
		// Fast path: the census proved this kind's matcher returns nil, at
		// O(view) cost instead of a matcher (and possibly solver) run.
		b.RecordPrescreened(kind)
		cache.storePrescreened(st.vhash, kind)
		return nil
	}
	before := b.KindTimeouts(kind)
	p := mp.runMatcher(st, kind, b)
	if p != nil && mp.opts.VerifyMatches {
		if err := patterns.Verify(mp.gs, p); err != nil {
			p = nil
		}
	}
	// A nil from a resource-limited solve is "undecided", not "none".
	limited := b.KindTimeouts(kind) > before
	cache.store(st.vhash, kind, p, p == nil && limited, b.Score())
	return p
}

// runMatcher dispatches to the kind's matcher over the (lazily built) view.
func (mp *matchPhase) runMatcher(st *subState, kind patterns.Kind, b *patterns.Budget) *patterns.Pattern {
	v := mp.viewOf(st)
	switch kind {
	case patterns.KindMap:
		m := patterns.MatchMap(v)
		if mp.opts.Extensions && m != nil {
			if stn := patterns.MatchStencil(mp.gs, m); stn != nil {
				m = stn // report the more specific refinement
			}
		}
		return m
	case patterns.KindLinearReduction:
		return patterns.MatchLinearReduction(v, b)
	case patterns.KindTiledReduction:
		return patterns.MatchTiledReduction(v, b)
	default:
		return patterns.MatchTreeReduction(v)
	}
}

// finishSub runs when a sub-DDG's last task completes: the tree-reduction
// follow-up where it applies, the deterministic assembly of s.Matched in
// slot order, and the once-per-sub skip/timeout accounting.
func (mp *matchPhase) finishSub(st *subState) {
	if st.dropped.Load() {
		// A task of this sub-DDG was dropped at claim time: its slots are
		// incomplete, and assembling a partial Matched would report a
		// sub-DDG the unbounded finder never decided. Leave it unmatched —
		// res.Interrupted labels the run, exactly like the old workers that
		// stopped claiming and left the sub-DDG's completion never firing.
		return
	}
	if st.fused {
		st.s.Matched = st.fusedFound
		return
	}
	if st.skip {
		mp.skips.Add(1)
		return
	}
	if st.s.Assoc && mp.opts.Extensions &&
		st.slots[slotLinear] == nil && st.slots[slotTiled] == nil {
		// The combining-tree generalization, only where the paper's
		// specific variants did not apply. Runs inline on the completing
		// executor: pending is already zero, so this nested runTask cannot
		// re-trigger finishSub.
		mp.runTask(matchTask{st: st, slot: slotTree}, false)
	}
	var found []*patterns.Pattern
	for _, p := range st.slots {
		if p != nil {
			found = append(found, p)
		}
	}
	st.s.Matched = found
	if st.exceeded.Load() {
		mp.timedOut.Add(1)
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

// rollupStats folds a budget's per-kind solver effort and cache counters
// into the result.
func rollupStats(res *Result, b *patterns.Budget) {
	if len(b.Kinds) == 0 {
		return
	}
	if res.SolverStats == nil {
		res.SolverStats = map[patterns.Kind]patterns.KindStats{}
	}
	for kind, ks := range b.Kinds {
		cur := res.SolverStats[kind]
		cur.Add(*ks)
		res.SolverStats[kind] = cur
	}
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
