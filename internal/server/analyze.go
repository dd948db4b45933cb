package server

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"discovery/internal/core"
	"discovery/internal/ddg"
	"discovery/internal/obs"
	"discovery/internal/report"
	"discovery/internal/starbench"
	"discovery/internal/store"
	"discovery/internal/trace"
)

// Request is one analysis submission: a registered Starbench workload plus
// the output-relevant subset of core.Options. The server owns everything
// the request does not mention — worker counts, the shared ViewCache, the
// observability wiring — so two clients asking the same question get the
// same answer regardless of who runs first.
type Request struct {
	// Bench and Version name the workload (see GET /benchmarks).
	Bench   string `json:"bench"`
	Version string `json:"version"`

	// Options is the caller-controllable analysis subset.
	Options RequestOptions `json:"options"`

	// PhaseTree asks for the per-request phase-span tree in the response.
	PhaseTree bool `json:"phase_tree,omitempty"`

	// NoStore bypasses the result store for this request (both lookup and
	// write-back); the analysis still runs and still shares the ViewCache.
	NoStore bool `json:"no_store,omitempty"`
}

// RequestOptions is the core.Options subset a request may set. Every
// field that changes the report participates in the options fingerprint;
// NoCache is an output-invariant escape hatch and does not.
type RequestOptions struct {
	// BudgetMS bounds the run end to end, queue wait included (0 means
	// the server's default; values above the server's maximum are
	// clamped). The effective budget maps onto core.Options.Budget.
	BudgetMS int64 `json:"budget_ms,omitempty"`
	// SolverBudgetMS caps each constraint-solver run (0 = the default).
	SolverBudgetMS int64 `json:"solver_budget_ms,omitempty"`
	// SolverSteps is the deterministic per-solve step limit (0 = none).
	SolverSteps int64 `json:"solver_steps,omitempty"`
	// SolverRestarts arms Luby-scheduled restarts with this slice.
	SolverRestarts int64 `json:"solver_restarts,omitempty"`
	// MaxViewGroups skips views larger than this many groups (0 = default).
	MaxViewGroups int `json:"max_view_groups,omitempty"`
	// Verify re-checks matches against the unrelaxed definitions.
	Verify bool `json:"verify,omitempty"`
	// Extensions enables the future-work pattern kinds.
	Extensions bool `json:"extensions,omitempty"`
	// NoCache opts this request out of the shared ViewCache.
	NoCache bool `json:"no_cache,omitempty"`
}

// Response is the analysis envelope: where the answer came from (store),
// what it cost (diagnostics), and the canonical report document itself.
// The report bytes are exactly what report.JSON produced on the run that
// computed the result — a warm response replays them verbatim, so clients
// may byte-compare reports across cache and store states.
type Response struct {
	Bench       string          `json:"bench"`
	Version     string          `json:"version"`
	Store       StoreInfo       `json:"store"`
	Diagnostics Diagnostics     `json:"diagnostics"`
	Report      json.RawMessage `json:"report"`
	PhaseTree   string          `json:"phase_tree,omitempty"`
}

// StoreInfo reports how the result store participated in a request.
type StoreInfo struct {
	// Status is one of:
	//   "hit"             — answered from the store before tracing
	//   "hit_after_trace" — answered from the store after tracing (a
	//                       different workload traced to the same graph)
	//   "miss"            — computed and written back
	//   "bypass"          — request asked for no_store
	//   "disabled"        — the server runs without a store
	Status string `json:"status"`
	// Key is the result entry involved (empty when disabled/bypassed).
	Key string `json:"key,omitempty"`
	// GraphFP and OptionsFP are the fingerprints behind the key.
	GraphFP   string `json:"graph_fp,omitempty"`
	OptionsFP string `json:"options_fp,omitempty"`
}

// Diagnostics is the per-request cost accounting. On a store hit the
// solver/cache/prescreen counters are all zero — nothing ran — and
// TracedNodes/Patterns/Degraded describe the original run that produced
// the stored result.
type Diagnostics struct {
	SolverRuns      int   `json:"solver_runs"`
	CacheHits       int   `json:"cache_hits"`
	CacheMisses     int   `json:"cache_misses"`
	CacheSkips      int   `json:"cache_skips"`
	PrescreenChecks int   `json:"prescreen_checks"`
	PrescreenSkips  int   `json:"prescreen_skips"`
	TracedNodes     int   `json:"traced_nodes"`
	Patterns        int   `json:"patterns"`
	Degraded        bool  `json:"degraded"`
	Interrupted     bool  `json:"interrupted"`
	ElapsedMS       int64 `json:"elapsed_ms"`
	QueueMS         int64 `json:"queue_ms"`
	// BrownoutMS is how much of the request's budget admission brownout
	// took away (0 when the queue was below the pressure threshold). A
	// non-zero value is the honest marker that the daemon chose a smaller
	// answer over a 503.
	BrownoutMS int64 `json:"brownout_clamped_ms,omitempty"`
}

// httpError is a process outcome that maps to a non-200 status.
// retryAfter, when positive, becomes a Retry-After header (seconds) —
// set on load-shedding 503s so clients back off instead of hammering.
type httpError struct {
	code       int
	msg        string
	retryAfter int
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{code: 400, msg: fmt.Sprintf(format, args...)}
}

// lookupBenchmark resolves a workload name against the evaluated suite
// and the extended registry, mirroring the CLI's lookup.
func lookupBenchmark(name string) *starbench.Benchmark {
	if b := starbench.ByName(name); b != nil {
		return b
	}
	for _, b := range starbench.Extended() {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// validate checks the request against the registries and normalizes the
// budget against the server's default and ceiling.
func (s *Server) validate(req *Request) (*starbench.Benchmark, starbench.Version, time.Duration, *httpError) {
	b := lookupBenchmark(req.Bench)
	if b == nil {
		return nil, "", 0, badRequest("unknown benchmark %q (see GET /benchmarks)", req.Bench)
	}
	v := starbench.Version(req.Version)
	if v != starbench.Seq && v != starbench.Pthreads {
		return nil, "", 0, badRequest("unknown version %q (seq or pthreads)", req.Version)
	}
	o := req.Options
	if o.BudgetMS < 0 || o.SolverBudgetMS < 0 || o.SolverSteps < 0 ||
		o.SolverRestarts < 0 || o.MaxViewGroups < 0 {
		return nil, "", 0, badRequest("options must be non-negative")
	}
	budget := time.Duration(o.BudgetMS) * time.Millisecond
	if budget <= 0 {
		budget = s.cfg.DefaultBudget
	}
	if budget > s.cfg.MaxBudget {
		budget = s.cfg.MaxBudget
	}
	return b, v, budget, nil
}

// coreOptions maps the request subset onto core.Options. The effective
// budget (defaulted and clamped server-side) stands in for the raw
// request value so the fingerprinted options match what actually ran.
func (s *Server) coreOptions(o RequestOptions, budget time.Duration) core.Options {
	return core.Options{
		VerifyMatches:      o.Verify,
		Extensions:         o.Extensions,
		MaxViewGroups:      o.MaxViewGroups,
		Budget:             budget,
		SolverBudget:       time.Duration(o.SolverBudgetMS) * time.Millisecond,
		SolverStepLimit:    o.SolverSteps,
		SolverRestartSlice: o.SolverRestarts,
		DisableCache:       o.NoCache,
	}
}

// optionsFingerprint hashes every option that changes the report. The
// budget fields are included because truncation changes the output; the
// cache switch is not, because the cache is output-invariant by
// construction (that invariance is exactly what the equivalence tests
// assert).
func optionsFingerprint(opts core.Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "v1|verify=%t|ext=%t|mvg=%d|budget=%d|sbudget=%d|steps=%d|restart=%d",
		opts.VerifyMatches, opts.Extensions, opts.MaxViewGroups,
		opts.Budget, opts.SolverBudget, opts.SolverStepLimit, opts.SolverRestartSlice)
	return fmt.Sprintf("%x", h.Sum(nil))[:32]
}

// requestFingerprint identifies a submission before any tracing happens:
// workload identity plus the options fingerprint. It keys the store's
// index entries, which is what lets an exact resubmission short-circuit
// the trace as well as the solve.
func requestFingerprint(bench string, v starbench.Version, optionsFP string) string {
	h := sha256.New()
	fmt.Fprintf(h, "v1|bench=%s|version=%s|opts=%s", bench, v, optionsFP)
	return fmt.Sprintf("%x", h.Sum(nil))[:32]
}

// graphFingerprint renders the traced DDG's content hash as the store's
// key component.
func graphFingerprint(fp ddg.Hash128) string {
	return fmt.Sprintf("%016x%016x", fp.Hi, fp.Lo)
}

// process runs one admitted request end to end. queueWait is how long the
// job sat in the admission queue; it is charged against the request's
// budget so the deadline a client asked for is end-to-end, not
// compute-only. occupancy is the queue's fill fraction at dequeue; under
// pressure it clamps the runtime budget further (brownout) so the daemon
// degrades answers before it degrades availability.
func (s *Server) process(ctx context.Context, req *Request, queueWait time.Duration, occupancy float64) (*Response, *httpError) {
	bench, version, budget, herr := s.validate(req)
	if herr != nil {
		s.reg.Count(obs.L(obs.MetricServerRequests, "status", "invalid"), 1)
		return nil, herr
	}

	// The request's identity uses the normalized budget (defaulted and
	// clamped, but not queue-adjusted): two identical submissions must
	// fingerprint identically regardless of how long each one queued.
	opts := s.coreOptions(req.Options, budget)
	optsFP := optionsFingerprint(opts)

	// The runtime deadline does charge the queue wait — the budget a
	// client asked for is end to end — with a small floor so a request
	// that waited past its whole budget still produces an honest
	// Interrupted result instead of an opaque failure. Interrupted
	// results are never stored, so the queue charge cannot leak a
	// truncated answer under the full-budget fingerprint.
	if run := budget - queueWait; run < 50*time.Millisecond {
		opts.Budget = 50 * time.Millisecond
	} else {
		opts.Budget = run
	}

	// Brownout: like the queue charge, pressure clamping shapes only the
	// runtime deadline, never the request's identity — and like an
	// interrupted run, a clamped run that actually degraded is not stored
	// (see the write-back condition below), so the clamp can never leak a
	// truncated answer under the full-budget fingerprint.
	var brownoutMS int64
	if factor := s.cfg.Brownout.factor(occupancy); factor < 1 {
		clamped := time.Duration(float64(opts.Budget) * factor)
		if clamped < 50*time.Millisecond {
			clamped = 50 * time.Millisecond
		}
		if clamped < opts.Budget {
			brownoutMS = (opts.Budget - clamped).Milliseconds()
			opts.Budget = clamped
			s.brownouts.Add(1)
			s.reg.Count(obs.MetricServerBrownout, 1)
		}
	}
	reqFP := requestFingerprint(bench.Name, version, optsFP)
	info := StoreInfo{Status: "disabled", OptionsFP: optsFP}
	useStore := s.st != nil && !req.NoStore
	if s.st == nil {
		info.OptionsFP = ""
	}
	if req.NoStore {
		info = StoreInfo{Status: "bypass"}
	}

	start := time.Now()
	diag := Diagnostics{QueueMS: queueWait.Milliseconds()}

	// Pre-trace short-circuit: an index entry maps this exact submission
	// to a finished result, so neither the tracer nor the finder runs.
	if useStore {
		info.Status = "miss"
		if idx, ok, err := s.st.Get(store.RequestKey(reqFP)); err == nil && ok {
			if res, ok, err := s.st.Get(idx.Target); err == nil && ok {
				s.reg.Count(obs.MetricServerStoreHits, 1)
				info.Status = "hit"
				return s.warmResponse(req, res, info, diag, start), nil
			}
		}
	}

	// Per-request span tree: a collector when the client asked for the
	// phase tree, otherwise only the daemon-wide registry sees metrics.
	var collector *obs.Collector
	spans := obs.Nop
	if req.PhaseTree {
		collector = obs.NewCollector()
		spans = collector
	}
	rec := obs.Recorder(&teeRecorder{spans: spans, reg: s.reg})
	root := rec.StartSpan("request", 0,
		obs.Str("bench", bench.Name), obs.Str("version", string(version)))

	// Fault seam: the trace boundary is hooked here (a hook panic is the
	// worker recover boundary's problem — one clean 500, not a dead
	// daemon); the finder's phase boundaries are hooked through Options.
	if s.cfg.PhaseHook != nil {
		s.cfg.PhaseHook("trace")
		opts.PhaseHook = s.cfg.PhaseHook
	}

	built := bench.Build(version, bench.Analysis)
	tr, err := trace.RunObserved(built.Prog, rec, root)
	if err != nil {
		rec.EndSpan(root, obs.Failed(err.Error()))
		s.reg.Count(obs.L(obs.MetricServerRequests, "status", "error"), 1)
		return nil, &httpError{code: 500, msg: fmt.Sprintf("tracing %s/%s: %v", bench.Name, version, err)}
	}
	diag.TracedNodes = tr.Graph.NumNodes()

	// Fingerprint before spilling: the hash walks the whole adjacency, and
	// doing it while the arc arrays are still resident avoids paging the
	// entire graph straight back in.
	graphFP := graphFingerprint(tr.Graph.Fingerprint())

	// Out-of-core paging: a traced graph over the budget moves its arc
	// arrays to an unlinked spill file for the rest of the request; the
	// finder spills the simplified graph it derives on its own (same
	// options). Both spills are released when the request finishes —
	// responses carry reports, never graphs, so nothing outlives this
	// scope. Failures degrade to in-core analysis.
	if s.cfg.SpillBudget > 0 {
		spillCfg := ddg.SpillConfig{Dir: s.cfg.SpillDir, Budget: s.cfg.SpillBudget}
		if spilled, err := tr.Graph.MaybeSpill(spillCfg); err == nil && spilled {
			s.reg.Count(obs.MetricDDGSpills, 1)
		}
		opts.SpillBudget = s.cfg.SpillBudget
		opts.SpillDir = s.cfg.SpillDir
		defer func() {
			tr.Graph.CloseSpill()
		}()
	}
	resultKey := store.ResultKey(graphFP, optsFP)
	info.GraphFP, info.Key = graphFP, resultKey

	// Post-trace second chance: a different workload name may trace to an
	// identical graph; its stored result answers this request too. The
	// index entry written here lets the next resubmission skip the trace.
	if useStore {
		if res, ok, err := s.st.Get(resultKey); err == nil && ok {
			s.putIndex(reqFP, resultKey)
			s.reg.Count(obs.MetricServerStoreHits, 1)
			info.Status = "hit_after_trace"
			rec.EndSpan(root, obs.Str("store", info.Status))
			return s.warmResponse(req, res, info, diag, start), nil
		}
		s.reg.Count(obs.MetricServerStoreMisses, 1)
	}

	if !opts.DisableCache {
		opts.Cache = s.cache
	}
	// Every request solves on the one shared pool: total solver
	// parallelism stays SchedWorkers regardless of how many analyses are
	// in flight, and a small request's class-0 tasks can be claimed ahead
	// of a large neighbor's backlog instead of queueing behind it.
	opts.Scheduler = s.pool
	opts.Obs, opts.ObsParent = rec, root
	res := core.FindCtx(ctx, tr.Graph, opts)
	// The finder may have spilled the simplified graph it matched on;
	// release it with the request (no-op when distinct from tr.Graph's
	// spill or never spilled — CloseSpill is idempotent and nil-safe).
	defer res.Graph.CloseSpill()
	rec.EndSpan(root, obs.Int("patterns", int64(len(res.Patterns))))

	doc, err := report.JSON(res)
	if err != nil {
		s.reg.Count(obs.L(obs.MetricServerRequests, "status", "error"), 1)
		return nil, &httpError{code: 500, msg: fmt.Sprintf("rendering report: %v", err)}
	}

	elapsed := time.Since(start)
	diag.ElapsedMS = elapsed.Milliseconds()
	diag.BrownoutMS = brownoutMS
	diag.Patterns = len(res.Patterns)
	diag.Degraded = res.Degraded()
	diag.Interrupted = res.Interrupted
	diag.CacheHits, diag.CacheMisses, diag.CacheSkips = res.CacheStats()
	diag.PrescreenChecks, diag.PrescreenSkips = res.PrescreenStats()
	for _, ks := range res.SolverStats {
		diag.SolverRuns += ks.Runs
	}

	// Write back unless the run was cut short by the deadline: an
	// interrupted result is wall-clock-dependent, and memoizing it would
	// pin a truncated answer under a key that promises the full one. The
	// same reasoning excludes brownout-clamped runs that actually degraded
	// — their smaller budget is pressure-dependent, not part of the key.
	if useStore && !res.Interrupted && !(brownoutMS > 0 && res.Degraded()) {
		entry := &store.Entry{
			Key:         resultKey,
			GraphFP:     graphFP,
			OptionsFP:   optsFP,
			Report:      doc,
			TracedNodes: diag.TracedNodes,
			Patterns:    diag.Patterns,
			Degraded:    diag.Degraded,
			ElapsedMS:   diag.ElapsedMS,
			CreatedAt:   time.Now().UTC(),
		}
		if err := s.st.Put(entry); err == nil {
			s.putIndex(reqFP, resultKey)
		}
	}

	resp := &Response{
		Bench:       bench.Name,
		Version:     req.Version,
		Store:       info,
		Diagnostics: diag,
		Report:      json.RawMessage(doc),
	}
	if collector != nil {
		resp.PhaseTree = report.PhaseTree(collector, 12)
	}
	s.reg.Count(obs.L(obs.MetricServerRequests, "status", "ok"), 1)
	s.reg.Observe(obs.MetricServerRequestSeconds, elapsed.Seconds())
	return resp, nil
}

// warmResponse builds the envelope for a store-answered request: the
// stored report bytes verbatim, zero solver/cache counters (nothing ran),
// and the original run's summary numbers.
func (s *Server) warmResponse(req *Request, e *store.Entry, info StoreInfo, diag Diagnostics, start time.Time) *Response {
	info.Key = e.Key
	info.GraphFP = e.GraphFP
	info.OptionsFP = e.OptionsFP
	diag.ElapsedMS = time.Since(start).Milliseconds()
	diag.TracedNodes = e.TracedNodes
	diag.Patterns = e.Patterns
	diag.Degraded = e.Degraded
	s.reg.Count(obs.L(obs.MetricServerRequests, "status", "ok"), 1)
	s.reg.Observe(obs.MetricServerRequestSeconds, time.Since(start).Seconds())
	return &Response{
		Bench:       req.Bench,
		Version:     req.Version,
		Store:       info,
		Diagnostics: diag,
		Report:      json.RawMessage(e.Report),
	}
}

// putIndex writes the request-fingerprint index entry pointing at a
// result. Failures are deliberately ignored: the index is a shortcut, and
// the result entry alone still answers post-trace lookups.
func (s *Server) putIndex(reqFP, resultKey string) {
	_ = s.st.Put(&store.Entry{
		Key:       store.RequestKey(reqFP),
		Target:    resultKey,
		CreatedAt: time.Now().UTC(),
	})
}
