// Package server is the pattern-discovery daemon: a long-running HTTP/JSON
// service that accepts analysis requests for registered Starbench
// workloads, runs them through a bounded admission queue onto a fixed pool
// of analysis workers, and shares one warm ViewCache — one match outcome
// per sub-DDG, under its pool key — across every concurrent request. That cache is the daemon's alone: a
// library or CLI Find keeps no view cache unless given one, and a request
// with "no_cache" runs without it. It needs no sizing: it retains at most
// 16 run fingerprints (graph + match options), least recently used
// evicted first. Finished results are memoized in a
// pluggable store (internal/store) keyed by graph + options fingerprints,
// so an exact resubmission is answered from the store — before tracing
// even starts — with zero solver activity.
//
// The serving layer leans on two concurrency guarantees established in the
// analysis core: cached patterns are immutable after store (Pattern.Nodes
// memoizes under sync.Once, computed before publication), and the
// ViewCache binds each run to the generation of its own run fingerprint
// with first-write-wins entries — so concurrent requests over different
// workloads neither see nor evict each other's entries, and requests over
// the same workload converge on identical answers.
//
// Endpoints:
//
//	POST /analyze     — submit a request (Request), receive a Response
//	GET  /healthz     — liveness plus queue/in-flight occupancy
//	GET  /stats       — daemon counters, the shared cache's snapshot
//	                    (core.CacheSnapshot: entries, generations,
//	                    evictions), store size
//	GET  /metrics     — Prometheus text format (daemon-wide registry)
//	GET  /benchmarks  — the analyzable workload registry
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"discovery/internal/core"
	"discovery/internal/obs"
	"discovery/internal/sched"
	"discovery/internal/starbench"
	"discovery/internal/store"
)

// Config sizes the daemon. The zero value is usable: every field has a
// serving-appropriate default applied by New.
type Config struct {
	// MaxInFlight is the analysis worker pool size — the hard bound on
	// concurrently running analyses. Default 2.
	MaxInFlight int
	// QueueDepth is the admission queue's capacity beyond the workers;
	// a submission finding it full is rejected with 503. Default 16.
	QueueDepth int
	// DefaultBudget is the end-to-end budget applied to requests that do
	// not set one. Default 60s.
	DefaultBudget time.Duration
	// MaxBudget caps any requested budget. Default 5m.
	MaxBudget time.Duration
	// SchedWorkers is the goroutine count of the shared solve-scheduler
	// pool (internal/sched) every admitted analysis sweeps its parallel
	// phases on. One pool serves all MaxInFlight workers, so total solve
	// parallelism is bounded process-wide instead of multiplying per
	// request. Default GOMAXPROCS.
	SchedWorkers int
	// Store persists results across requests (nil disables memoization;
	// the ViewCache still warms). The server wraps it in a store.Fallback
	// onto an in-memory store, so a failing backend degrades to
	// memory-only memoization instead of losing results.
	Store store.Store
	// PhaseHook, when non-nil, runs at every analysis phase boundary
	// (trace, then each finder phase via core.Options.PhaseHook). It is
	// the daemon's fault-injection seam — see internal/fault.Plan.
	PhaseHook func(phase string)
	// SpillBudget, when positive, bounds resident DDG arc bytes per
	// request: traced and simplified graphs whose CSR arc arrays exceed
	// it are paged out of core (ddg.SpillArcs) for the request's
	// lifetime. Output-invariant, so it never enters a fingerprint.
	// 0 disables spilling (the -trace-memory-budget flag).
	SpillBudget int64
	// SpillDir is where spill files are created (-ddg-spill-dir); empty
	// means the system temp directory.
	SpillDir string
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.DefaultBudget <= 0 {
		c.DefaultBudget = 60 * time.Second
	}
	if c.MaxBudget <= 0 {
		c.MaxBudget = 5 * time.Minute
	}
	if c.SchedWorkers <= 0 {
		c.SchedWorkers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Server is the daemon: shared cache, result store, metrics registry, and
// the batcher's queue + workers.
type Server struct {
	cfg   Config
	cache *core.ViewCache
	// st is Config.Store behind its memory fallback (nil = no store); its
	// degraded flag feeds /healthz and its degraded-op count /stats.
	st   *store.Fallback
	reg  *obs.Registry
	pool *sched.Pool // shared solve scheduler: one pool across all requests

	queue chan *job
	wg    sync.WaitGroup
	mux   *http.ServeMux

	started   time.Time
	inflight  atomic.Int64
	served    atomic.Int64
	rejected  atomic.Int64
	cancelled atomic.Int64
	brownouts atomic.Int64

	closeOnce sync.Once
}

// New builds a Server from cfg (defaults applied) and starts its worker
// pool. Callers must Close it to drain the workers.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   core.NewViewCache(),
		reg:     obs.NewRegistry(),
		queue:   make(chan *job, cfg.QueueDepth),
		mux:     http.NewServeMux(),
		started: time.Now(),
	}
	// The pool's recorder tees metrics only (no spans) into the daemon
	// registry, so pool gauges and counters surface in /metrics without
	// polluting any request's phase tree.
	s.pool = sched.NewPool(cfg.SchedWorkers, &teeRecorder{spans: obs.Nop, reg: s.reg})
	if cfg.Store != nil {
		s.st = store.NewFallback(cfg.Store, store.NewMemory(), func(string, error) {
			s.reg.Count(obs.MetricServerStoreFallback, 1)
		})
	}
	s.mux.HandleFunc("/analyze", s.handleAnalyze)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/benchmarks", s.handleBenchmarks)
	for i := 0; i < cfg.MaxInFlight; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the daemon-wide registry (exported for tests and for
// embedding the server behind custom exporters).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Close stops admission and waits for in-flight analyses to finish. The
// store, if any, is the caller's to close.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.queue)
		s.wg.Wait()
		// Workers drained, so no run sweeps on the pool anymore.
		s.pool.Close()
	})
}

// errorJSON is the uniform non-200 body.
type errorJSON struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, `{"error":"encoding response"}`, 500)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, 405, errorJSON{Error: "POST only"})
		return
	}
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.reg.Count(obs.L(obs.MetricServerRequests, "status", "invalid"), 1)
		writeJSON(w, 400, errorJSON{Error: fmt.Sprintf("decoding request: %v", err)})
		return
	}
	resp, herr := s.submit(r.Context(), &req)
	if herr != nil {
		if herr.retryAfter > 0 {
			// Shed load politely: a 503 without Retry-After invites an
			// immediate retry storm from well-behaved clients.
			w.Header().Set("Retry-After", strconv.Itoa(herr.retryAfter))
		}
		writeJSON(w, herr.code, errorJSON{Error: herr.msg})
		return
	}
	writeJSON(w, 200, resp)
}

// handleHealthz reports liveness plus the degradation ladder's current
// rung: "ok" (full service), "degraded" (still answering, but the store's
// last primary operation failed and/or brownout is clamping budgets). The
// daemon never reports unhealthy while it can serve — degraded-but-available
// is the whole point of the memory fallback and of brownout.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	occupancy := float64(len(s.queue)) / float64(cap(s.queue))
	brownout := brownoutFactor(occupancy) < 1
	status := "ok"
	sst := s.pool.Stats()
	out := map[string]any{
		"queue":           len(s.queue),
		"in_flight":       s.inflight.Load(),
		"uptime_sec":      int64(time.Since(s.started).Seconds()),
		"brownout_active": brownout,
		"sched_workers":   sst.Workers,
		"sched_queued":    sst.Queued,
	}
	if brownout {
		status = "degraded"
	}
	if s.st != nil {
		degraded := s.st.Degraded()
		out["store_degraded"] = degraded
		if degraded {
			status = "degraded"
		}
	}
	if q, ok := s.cfg.Store.(interface{ Quarantined() int }); ok {
		out["store_quarantined"] = q.Quarantined()
	}
	out["status"] = status
	writeJSON(w, 200, out)
}

// statsJSON is the /stats document: admission counters, the shared solve
// pool's and cache's snapshots, and the store's size.
type statsJSON struct {
	Served    int64              `json:"served"`
	Rejected  int64              `json:"rejected"`
	Cancelled int64              `json:"cancelled"`
	Brownouts int64              `json:"brownouts"`
	InFlight  int64              `json:"in_flight"`
	QueueLen  int                `json:"queue_len"`
	QueueCap  int                `json:"queue_cap"`
	Workers   int                `json:"workers"`
	Sched     sched.Stats        `json:"sched"`
	Cache     core.CacheSnapshot `json:"cache"`
	StoreLen  int                `json:"store_len"`
	StoreKind string             `json:"store_kind"`
	// Degradation accounting (zero without a store).
	StoreDegradedOps int64 `json:"store_degraded_ops"`
	StoreQuarantined int   `json:"store_quarantined"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	out := statsJSON{
		Served:    s.served.Load(),
		Rejected:  s.rejected.Load(),
		Cancelled: s.cancelled.Load(),
		Brownouts: s.brownouts.Load(),
		InFlight:  s.inflight.Load(),
		QueueLen:  len(s.queue),
		QueueCap:  cap(s.queue),
		Workers:   s.cfg.MaxInFlight,
		Sched:     s.pool.Stats(),
		Cache:     s.cache.Snapshot(),
		StoreKind: "disabled",
	}
	if s.st != nil {
		out.StoreKind = fmt.Sprintf("%T", s.cfg.Store)
		if n, err := s.st.Len(); err == nil {
			out.StoreLen = n
		}
		out.StoreDegradedOps = s.st.DegradedOps()
	}
	if q, ok := s.cfg.Store.(interface{ Quarantined() int }); ok {
		out.StoreQuarantined = q.Quarantined()
	}
	writeJSON(w, 200, out)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprint(w, obs.Prometheus(s.reg))
}

// benchJSON is one /benchmarks row.
type benchJSON struct {
	Name     string   `json:"name"`
	Analysis string   `json:"analysis"`
	Versions []string `json:"versions"`
	Extended bool     `json:"extended,omitempty"`
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	versions := []string{string(starbench.Seq), string(starbench.Pthreads)}
	var out []benchJSON
	for _, b := range starbench.All() {
		out = append(out, benchJSON{Name: b.Name, Analysis: b.AnalysisDesc, Versions: versions})
	}
	for _, b := range starbench.Extended() {
		out = append(out, benchJSON{Name: b.Name, Analysis: b.AnalysisDesc, Versions: versions, Extended: true})
	}
	writeJSON(w, 200, out)
}
