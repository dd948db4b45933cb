package obs

// Canonical metric names emitted by the pipeline. Centralized so the
// emitting layers (tracer, finder, budget, cache) and the consumers
// (report exporters, tests, dashboards) agree on one namespace. Labeled
// variants are built with L, e.g. L(MetricSolverRuns, "kind", kind).
const (
	// Histograms.
	MetricSolveSeconds     = "discovery_solve_seconds"      // per reduction matcher run latency
	MetricViewGroups       = "discovery_view_groups"        // group count per built view
	MetricTraceThreadNodes = "discovery_trace_thread_nodes" // traced nodes per VM thread
	MetricPrescreenSeconds = "discovery_prescreen_seconds"  // per-sub-DDG census latency

	// Counters (labeled with kind where noted).
	MetricSolverRuns      = "discovery_solver_runs_total"     // kind; reduction matcher runs past the census gate
	MetricCacheHits       = "discovery_cache_hits_total"      // kind
	MetricCacheMisses     = "discovery_cache_misses_total"    // kind
	MetricPrescreenSkips  = "discovery_prescreen_skips_total" // kind; solves answered by the census
	MetricPrescreenChecks = "discovery_prescreen_checks_total"
	MetricTraceNodes      = "discovery_trace_nodes_total"
	MetricMatches         = "discovery_matches_total"

	// Gauges.
	MetricTraceThroughput = "discovery_trace_nodes_per_second"
	MetricPoolSize        = "discovery_pool_size"
	MetricCacheEntries    = "discovery_cache_entries"
	MetricIterations      = "discovery_find_iterations"
	MetricPatterns        = "discovery_patterns_total"

	// Out-of-core paged DDGs (ddg.SpillArcs). Counters unless noted.
	MetricDDGSpills                 = "discovery_ddg_spills_total"
	MetricDDGPageFaults             = "discovery_ddg_pages_faults_total"
	MetricDDGPageEvictions          = "discovery_ddg_pages_evictions_total"
	MetricDDGPagesSpilledBytes      = "discovery_ddg_pages_spilled_bytes"       // gauge
	MetricDDGPagesResidentBytes     = "discovery_ddg_pages_resident_bytes"      // gauge
	MetricDDGPagesPeakResidentBytes = "discovery_ddg_pages_peak_resident_bytes" // gauge

	// Analysis-server (cmd/server) metrics. Counters unless noted; the
	// requests counter is labeled with the terminal status of the request
	// (ok, rejected, invalid, error, cancelled).
	MetricServerRequests       = "discovery_server_requests_total" // status
	MetricServerStoreHits      = "discovery_server_store_hits_total"
	MetricServerStoreMisses    = "discovery_server_store_misses_total"
	MetricServerRequestSeconds = "discovery_server_request_seconds" // histogram
	MetricServerQueueSeconds   = "discovery_server_queue_seconds"   // histogram
	MetricServerQueueDepth     = "discovery_server_queue_depth"     // gauge
	MetricServerInFlight       = "discovery_server_in_flight"       // gauge

	// Fault-tolerant serving (store fallback + admission brownout).
	// Counters unless noted.
	MetricServerCancelled     = "discovery_server_requests_cancelled_total" // client gone while queued
	MetricServerStoreFallback = "discovery_server_store_fallback_total"     // ops absorbed by the memory spill
	MetricServerBrownout      = "discovery_server_brownout_clamped_total"
	MetricServerPanics        = "discovery_server_panics_total" // worker-boundary recoveries

	// Shared solve scheduler (internal/sched). One pool serves every
	// concurrent run, so these are process-level series, not per-request.
	MetricSchedWorkers     = "discovery_sched_workers"       // gauge: pool goroutines
	MetricSchedQueueDepth  = "discovery_sched_queue_depth"   // gauge: queued sweep offers
	MetricSchedTasks       = "discovery_sched_tasks_total"   // counter: claimers run
	MetricSchedSteals      = "discovery_sched_steals_total"  // counter: offers run by workers
	MetricSchedExpired     = "discovery_sched_expired_total" // counter: offers dropped at take
	MetricSchedTaskSeconds = "discovery_sched_task_seconds"  // histogram: claimer latency
)
