package obs

import "testing"

// TestCanonicalMetricNames pins every exported metric name. Dashboards and
// the report exporters query these strings verbatim, so a rename is a
// breaking change that must be made deliberately — by updating this test
// along with every consumer — never by accident.
func TestCanonicalMetricNames(t *testing.T) {
	want := map[string]string{
		"MetricSolveSeconds":     MetricSolveSeconds,
		"MetricViewGroups":       MetricViewGroups,
		"MetricTraceThreadNodes": MetricTraceThreadNodes,
		"MetricPrescreenSeconds": MetricPrescreenSeconds,
		"MetricSolverRuns":       MetricSolverRuns,
		"MetricCacheHits":        MetricCacheHits,
		"MetricCacheMisses":      MetricCacheMisses,
		"MetricPrescreenSkips":   MetricPrescreenSkips,
		"MetricPrescreenChecks":  MetricPrescreenChecks,
		"MetricCensusReads":      MetricCensusReads,
		"MetricTraceNodes":       MetricTraceNodes,
		"MetricMatches":          MetricMatches,
		"MetricTraceThroughput":  MetricTraceThroughput,
		"MetricPoolSize":         MetricPoolSize,
		"MetricCacheEntries":     MetricCacheEntries,
		"MetricIterations":       MetricIterations,
		"MetricPatterns":         MetricPatterns,
		"MetricSchedWorkers":     MetricSchedWorkers,
		"MetricSchedQueueDepth":  MetricSchedQueueDepth,
		"MetricSchedTasks":       MetricSchedTasks,
		"MetricSchedSteals":      MetricSchedSteals,
		"MetricSchedExpired":     MetricSchedExpired,
		"MetricSchedTaskSeconds": MetricSchedTaskSeconds,
	}
	canonical := map[string]string{
		"MetricSolveSeconds":     "discovery_solve_seconds",
		"MetricViewGroups":       "discovery_view_groups",
		"MetricTraceThreadNodes": "discovery_trace_thread_nodes",
		"MetricPrescreenSeconds": "discovery_prescreen_seconds",
		"MetricSolverRuns":       "discovery_solver_runs_total",
		"MetricCacheHits":        "discovery_cache_hits_total",
		"MetricCacheMisses":      "discovery_cache_misses_total",
		"MetricPrescreenSkips":   "discovery_prescreen_skips_total",
		"MetricPrescreenChecks":  "discovery_prescreen_checks_total",
		"MetricCensusReads":      "discovery_census_reads_total",
		"MetricTraceNodes":       "discovery_trace_nodes_total",
		"MetricMatches":          "discovery_matches_total",
		"MetricTraceThroughput":  "discovery_trace_nodes_per_second",
		"MetricPoolSize":         "discovery_pool_size",
		"MetricCacheEntries":     "discovery_cache_entries",
		"MetricIterations":       "discovery_find_iterations",
		"MetricPatterns":         "discovery_patterns_total",
		"MetricSchedWorkers":     "discovery_sched_workers",
		"MetricSchedQueueDepth":  "discovery_sched_queue_depth",
		"MetricSchedTasks":       "discovery_sched_tasks_total",
		"MetricSchedSteals":      "discovery_sched_steals_total",
		"MetricSchedExpired":     "discovery_sched_expired_total",
		"MetricSchedTaskSeconds": "discovery_sched_task_seconds",
	}
	seen := map[string]string{}
	for sym, got := range want {
		if got != canonical[sym] {
			t.Errorf("%s = %q, want %q", sym, got, canonical[sym])
		}
		if prev, dup := seen[got]; dup {
			t.Errorf("metric name %q shared by %s and %s", got, prev, sym)
		}
		seen[got] = sym
	}
}
