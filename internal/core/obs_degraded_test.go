package core_test

// Degraded-run observability: a panic injected mid-phase (through
// Options.PhaseHook, as in the crash tests) must still yield a closed, exportable span
// tree — the failing phase's span present and marked failed, every span
// ended — and the metrics recorded before the failure must survive. The
// span tree is the artifact an operator reads to diagnose exactly such a
// run, so it being complete under failure is the point of the exercise.

import (
	"strings"
	"testing"

	"discovery/internal/core"
	"discovery/internal/obs"
	"discovery/internal/starbench"
	"discovery/internal/trace"
)

// findWithPanicAt runs an observed Find over a traced benchmark with a
// panic injected at the named phase, returning the collector.
func findWithPanicAt(t *testing.T, phase string) (*obs.Collector, *core.Result) {
	t.Helper()
	b := starbench.ByName("rgbyuv")
	built := b.Build(starbench.Pthreads, b.Analysis)
	tr, err := trace.Run(built.Prog)
	if err != nil {
		t.Fatal(err)
	}
	c := obs.NewCollector()
	res := core.Find(tr.Graph, core.Options{Obs: c, PhaseHook: func(p string) {
		if p == phase {
			panic("injected: " + phase)
		}
	}})
	return c, res
}

func TestObsSpanTreeClosedUnderPhasePanic(t *testing.T) {
	for _, phase := range []string{"simplify", "decompose", "match", "subtract", "merge"} {
		phase := phase
		t.Run(phase, func(t *testing.T) {
			c, res := findWithPanicAt(t, phase)
			if !res.Degraded() {
				t.Fatal("injected panic did not degrade the run")
			}

			// Every span ended, including the root: the recover boundary
			// runs after the span-end defers, so no span leaks open.
			spans := c.Spans()
			if len(spans) == 0 {
				t.Fatal("no spans recorded")
			}
			var failedSpan bool
			for _, s := range spans {
				if !s.Ended {
					t.Errorf("span %s (%d) left open after contained panic", s.Name, s.ID)
				}
				if s.Failed {
					failedSpan = true
					if a, _ := s.Attr(obs.AttrFailed); !strings.Contains(a, "panic contained") &&
						!strings.Contains(a, "injected") {
						t.Errorf("failed span %s carries %q, want the containment marker", s.Name, a)
					}
				}
			}
			if !failedSpan {
				t.Error("no span marked failed")
			}

			// The tree exports through every format without issue.
			tree := obs.RenderTree(c, obs.RenderOptions{MaxChildren: -1})
			if !strings.Contains(tree, "find") || !strings.Contains(tree, " !") {
				t.Errorf("phase tree missing root or failure marker:\n%s", tree)
			}
			if _, err := obs.JSON(c); err != nil {
				t.Errorf("JSON export failed: %v", err)
			}
			_ = obs.Prometheus(c.Metrics())

			// Metrics recorded before (and despite) the failure survive:
			// the end-of-run gauges are emitted by a defer that outlives
			// the contained panic.
			gauges := c.Metrics().Gauges()
			if _, ok := gauges[obs.MetricIterations]; !ok {
				t.Errorf("end-of-run gauges missing after %s panic: %v", phase, gauges)
			}
		})
	}
}

func TestObsMetricsSurviveMatchPanic(t *testing.T) {
	// Panic at subtract: the match phase before it completed, so its
	// solver metrics must be present even though the run degraded later.
	c, res := findWithPanicAt(t, "subtract")
	if len(res.Matches) == 0 {
		t.Fatal("match phase found nothing; can't assert its metrics survived")
	}
	counters := c.Metrics().Counters()
	if counters[obs.MetricMatches] == 0 {
		t.Errorf("matches counter empty after post-match panic: %v", counters)
	}
	var solverRuns int64
	for name, v := range counters {
		if strings.HasPrefix(name, obs.MetricSolverRuns) {
			solverRuns += v
		}
	}
	if solverRuns == 0 {
		t.Error("no solver runs counted despite completed match phase")
	}
	if len(c.Metrics().Histograms()[obs.MetricSolveSeconds].Counts) == 0 {
		t.Error("solve-latency histogram absent despite completed match phase")
	}
}
