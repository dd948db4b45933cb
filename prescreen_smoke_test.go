package discovery

// Prescreen observability smoke test, run by `make benchsmoke` alongside
// the obs overhead gate: a real find over a Starbench workload must export
// the prescreen skip-rate counter under its canonical metric name, with
// the per-kind label. Catches the two silent breakages — the scheduler no
// longer feeding the counter, or the metric name drifting from
// internal/obs/names.go while dashboards still query the old one.

import (
	"strings"
	"testing"

	"discovery/internal/core"
	"discovery/internal/obs"
	"discovery/internal/report"
	"discovery/internal/starbench"
	"discovery/internal/trace"
)

func TestPrescreenSkipRateExported(t *testing.T) {
	bench := starbench.ByName("streamcluster")
	built := bench.Build(starbench.Pthreads, bench.Analysis)
	tr, err := trace.Run(built.Prog)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	res := core.Find(tr.Graph, core.Options{VerifyMatches: true, Obs: col})
	checks, skips := res.PrescreenStats()
	if checks == 0 || skips == 0 {
		t.Fatalf("default find ran %d prescreen check(s) with %d skip(s); want both positive", checks, skips)
	}

	text := report.PrometheusMetrics(col)
	for _, name := range []string{obs.MetricPrescreenSkips, obs.MetricPrescreenChecks, obs.MetricPrescreenSeconds} {
		if !strings.Contains(text, name) {
			t.Errorf("metric %q missing from the Prometheus export", name)
		}
	}
	// The skip counter must carry the kind label like the other solver
	// counters do.
	if !strings.Contains(text, obs.MetricPrescreenSkips+"{kind=") {
		t.Errorf("%s exported without its kind label:\n%s", obs.MetricPrescreenSkips, text)
	}
}
