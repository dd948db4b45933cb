package core_test

// Out-of-core paging on the production path: Find spills the simplified
// graph under Options.SpillBudget and publishes the pager's activity
// through its own metric rollup (emitFindMetrics). The test holds that
// rollup to the pager's numbers and the budget's headroom, so a spill
// that stops happening, stops faulting, outgrows the budget, or stops
// being exported fails here rather than going unnoticed.

import (
	"strings"
	"testing"

	"discovery/internal/core"
	"discovery/internal/ddg"
	"discovery/internal/obs"
	"discovery/internal/report"
	"discovery/internal/starbench"
	"discovery/internal/trace"
)

func TestFindSpillExportsPagingMetrics(t *testing.T) {
	const budget = 4 << 10
	b := starbench.ByName("md5")
	built := b.Build(starbench.Seq, b.Analysis)
	tr, err := trace.Run(built.Prog)
	if err != nil {
		t.Fatal(err)
	}
	c := obs.NewCollector()
	res := core.Find(tr.Graph, core.Options{SpillBudget: budget, SpillDir: t.TempDir(), Obs: c})
	defer res.Graph.CloseSpill()
	if len(res.Failures) > 0 {
		t.Fatalf("spilled run degraded: %v", res.Failures[0])
	}

	g := res.Graph
	if !g.Spilled() {
		t.Fatalf("simplified graph (%d arcs) did not spill under a %d-byte budget", g.NumArcs(), budget)
	}
	st := g.PageStats()
	if arcBytes := int64(g.NumArcs()) * 2 * 4; st.SpilledBytes != arcBytes {
		t.Errorf("spilled %d bytes, want the %d bytes of both arc arrays", st.SpilledBytes, arcBytes)
	}
	if st.Faults == 0 {
		t.Error("spilled graph was matched without a single page fault")
	}
	if headroom := int64(budget + 2*ddg.DefaultSegmentBytes); st.PeakResidentBytes > headroom {
		t.Errorf("peak resident %d bytes exceeds the budget headroom %d", st.PeakResidentBytes, headroom)
	}

	text := report.PrometheusMetrics(c)
	for _, name := range []string{
		obs.MetricDDGSpills,
		obs.MetricDDGPageFaults,
		obs.MetricDDGPageEvictions,
		obs.MetricDDGPagesSpilledBytes,
		obs.MetricDDGPagesResidentBytes,
		obs.MetricDDGPagesPeakResidentBytes,
	} {
		if !strings.Contains(text, name) {
			t.Errorf("metric %s missing from the Prometheus export", name)
		}
	}
}
