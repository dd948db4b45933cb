package report

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"discovery/internal/analysis"
	"discovery/internal/core"
	"discovery/internal/mir"
	"discovery/internal/patterns"
	"discovery/internal/trace"
)

// tracedSumProgram builds and analyzes a scalar accumulation over six of
// eight initialized elements under opts: the initializing loop's view has
// eight groups, the accumulation's six.
func tracedSumProgram(t *testing.T, opts core.Options) *core.Result {
	t.Helper()
	p := mir.NewProgram("sum")
	p.DeclareStatic("xs", 8)
	p.DeclareStatic("out", 1)
	f, b := p.NewFunc("main", "sum.c")
	b.For("i", mir.C(0), mir.C(8), mir.C(1), func(b *mir.Block) {
		b.Store(mir.Idx(mir.G("xs"), mir.V("i")), mir.I2F(mir.V("i")))
	})
	b.Assign("acc", mir.F(0))
	b.For("i", mir.C(0), mir.C(6), mir.C(1), func(b *mir.Block) {
		b.Assign("acc", mir.FAdd(mir.V("acc"), mir.Load(mir.Idx(mir.G("xs"), mir.V("i")))))
	})
	b.Store(mir.Idx(mir.G("out"), mir.C(0)), mir.V("acc"))
	b.Finish(f)
	res, err := trace.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	return core.Find(res.Graph, opts)
}

// TestSummaryDiagnosticsOnlyWhenDegraded: the acceptance invariant — clean
// runs render exactly the pre-budget summary, limited runs grow a labeled
// diagnostics section (this is what cmd/discovery prints).
func TestSummaryDiagnosticsOnlyWhenDegraded(t *testing.T) {
	clean := tracedSumProgram(t, core.Options{VerifyMatches: true})
	if clean.Degraded() {
		t.Fatal("unbudgeted run is degraded")
	}
	if s := Summary(clean); strings.Contains(s, "resource limits") {
		t.Errorf("clean summary mentions resource limits:\n%s", s)
	}

	limited := tracedSumProgram(t, core.Options{
		VerifyMatches: true, MaxViewGroups: 6,
	})
	if limited.SkippedViews == 0 {
		t.Fatal("view-gated run reported no skipped views")
	}
	s := Summary(limited)
	for _, want := range []string{
		"resource limits hit",
		"skipped for exceeding the view size limit",
		"matcher effort per pattern kind",
		"linear reduction",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("degraded summary missing %q:\n%s", want, s)
		}
	}
}

func TestDiagnosticsInterrupted(t *testing.T) {
	res := &core.Result{Interrupted: true}
	if s := Diagnostics(res); !strings.Contains(s, "interrupted") {
		t.Errorf("interrupted diagnostics = %q", s)
	}
}

func TestJSONExport(t *testing.T) {
	res := tracedSumProgram(t, core.Options{
		VerifyMatches: true, MaxViewGroups: 6, Cache: core.NewViewCache(),
	})
	data, err := JSON(res)
	if err != nil {
		t.Fatal(err)
	}
	var got SummaryJSON
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("export does not round-trip: %v", err)
	}
	if !got.Diagnostics.Degraded || res.SkippedViews == 0 || got.Diagnostics.SkippedViews != res.SkippedViews {
		t.Errorf("diagnostics = %+v, want degraded with %d skipped views",
			got.Diagnostics, res.SkippedViews)
	}
	want := res.SolverStats[patterns.KindLinearReduction]
	ks, ok := got.Diagnostics.Solver["linear_reduction"]
	if !ok || ks.Runs != want.Runs || ks.Solutions != want.Solutions || ks.CacheMisses != want.CacheMisses || ks.CacheMisses == 0 {
		t.Errorf("solver rollup = %+v, want linear_reduction as booked: %+v", got.Diagnostics.Solver, want)
	}
	if got.SimplifiedNodes != res.SimplifiedNodes || got.Patterns == nil {
		t.Errorf("summary fields missing: %+v", got)
	}
}

// TestDiagnosticsRendersFailures: contained failures make a run degraded
// and show up in both the text section and the JSON export.
func TestDiagnosticsRendersFailures(t *testing.T) {
	res := &core.Result{Failures: []*analysis.Error{
		analysis.Errorf(analysis.StageMatch, analysis.Internal, "merge phase failed"),
		analysis.Errorf(analysis.StageTrace, analysis.ResourceExhausted, "trace truncated"),
	}}
	if !res.Degraded() {
		t.Fatal("a result with contained failures is not degraded")
	}
	s := Diagnostics(res)
	for _, want := range []string{"contained failure", "merge phase failed", "trace truncated"} {
		if !strings.Contains(s, want) {
			t.Errorf("diagnostics missing %q:\n%s", want, s)
		}
	}
	data, err := JSON(res)
	if err != nil {
		t.Fatal(err)
	}
	var got SummaryJSON
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Diagnostics.Failures) != 2 {
		t.Fatalf("JSON failures = %+v, want 2 entries", got.Diagnostics.Failures)
	}
	if got.Diagnostics.Failures[0].Stage != "match" || got.Diagnostics.Failures[0].Kind != "internal error" {
		t.Errorf("first failure misclassified: %+v", got.Diagnostics.Failures[0])
	}
	if !got.Diagnostics.Degraded {
		t.Error("JSON export not marked degraded")
	}
}

// TestKindStatsElapsedMS pins the elapsed unit in the export.
func TestKindStatsElapsedMS(t *testing.T) {
	res := &core.Result{
		SolverStats: map[patterns.Kind]patterns.KindStats{
			patterns.KindLinearReduction: {Runs: 1, Elapsed: 1500 * time.Millisecond},
		},
	}
	data, err := JSON(res)
	if err != nil {
		t.Fatal(err)
	}
	var got SummaryJSON
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if ms := got.Diagnostics.Solver["linear_reduction"].ElapsedMS; ms != 1500 {
		t.Errorf("elapsed_ms = %d, want 1500", ms)
	}
}

// TestJSONCacheBlockExplicit: the "cache" block is present exactly when
// the run booked cache activity. A run given no cache omits it, which
// keeps library outputs free of it; a run given a cache carries its real
// counts.
func TestJSONCacheBlockExplicit(t *testing.T) {
	res := tracedSumProgram(t, core.Options{})
	if h, m, _ := res.CacheStats(); h+m != 0 {
		t.Fatalf("run without a cache recorded cache activity: %d/%d", h, m)
	}
	data, err := JSON(res)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"cache"`) {
		t.Errorf("export emits a cache block for a cache-less run:\n%s", data)
	}

	res = tracedSumProgram(t, core.Options{Cache: core.NewViewCache()})
	hits, misses, _ := res.CacheStats()
	if hits+misses == 0 {
		t.Fatal("run with a cache recorded no cache activity")
	}
	data, err = JSON(res)
	if err != nil {
		t.Fatal(err)
	}
	var got SummaryJSON
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	want := CacheJSON{Hits: hits, Misses: misses}
	if got.Diagnostics.Cache == nil || *got.Diagnostics.Cache != want {
		t.Errorf("cache block = %+v, want %+v", got.Diagnostics.Cache, want)
	}
}

// TestJSONPrescreenBlock: the "prescreen" block is opt-in — absent from
// the default export, which keeps old outputs byte-identical, and present
// with the run's census checks and skips under IncludePrescreenStats.
func TestJSONPrescreenBlock(t *testing.T) {
	res := tracedSumProgram(t, core.Options{})
	checks, skips := res.PrescreenStats()
	if checks == 0 {
		t.Fatal("run recorded no prescreen checks")
	}

	data, err := JSON(res)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"prescreen"`) {
		t.Errorf("default export emits a prescreen block:\n%s", data)
	}

	data, err = JSONWith(res, JSONOptions{IncludePrescreenStats: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"prescreen":`, `"checks":`} {
		if !strings.Contains(string(data), field) {
			t.Errorf("JSON export missing %s:\n%s", field, data)
		}
	}
	var got SummaryJSON
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if p := got.Diagnostics.Prescreen; p == nil || *p != (PrescreenJSON{Checks: checks, Skips: skips}) {
		t.Errorf("prescreen block = %+v, want checks=%d skips=%d", p, checks, skips)
	}
}
