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

// tracedSumProgram builds and analyzes a scalar accumulation whose
// reduction cross-check needs the constraint solver, under opts.
func tracedSumProgram(t *testing.T, opts core.Options) *core.Result {
	t.Helper()
	p := mir.NewProgram("sum")
	p.DeclareStatic("xs", 6)
	p.DeclareStatic("out", 1)
	f, b := p.NewFunc("main", "sum.c")
	b.For("i", mir.C(0), mir.C(6), mir.C(1), func(b *mir.Block) {
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
		VerifyMatches: true, SolverStepLimit: 1,
	})
	if limited.TimedOutViews == 0 {
		t.Fatal("step-limited run reported no timed-out views")
	}
	s := Summary(limited)
	for _, want := range []string{
		"resource limits hit",
		"undecided within the solver budget",
		"solver effort per pattern kind",
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
		VerifyMatches: true, SolverStepLimit: 1,
	})
	data, err := JSON(res)
	if err != nil {
		t.Fatal(err)
	}
	var got SummaryJSON
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("export does not round-trip: %v", err)
	}
	if !got.Diagnostics.Degraded || got.Diagnostics.TimedOutViews != res.TimedOutViews {
		t.Errorf("diagnostics = %+v, want degraded with %d timed-out views",
			got.Diagnostics, res.TimedOutViews)
	}
	ks, ok := got.Diagnostics.Solver["linear_reduction"]
	if !ok || ks.Runs == 0 || ks.Timeouts == 0 {
		t.Errorf("solver rollup = %+v, want limited linear_reduction runs", got.Diagnostics.Solver)
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
		TimedOutViews: 1,
		SolverStats: map[patterns.Kind]patterns.KindStats{
			patterns.KindLinearReduction: {Runs: 1, Timeouts: 1, Elapsed: 1500 * time.Millisecond},
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

// TestJSONCacheBlockExplicit: a consumer passing IncludeCacheStats gets
// the "cache" block even when the run recorded no cache activity (cache
// disabled), as explicit zeros — absent only in the default export, where
// omitting it keeps old outputs byte-identical.
func TestJSONCacheBlockExplicit(t *testing.T) {
	res := tracedSumProgram(t, core.Options{DisableCache: true})
	if h, m, s := res.CacheStats(); h+m+s != 0 {
		t.Fatalf("cache-disabled run recorded cache activity: %d/%d/%d", h, m, s)
	}

	data, err := JSON(res)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"cache"`) {
		t.Errorf("default export emits a cache block for a cache-less run:\n%s", data)
	}

	data, err = JSONWith(res, JSONOptions{IncludeCacheStats: true})
	if err != nil {
		t.Fatal(err)
	}
	var got SummaryJSON
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Diagnostics.Cache == nil {
		t.Fatal("IncludeCacheStats did not emit the cache block")
	}
	if *got.Diagnostics.Cache != (CacheJSON{}) {
		t.Errorf("cache block = %+v, want explicit zeros", *got.Diagnostics.Cache)
	}

	// With the cache on, both exports agree and carry the real counts.
	res = tracedSumProgram(t, core.Options{})
	hits, misses, skips := res.CacheStats()
	if hits+misses+skips == 0 {
		t.Fatal("cache-enabled run recorded no cache activity")
	}
	data, err = JSONWith(res, JSONOptions{IncludeCacheStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	want := CacheJSON{Hits: hits, Misses: misses, Skips: skips}
	if got.Diagnostics.Cache == nil || *got.Diagnostics.Cache != want {
		t.Errorf("cache block = %+v, want %+v", got.Diagnostics.Cache, want)
	}
}
