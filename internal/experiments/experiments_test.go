package experiments

import (
	"strings"
	"testing"

	"discovery/internal/core"
)

func fastOpts() core.Options {
	return core.Options{VerifyMatches: false}
}

func TestTable1(t *testing.T) {
	text, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Table 1: a linear reduction and a tiled reduction in
	// it.1, the map by subtraction in it.2, the tiled map-reduction by
	// fusion in it.3, and only the map-reduction after merging.
	for _, want := range []string{
		"it. 1:", "linear reduction", "tiled reduction",
		"it. 2:", "map",
		"it. 3:", "tiled map-reduction",
		"merge:", "report tiled map-reduction",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Table 1 trace missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(strings.Split(text, "merge:")[1], "linear reduction") {
		t.Error("merged report should not include subsumed patterns")
	}
}

func TestTable2(t *testing.T) {
	text := Table2()
	for _, want := range []string{
		"c-ray", "md5", "rgbyuv", "rotate", "rot-cc", "ray-rot",
		"kmeans", "streamcluster",
		"7 objects, 8x4 pixels", "200000 pt., 128 dim., 20 clusters",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
}

func TestTable3Headline(t *testing.T) {
	res, err := RunTable3(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Found != 36 || res.Expected != 36 || res.Missed != 6 {
		t.Errorf("found/expected/missed = %d/%d/%d, want 36/36/6",
			res.Found, res.Expected, res.Missed)
	}
	if res.IterationProfile[1] != 27 || res.IterationProfile[2] != 7 || res.IterationProfile[3] != 2 {
		t.Errorf("iteration profile = %v, want 27/7/2", res.IterationProfile)
	}
	text := res.Text()
	if !strings.Contains(text, "found 36 of 42 expected patterns (86%)") {
		t.Errorf("headline missing:\n%s", text)
	}
}

func TestFigure7SmallLadder(t *testing.T) {
	res, err := RunFigure7(fastOpts(), []int64{1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8*2*2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if len(res.Fits) != 8*2 || res.Reps != 2 {
		t.Fatalf("fits = %d, reps = %d", len(res.Fits), res.Reps)
	}
	for i, fit := range res.Fits {
		if r := res.Rows[2*i]; fit.Bench != r.Bench || fit.Version != r.Version || fit.StepFrom != 1 || fit.StepTo != 2 {
			t.Errorf("fit %d is %s/%s x%d→x%d, its rows are %s/%s", i, fit.Bench, fit.Version, fit.StepFrom, fit.StepTo, r.Bench, r.Version)
		}
	}
	// Larger inputs give larger DDGs.
	for i := 0; i+1 < len(res.Rows); i += 2 {
		if res.Rows[i+1].DDGNodes <= res.Rows[i].DDGNodes {
			t.Errorf("%s/%s: scaling did not grow the DDG (%d -> %d)",
				res.Rows[i].Bench, res.Rows[i].Version,
				res.Rows[i].DDGNodes, res.Rows[i+1].DDGNodes)
		}
	}
	if res.Slope <= 0 {
		t.Errorf("slope = %g", res.Slope)
	}
	for _, want := range []string{"fitted log-log slope", "last step", "census reads"} {
		if !strings.Contains(res.Text(), want) {
			t.Errorf("text missing %q", want)
		}
	}
}

func TestPhases(t *testing.T) {
	res, err := RunPhases(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	total := res.TracingFraction + res.MatchingFraction + res.OtherFraction
	if total < 0.99 || total > 1.01 {
		t.Errorf("fractions sum to %g", total)
	}
	if res.DDGGrowth < 1.0 {
		t.Errorf("Pthreads DDGs should not shrink: growth %g", res.DDGGrowth)
	}
	// The fractions are computed from the per-benchmark span rows: every
	// benchmark in both versions, each with a traced and a matched phase.
	if len(res.Rows) != 16 {
		t.Fatalf("rows = %d, want 16", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Trace <= 0 || row.Phases["match"] <= 0 || row.Total <= row.Trace {
			t.Errorf("%s/%s: span times not recorded: trace %v, match %v, total %v",
				row.Bench, row.Version, row.Trace, row.Phases["match"], row.Total)
		}
	}
	text := res.Text()
	for _, want := range []string{"tracing:", "matching:", "Per-benchmark phase times", "streamcluster"} {
		if !strings.Contains(text, want) {
			t.Errorf("text missing %q:\n%s", want, text)
		}
	}
}

func TestSimplify(t *testing.T) {
	res, err := RunSimplify(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerBench) != 16 {
		t.Errorf("entries = %d, want 16", len(res.PerBench))
	}
	if res.Average < 1.2 {
		t.Errorf("average factor = %.2f, expected meaningful reduction", res.Average)
	}
	if !strings.Contains(res.Text(), "average:") {
		t.Error("text incomplete")
	}
}

func TestFigure8Text(t *testing.T) {
	text := Figure8Text()
	for _, want := range []string{"CPU-centric", "GPU-centric", "Rodinia", "modernized"} {
		if !strings.Contains(text, want) {
			t.Errorf("Figure 8 text missing %q", want)
		}
	}
}

func TestAblations(t *testing.T) {
	rows, err := RunAblations()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	full := rows[0]
	if full.Found != full.Findable {
		t.Errorf("full pipeline found %d/%d", full.Found, full.Findable)
	}
	noIter := rows[1]
	if noIter.Found >= full.Found {
		t.Error("disabling iteration should lose the it.2/it.3 patterns")
	}
	noDecomp := rows[3]
	if noDecomp.Skipped == 0 {
		t.Error("disabling decomposition should blow the view budget")
	}
	if !strings.Contains(AblationsText(rows), "full pipeline") {
		t.Error("text incomplete")
	}
}
