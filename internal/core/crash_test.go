package core_test

// End-to-end panic containment: a bug injected mid-phase inside Find must
// cost only that phase — the caller still gets the partial result, the run
// is flagged degraded, and the report surfaces the contained failure. This
// is the PR's acceptance scenario; it lives in an external test package so
// it can close the loop through report without an import cycle.

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"discovery/internal/analysis"
	"discovery/internal/core"
	"discovery/internal/report"
	"discovery/internal/starbench"
	"discovery/internal/trace"
)

func tracedBenchmark(t *testing.T) *trace.Result {
	t.Helper()
	b := starbench.ByName("rgbyuv")
	built := b.Build(starbench.Seq, b.Analysis)
	tr, err := trace.Run(built.Prog)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestFindContainsMidPhasePanic(t *testing.T) {
	tr := tracedBenchmark(t)
	res := core.Find(tr.Graph, core.Options{PhaseHook: func(phase string) {
		if phase == "merge" {
			panic("injected merge bug")
		}
	}})

	if !res.Degraded() {
		t.Fatal("run with a contained panic not flagged degraded")
	}
	var failure *analysis.Error
	for _, f := range res.Failures {
		if strings.Contains(f.Error(), "merge phase failed") {
			failure = f
		}
	}
	if failure == nil {
		t.Fatalf("merge failure not recorded; failures: %v", res.Failures)
	}
	if failure.Stage != analysis.StageMatch || !errors.Is(failure, analysis.ErrInternal) {
		t.Errorf("failure misclassified: %v", failure)
	}
	if !strings.Contains(failure.Error(), "injected merge bug") {
		t.Errorf("failure lost the panic message: %v", failure)
	}
	// Partial results survive: matching ran, only the merge was lost.
	if len(res.Matches) == 0 {
		t.Error("matches lost along with the merge phase")
	}
	if len(res.Patterns) != 0 {
		t.Errorf("merge never ran, yet %d merged patterns appeared", len(res.Patterns))
	}

	// The failure reaches users through both report surfaces.
	sum := report.Summary(res)
	if !strings.Contains(sum, "contained failure") || !strings.Contains(sum, "merge phase failed") {
		t.Errorf("summary hides the contained failure:\n%s", sum)
	}
	data, err := report.JSON(res)
	if err != nil {
		t.Fatal(err)
	}
	var got report.SummaryJSON
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Diagnostics.Degraded || len(got.Diagnostics.Failures) == 0 {
		t.Errorf("JSON export hides the contained failure: %+v", got.Diagnostics)
	}
}

func TestFindContainsMatchPhasePanic(t *testing.T) {
	tr := tracedBenchmark(t)
	res := core.Find(tr.Graph, core.Options{PhaseHook: func(phase string) {
		if phase == "match" {
			panic("injected match bug")
		}
	}})
	if !res.Degraded() {
		t.Fatal("not degraded")
	}
	found := false
	for _, f := range res.Failures {
		if strings.Contains(f.Error(), "match phase failed") {
			found = true
		}
	}
	if !found {
		t.Fatalf("match failure not recorded: %v", res.Failures)
	}
	// Earlier phases' work is retained even with matching gone.
	if res.Graph == nil || res.SimplifiedNodes == 0 {
		t.Error("simplification results lost along with the match phase")
	}
}

func TestFindCleanRunHasNoFailures(t *testing.T) {
	tr := tracedBenchmark(t)
	res := core.Find(tr.Graph, core.Options{})
	if len(res.Failures) != 0 || res.Degraded() {
		t.Fatalf("clean run reports failures: %v", res.Failures)
	}
	if len(res.Patterns) == 0 {
		t.Fatal("clean run found nothing")
	}
}

func TestFindNilGraphIsInvalidInput(t *testing.T) {
	res := core.Find(nil, core.Options{})
	if !res.Degraded() || len(res.Failures) == 0 {
		t.Fatal("nil graph accepted silently")
	}
	if !errors.Is(res.Failures[0], analysis.ErrInvalidInput) {
		t.Fatalf("nil graph misclassified: %v", res.Failures[0])
	}
}

// TestOptionsPhaseHookPanicContained covers the per-run fault-injection
// hook (Options.PhaseHook): a panic it raises is contained like any phase
// bug, and — unlike the package-global test hook — two concurrent runs
// carry independent hooks without interfering.
func TestOptionsPhaseHookPanicContained(t *testing.T) {
	tr := tracedBenchmark(t)
	res := core.Find(tr.Graph, core.Options{
		PhaseHook: func(phase string) {
			if phase == "subtract" {
				panic("injected subtract fault")
			}
		},
	})
	if !res.Degraded() {
		t.Fatal("run with a hook panic not flagged degraded")
	}
	found := false
	for _, f := range res.Failures {
		if strings.Contains(f.Error(), "subtract phase failed") &&
			strings.Contains(f.Error(), "injected subtract fault") {
			found = true
		}
	}
	if !found {
		t.Fatalf("subtract failure not recorded: %v", res.Failures)
	}

	// A hook-free run in the same process stays clean: the hook is run
	// state, not package state.
	clean := core.Find(tr.Graph, core.Options{})
	if clean.Degraded() || len(clean.Failures) != 0 {
		t.Fatalf("hook leaked into an unrelated run: %v", clean.Failures)
	}
}
