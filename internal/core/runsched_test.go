package core

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"discovery/internal/analysis"
)

// TestTaskPanicContained: a panic inside one scheduler task is the run's
// task recover boundary's to catch — recorded once on Result.Failures as
// "<phase> task failed" with the panic message, while the phase's other
// tasks still run — and a later barrier does not record it again.
func TestTaskPanicContained(t *testing.T) {
	res := &Result{}
	sc := newRunSched(context.Background(), Options{}, res)
	defer sc.close()

	var ran atomic.Int64
	sweep(sc, "subtract", 64, func(i int) {
		if i == 0 {
			panic("injected sweep bug")
		}
		ran.Add(1)
	})
	if len(res.Failures) != 1 {
		t.Fatalf("want 1 contained failure, got %v", res.Failures)
	}
	f := res.Failures[0]
	if msg := f.Error(); !strings.Contains(msg, "subtract task failed") || !strings.Contains(msg, "injected sweep bug") {
		t.Errorf("failure message %q lacks the phase or the panic", msg)
	}
	if f.Stage != analysis.StageMatch || !errors.Is(f, analysis.ErrInternal) {
		t.Errorf("failure misclassified: %v", f)
	}
	// Only the panicking chunk — index 0 onward, sized as sweep sizes it —
	// is lost; every other chunk ran to the end.
	chunks := min(sc.executors()*4, 64)
	if n, want := ran.Load(), int64(64-(64+chunks-1)/chunks); n != want {
		t.Errorf("%d indices ran, want %d (all but the panicking chunk)", n, want)
	}

	sweep(sc, "fuse", 8, func(int) {})
	if len(res.Failures) != 1 {
		t.Errorf("a clean barrier changed the failures: %v", res.Failures)
	}
}
