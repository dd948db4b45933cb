package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"discovery/internal/analysis"
	"discovery/internal/sched"
)

// TestTaskPanicContained: a panic inside one sweep item is the run's
// item recover boundary's to catch — recorded once on Result.Failures as
// "<phase> task failed" with the panic message, while every other item of
// the phase still runs, on the claimer that met the panic too — and a
// later sweep does not record it again. On a pool with no workers the
// phase's only claimer met the panic; on one with three, any of four.
func TestTaskPanicContained(t *testing.T) {
	for _, workers := range []int{0, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			pool := sched.NewPool(workers, nil)
			defer pool.Close()
			res := &Result{}
			sc := newRunSched(context.Background(), Options{Scheduler: pool}, res)

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
			if n := ran.Load(); n != 63 {
				t.Errorf("%d items ran, want 63 (all but the panicking one)", n)
			}

			sweep(sc, "fuse", 8, func(int) {})
			if len(res.Failures) != 1 {
				t.Errorf("a clean sweep changed the failures: %v", res.Failures)
			}
		})
	}
}
