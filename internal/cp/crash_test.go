package cp

// Containment tests: a buggy propagator costs one solver run and is
// reported through Stats.Err, never a process crash.

import (
	"errors"
	"testing"

	"discovery/internal/analysis"
)

type boomPropagator struct{ v *IntVar }

func (p *boomPropagator) Vars() []*IntVar         { return []*IntVar{p.v} }
func (p *boomPropagator) Propagate(s *Space) bool { panic("boom: injected propagator bug") }

func TestSolverContainsPropagatorPanic(t *testing.T) {
	m := NewModel()
	v := m.NewIntVar("v", 0, 3)
	m.Add(&boomPropagator{v: v})
	sv := &Solver{Model: m}
	if sol := sv.Solve(); sol != nil {
		t.Fatalf("panicking model produced a solution: %v", sol)
	}
	st := sv.Stats()
	if st.Err == nil {
		t.Fatal("recovered panic not reported through Stats.Err")
	}
	var ae *analysis.Error
	if !errors.As(st.Err, &ae) {
		t.Fatalf("Stats.Err is %T, want *analysis.Error", st.Err)
	}
	if ae.Stage != analysis.StageMatch || !errors.Is(ae, analysis.ErrInternal) {
		t.Fatalf("panic misclassified: %v", ae)
	}
	if len(ae.Stack) == 0 {
		t.Error("recovered panic lost its stack trace")
	}
	if st.Elapsed <= 0 {
		t.Error("Stats.Elapsed not recorded on the failure path")
	}
}

func TestStatsAddKeepsFirstErr(t *testing.T) {
	first := analysis.Errorf(analysis.StageMatch, analysis.Internal, "first")
	second := analysis.Errorf(analysis.StageMatch, analysis.Internal, "second")
	var total Stats
	total.Add(Stats{Err: first})
	total.Add(Stats{Err: second})
	if total.Err != first {
		t.Fatalf("rollup Err = %v, want the first failure", total.Err)
	}
}
