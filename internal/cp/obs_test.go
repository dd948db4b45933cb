package cp

// Solve-span tests: every Solve/SolveAll under an enabled recorder emits
// exactly one "solve" span whose verdict attr matches the outcome; a
// contained propagator panic still closes the span, marked failed with
// the error text. Without a recorder the solver touches no obs code.

import (
	"strings"
	"testing"

	"discovery/internal/obs"
)

func spanByName(t *testing.T, c *obs.Collector, name string) obs.Span {
	t.Helper()
	var found []obs.Span
	for _, s := range c.Spans() {
		if s.Name == name {
			found = append(found, s)
		}
	}
	if len(found) != 1 {
		t.Fatalf("%d %q spans, want exactly 1", len(found), name)
	}
	return found[0]
}

func TestSolveSpanVerdicts(t *testing.T) {
	cases := []struct {
		name    string
		build   func(m *Model) *Solver
		verdict string
	}{
		{"sat", func(m *Model) *Solver {
			x := m.NewIntVar("x", 0, 3)
			m.EqC(x, 2)
			return &Solver{Model: m}
		}, "sat"},
		{"unsat", func(m *Model) *Solver {
			x := m.NewIntVar("x", 0, 3)
			m.EqC(x, 2)
			m.EqC(x, 3)
			return &Solver{Model: m}
		}, "unsat"},
		{"undecided", func(m *Model) *Solver {
			x := m.NewIntVar("x", 0, 3)
			y := m.NewIntVar("y", 0, 3)
			m.AllDifferent([]*IntVar{x, y})
			return &Solver{Model: m, Timeout: -1} // budget pre-exhausted
		}, "undecided"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c := obs.NewCollector()
			parent := c.StartSpan("parent", 0)
			sv := tc.build(NewModel())
			sv.Obs, sv.SpanParent = c, parent
			sv.Solve()
			c.EndSpan(parent)

			span := spanByName(t, c, "solve")
			if span.Parent != parent {
				t.Errorf("solve span parent = %d, want %d", span.Parent, parent)
			}
			if !span.Ended {
				t.Error("solve span left open")
			}
			if v, _ := span.Attr("verdict"); v != tc.verdict {
				t.Errorf("verdict = %q, want %q", v, tc.verdict)
			}
		})
	}
}

func TestSolveSpanClosesOnPropagatorPanic(t *testing.T) {
	m := NewModel()
	v := m.NewIntVar("v", 0, 3)
	m.Add(&boomPropagator{v: v})
	c := obs.NewCollector()
	sv := &Solver{Model: m, Obs: c}
	if sol := sv.Solve(); sol != nil {
		t.Fatalf("panicking model produced a solution: %v", sol)
	}
	span := spanByName(t, c, "solve")
	if !span.Ended || !span.Failed {
		t.Fatalf("span ended=%v failed=%v, want a closed failed span", span.Ended, span.Failed)
	}
	if msg, _ := span.Attr(obs.AttrFailed); !strings.Contains(msg, "boom") {
		t.Errorf("failure attr %q does not carry the panic message", msg)
	}
}

func TestSolveAllEmitsOneSpan(t *testing.T) {
	m := NewModel()
	x := m.NewIntVar("x", 0, 3)
	y := m.NewIntVar("y", 0, 3)
	m.AllDifferent([]*IntVar{x, y})
	c := obs.NewCollector()
	sv := &Solver{Model: m, Obs: c}
	n := 0
	sv.SolveAll(func(Solution) bool { n++; return true })
	if n == 0 {
		t.Fatal("no solutions enumerated")
	}
	span := spanByName(t, c, "solve") // one span per call, not per solution
	if got, _ := span.Attr("solutions"); got == "0" || got == "" {
		t.Errorf("solutions attr = %q, want the enumeration count", got)
	}
}
