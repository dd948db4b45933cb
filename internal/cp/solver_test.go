package cp

import (
	"context"
	"testing"
	"time"
)

func TestBasicPropagation(t *testing.T) {
	m := NewModel()
	x := m.NewIntVar("x", 0, 10)
	y := m.NewIntVar("y", 0, 10)
	m.EqC(x, 4)
	m.Linear([]int{1, -1}, []*IntVar{x, y}, 0) // x = y
	sol := (&Solver{Model: m}).Solve()
	if sol == nil {
		t.Fatal("no solution")
	}
	if sol.Value(x) != 4 || sol.Value(y) != 4 {
		t.Errorf("x=%d y=%d, want 4 4", sol.Value(x), sol.Value(y))
	}
}

func TestUnsat(t *testing.T) {
	m := NewModel()
	x := m.NewIntVar("x", 0, 5)
	m.EqC(x, 3)
	m.Linear([]int{2}, []*IntVar{x}, 5) // 2x = 5 has no integer solution
	if sol := (&Solver{Model: m}).Solve(); sol != nil {
		t.Errorf("unexpected solution %v", sol)
	}
}

func TestLinearEquation(t *testing.T) {
	// 2x + 3y = 12 over [0,10]
	m := NewModel()
	x := m.NewIntVar("x", 0, 10)
	y := m.NewIntVar("y", 0, 10)
	m.Linear([]int{2, 3}, []*IntVar{x, y}, 12)
	sols := map[[2]int]bool{}
	(&Solver{Model: m}).SolveAll(func(sol Solution) bool {
		sols[[2]int{sol.Value(x), sol.Value(y)}] = true
		return true
	})
	want := [][2]int{{0, 4}, {3, 2}, {6, 0}}
	if len(sols) != len(want) {
		t.Fatalf("solutions = %v", sols)
	}
	for _, w := range want {
		if !sols[w] {
			t.Errorf("missing solution %v", w)
		}
	}
}

func TestLinearWithNegativeCoeffs(t *testing.T) {
	// x - 2y = -3, x,y in [0,5]: the negative coefficient exercises the
	// rounding of both bound directions.
	m := NewModel()
	x := m.NewIntVar("x", 0, 5)
	y := m.NewIntVar("y", 0, 5)
	m.Linear([]int{1, -2}, []*IntVar{x, y}, -3)
	var got [][2]int
	(&Solver{Model: m}).SolveAll(func(sol Solution) bool {
		got = append(got, [2]int{sol.Value(x), sol.Value(y)})
		return true
	})
	want := [][2]int{{1, 2}, {3, 3}, {5, 4}}
	if len(got) != len(want) {
		t.Fatalf("solutions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("solutions = %v, want %v", got, want)
		}
	}
}

// nQueens counts solutions to the n-queens problem, a classic solver
// stress test with known answer sequence.
func nQueens(n int) int64 {
	m := NewModel()
	q := make([]*IntVar, n)
	for i := range q {
		q[i] = m.NewIntVar("q", 0, n-1)
	}
	m.AllDifferent(q)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			// Diagonal attacks via table-free pairwise linear constraints:
			// q[i] - q[j] != i-j and q[j] - q[i] != i-j.
			d := j - i
			m.Add(&noDiag{a: q[i], b: q[j], d: d})
		}
	}
	sv := &Solver{Model: m}
	var count int64
	sv.SolveAll(func(Solution) bool { count++; return true })
	return count
}

// noDiag forbids |a-b| == d.
type noDiag struct {
	a, b *IntVar
	d    int
}

func (p *noDiag) Vars() []*IntVar { return []*IntVar{p.a, p.b} }
func (p *noDiag) Propagate(s *Space) bool {
	if s.Assigned(p.a) {
		if !s.Remove(p.b, s.Value(p.a)+p.d) || !s.Remove(p.b, s.Value(p.a)-p.d) {
			return false
		}
	}
	if s.Assigned(p.b) {
		if !s.Remove(p.a, s.Value(p.b)+p.d) || !s.Remove(p.a, s.Value(p.b)-p.d) {
			return false
		}
	}
	return true
}

func TestNQueens(t *testing.T) {
	want := map[int]int64{4: 2, 5: 10, 6: 4, 7: 40, 8: 92}
	for n, expected := range want {
		if got := nQueens(n); got != expected {
			t.Errorf("nQueens(%d) = %d, want %d", n, got, expected)
		}
	}
}

func TestSendMoreMoney(t *testing.T) {
	// SEND + MORE = MONEY, all letters distinct digits, S,M nonzero.
	m := NewModel()
	letters := map[string]*IntVar{}
	for _, l := range []string{"S", "E", "N", "D", "M", "O", "R", "Y"} {
		lo := 0
		if l == "S" || l == "M" {
			lo = 1
		}
		letters[l] = m.NewIntVar(l, lo, 9)
	}
	vars := []*IntVar{}
	for _, v := range letters {
		vars = append(vars, v)
	}
	m.AllDifferent(vars)
	//   1000*S + 100*E + 10*N + D
	// + 1000*M + 100*O + 10*R + E
	// = 10000*M + 1000*O + 100*N + 10*E + Y
	m.Linear(
		[]int{1000, 100, 10, 1, 1000, 100, 10, 1, -10000, -1000, -100, -10, -1},
		[]*IntVar{
			letters["S"], letters["E"], letters["N"], letters["D"],
			letters["M"], letters["O"], letters["R"], letters["E"],
			letters["M"], letters["O"], letters["N"], letters["E"], letters["Y"],
		},
		0)
	sol := (&Solver{Model: m}).Solve()
	if sol == nil {
		t.Fatal("SEND+MORE=MONEY unsolved")
	}
	get := func(l string) int { return sol.Value(letters[l]) }
	send := 1000*get("S") + 100*get("E") + 10*get("N") + get("D")
	more := 1000*get("M") + 100*get("O") + 10*get("R") + get("E")
	money := 10000*get("M") + 1000*get("O") + 100*get("N") + 10*get("E") + get("Y")
	if send+more != money {
		t.Errorf("%d + %d != %d", send, more, money)
	}
	if get("M") != 1 || get("O") != 0 || get("S") != 9 {
		t.Errorf("non-canonical solution: S=%d M=%d O=%d", get("S"), get("M"), get("O"))
	}
}

func TestSolveAllEarlyStop(t *testing.T) {
	m := NewModel()
	m.NewIntVar("x", 0, 99)
	sv := &Solver{Model: m}
	n := 0
	sv.SolveAll(func(Solution) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("early stop after %d solutions, want 5", n)
	}
}

func TestTimeout(t *testing.T) {
	// A big unsatisfiable pigeonhole-ish problem that cannot finish fast.
	m := NewModel()
	vars := make([]*IntVar, 14)
	for i := range vars {
		vars[i] = m.NewIntVar("p", 0, 12)
	}
	m.AllDifferent(vars) // 14 pigeons, 13 holes: UNSAT but exponential for this propagator
	sv := &Solver{Model: m, Timeout: 50 * time.Millisecond}
	start := time.Now()
	sol := sv.Solve()
	if sol != nil {
		t.Error("pigeonhole should be unsatisfiable")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timeout not honored: %v", elapsed)
	}
	if !sv.Stats().TimedOut && sv.Stats().Elapsed > 100*time.Millisecond {
		t.Error("TimedOut flag not set despite long run")
	}
}

func TestStatsPopulated(t *testing.T) {
	m := NewModel()
	x := m.NewIntVar("x", 0, 3)
	y := m.NewIntVar("y", 0, 3)
	m.AllDifferent([]*IntVar{x, y})
	sv := &Solver{Model: m}
	var n int
	sv.SolveAll(func(Solution) bool { n++; return true })
	st := sv.Stats()
	if st.Solutions != int64(n) || n != 12 {
		t.Errorf("solutions: stat=%d cb=%d want 12", st.Solutions, n)
	}
	if st.Nodes == 0 {
		t.Error("no nodes counted")
	}
}

// TestFirstFailOrder pins the search order: branch on the variable with
// the smallest domain (the earliest declared on ties), values ascending.
// Matchers that keep the first solution depend on it.
func TestFirstFailOrder(t *testing.T) {
	m := NewModel()
	x := m.NewIntVar("x", 0, 2)
	y := m.NewIntVar("y", 0, 1)
	z := m.NewIntVar("z", 5, 6)
	var got [][3]int
	(&Solver{Model: m}).SolveAll(func(sol Solution) bool {
		got = append(got, [3]int{sol.Value(x), sol.Value(y), sol.Value(z)})
		return true
	})
	// y and z (two values each) are fixed before x; y before z.
	want := [][3]int{
		{0, 0, 5}, {1, 0, 5}, {2, 0, 5}, {0, 0, 6}, {1, 0, 6}, {2, 0, 6},
		{0, 1, 5}, {1, 1, 5}, {2, 1, 5}, {0, 1, 6}, {1, 1, 6}, {2, 1, 6},
	}
	if len(got) != len(want) {
		t.Fatalf("solutions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("solution %d = %v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestStepLimit(t *testing.T) {
	m := NewModel()
	vars := make([]*IntVar, 14)
	for i := range vars {
		vars[i] = m.NewIntVar("p", 0, 12)
	}
	m.AllDifferent(vars) // pigeonhole: UNSAT but exponential
	sv := &Solver{Model: m, StepLimit: 500}
	if sol := sv.Solve(); sol != nil {
		t.Error("pigeonhole should have no solution")
	}
	st := sv.Stats()
	if !st.LimitHit {
		t.Error("LimitHit not set")
	}
	if !st.Limited() {
		t.Error("Limited() should report the step limit")
	}
	if st.Nodes+st.Propagations > 500+256 {
		t.Errorf("step limit overshot: nodes=%d props=%d", st.Nodes, st.Propagations)
	}
	// The limit is deterministic: a rerun spends identical effort.
	sv2 := &Solver{Model: m, StepLimit: 500}
	sv2.Solve()
	if sv2.Stats().Nodes != st.Nodes || sv2.Stats().Propagations != st.Propagations {
		t.Errorf("step-limited effort not deterministic: %d/%d vs %d/%d",
			st.Nodes, st.Propagations, sv2.Stats().Nodes, sv2.Stats().Propagations)
	}
}

func TestContextCancellation(t *testing.T) {
	m := NewModel()
	vars := make([]*IntVar, 14)
	for i := range vars {
		vars[i] = m.NewIntVar("p", 0, 12)
	}
	m.AllDifferent(vars)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the solver must return promptly
	sv := &Solver{Model: m, Ctx: ctx}
	start := time.Now()
	if sol := sv.Solve(); sol != nil {
		t.Error("cancelled solve returned a solution")
	}
	if !sv.Stats().Cancelled {
		t.Error("Cancelled not set")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation not honored promptly: %v", elapsed)
	}
}

func TestExhaustedBudgetSkipsSearch(t *testing.T) {
	m := NewModel()
	x := m.NewIntVar("x", 0, 1)
	m.EqC(x, 1)
	sv := &Solver{Model: m, Timeout: -1} // budget already spent
	if sol := sv.Solve(); sol != nil {
		t.Error("exhausted budget still searched")
	}
	st := sv.Stats()
	if !st.TimedOut || st.Nodes != 0 {
		t.Errorf("want immediate timeout with no nodes, got %+v", st)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Nodes: 3, Propagations: 5, Elapsed: time.Second}
	b := Stats{Nodes: 2, Failures: 1, Solutions: 4, TimedOut: true}
	a.Add(b)
	if a.Nodes != 5 || a.Failures != 1 || a.Solutions != 4 || a.Propagations != 5 {
		t.Errorf("bad rollup: %+v", a)
	}
	if !a.TimedOut || !a.Limited() {
		t.Error("limit flags not OR-ed")
	}
}

// TestMagicSeries solves the magic series problem with a counting
// propagator: s[i] = number of occurrences of i in s. Length 4 has two
// solutions ([1 2 1 0] and [2 0 2 0]); lengths 5 and 7 have one each.
func TestMagicSeries(t *testing.T) {
	for n, wantSols := range map[int]int{4: 2, 5: 1, 7: 1} {
		m := NewModel()
		s := make([]*IntVar, n)
		for i := range s {
			s[i] = m.NewIntVar("s", 0, n)
		}
		for i := 0; i < n; i++ {
			m.Add(&countEq{vars: s, value: i, count: s[i]})
		}
		// Classic redundant constraint to prune: sum s[i] = n.
		m.SumEq(s, n)
		sols := 0
		(&Solver{Model: m}).SolveAll(func(sol Solution) bool {
			sols++
			// Self-consistency: s[i] really counts the occurrences of i.
			for i := 0; i < n; i++ {
				occ := 0
				for j := 0; j < n; j++ {
					if sol.Value(s[j]) == i {
						occ++
					}
				}
				if occ != sol.Value(s[i]) {
					t.Errorf("n=%d: s[%d] = %d but %d occurs %d times",
						n, i, sol.Value(s[i]), i, occ)
				}
			}
			return true
		})
		if sols != wantSols {
			t.Errorf("n=%d: %d solutions, want %d", n, sols, wantSols)
		}
	}
}

// countEq forbids |{i : vars[i] = value}| != count, pinning count between
// the occurrences already fixed and those still possible, and forcing the
// undecided variables once count sits at either bound.
type countEq struct {
	vars  []*IntVar
	value int
	count *IntVar
}

func (p *countEq) Vars() []*IntVar { return append(append([]*IntVar{}, p.vars...), p.count) }

func (p *countEq) Propagate(s *Space) bool {
	fixed, possible := 0, 0
	for _, v := range p.vars {
		if !s.Contains(v, p.value) {
			continue
		}
		possible++
		if s.Assigned(v) {
			fixed++
		}
	}
	if !s.RemoveBelow(p.count, fixed) || !s.RemoveAbove(p.count, possible) {
		return false
	}
	if !s.Assigned(p.count) {
		return true
	}
	switch target := s.Value(p.count); target {
	case fixed:
		for _, v := range p.vars {
			if !s.Assigned(v) && !s.Remove(v, p.value) {
				return false
			}
		}
	case possible:
		for _, v := range p.vars {
			if !s.Assigned(v) && s.Contains(v, p.value) && !s.Assign(v, p.value) {
				return false
			}
		}
	}
	return true
}
