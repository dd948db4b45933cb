package cp

// FuzzSolver checks the solver against ground truth. A byte stream decodes
// into a small model (at most 4 variables of at most 6 values each) over
// the constraints the matchers post — EqC, Linear, SumEq, AllDifferent —
// plus a custom propagator posted through Add. Every constraint is also
// kept as a plain predicate, so brute-force enumeration of all assignments
// yields the exact solution set. SolveAll must enumerate that set, each
// solution once (soundness and completeness), Solve must return the first
// solution SolveAll yields, and no run may panic.

import (
	"fmt"
	"testing"
)

type fuzzModel struct {
	m      *Model
	vars   []*IntVar
	lo, hi []int
	// holds lists every posted constraint as a predicate over the values
	// of vars, indexed like vars.
	holds []func(vals []int) bool
}

// genModel decodes a byte stream into a model with 1-4 variables of 1-6
// values each and up to 5 constraints over them.
func genModel(data []byte) *fuzzModel {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	fm := &fuzzModel{m: NewModel()}
	nVars := 1 + int(next())%4
	for i := 0; i < nVars; i++ {
		lo := int(next())%9 - 4
		hi := lo + int(next())%6
		fm.vars = append(fm.vars, fm.m.NewIntVar(fmt.Sprintf("v%d", i), lo, hi))
		fm.lo = append(fm.lo, lo)
		fm.hi = append(fm.hi, hi)
	}
	pick := func() int { return int(next()) % nVars }
	// subset decodes a bit mask into ascending variable indexes.
	subset := func() []int {
		mask := next()
		var idx []int
		for i := 0; i < nVars; i++ {
			if mask&(1<<i) != 0 {
				idx = append(idx, i)
			}
		}
		return idx
	}
	varsOf := func(idx []int) []*IntVar {
		vs := make([]*IntVar, len(idx))
		for k, i := range idx {
			vs[k] = fm.vars[i]
		}
		return vs
	}
	linear := func(coeffs, idx []int, rhs int) func([]int) bool {
		return func(vals []int) bool {
			sum := 0
			for k, i := range idx {
				sum += coeffs[k] * vals[i]
			}
			return sum == rhs
		}
	}
	nCons := int(next()) % 6
	for n := 0; n < nCons; n++ {
		c := int(next())%11 - 5
		switch next() % 5 {
		case 0:
			i := pick()
			fm.m.EqC(fm.vars[i], c)
			fm.holds = append(fm.holds, func(vals []int) bool { return vals[i] == c })
		case 1:
			idx := subset()
			coeffs := make([]int, len(idx))
			for k := range coeffs {
				coeffs[k] = int(next())%7 - 3
			}
			fm.m.Linear(coeffs, varsOf(idx), c)
			fm.holds = append(fm.holds, linear(coeffs, idx, c))
		case 2:
			idx := subset()
			ones := make([]int, len(idx))
			for k := range ones {
				ones[k] = 1
			}
			fm.m.SumEq(varsOf(idx), c)
			fm.holds = append(fm.holds, linear(ones, idx, c))
		case 3:
			idx := subset()
			fm.m.AllDifferent(varsOf(idx))
			fm.holds = append(fm.holds, func(vals []int) bool {
				for a := range idx {
					for b := a + 1; b < len(idx); b++ {
						if vals[idx[a]] == vals[idx[b]] {
							return false
						}
					}
				}
				return true
			})
		case 4:
			a, b, d := pick(), pick(), int(next())%4
			fm.m.Add(&noDiag{a: fm.vars[a], b: fm.vars[b], d: d})
			fm.holds = append(fm.holds, func(vals []int) bool {
				diff := vals[a] - vals[b]
				return diff != d && diff != -d
			})
		}
	}
	return fm
}

// bruteForce returns every assignment of the declared domains that
// satisfies all constraints, keyed by its rendering.
func (fm *fuzzModel) bruteForce() map[string]bool {
	sols := map[string]bool{}
	vals := append([]int(nil), fm.lo...)
	for {
		ok := true
		for _, h := range fm.holds {
			if !h(vals) {
				ok = false
				break
			}
		}
		if ok {
			sols[fmt.Sprint(vals)] = true
		}
		i := 0
		for ; i < len(vals) && vals[i] == fm.hi[i]; i++ {
			vals[i] = fm.lo[i]
		}
		if i == len(vals) {
			return sols
		}
		vals[i]++
	}
}

// key renders sol over the model's variables, as bruteForce keys them.
func (fm *fuzzModel) key(sol Solution) string {
	vals := make([]int, len(fm.vars))
	for i, v := range fm.vars {
		vals[i] = sol.Value(v)
	}
	return fmt.Sprint(vals)
}

func FuzzSolver(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{2, 0, 3, 1, 4, 3, 2, 7, 5, 0, 0, 1, 1, 2})
	f.Add([]byte{1, 250, 1, 4, 0, 6, 3, 5, 9, 9, 2, 2, 8, 1, 0, 3})
	// 4 variables over {0..5}; AllDifferent over all four, then x0+x1 = 5.
	f.Add([]byte{3, 4, 5, 4, 5, 4, 5, 4, 5, 2, 0, 3, 15, 10, 2, 3})
	// 3 variables; 2·x0 - x2 = 1, then |x0 - x1| ≠ 1.
	f.Add([]byte{2, 2, 5, 3, 4, 4, 5, 2, 6, 1, 5, 5, 2, 0, 4, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		fm := genModel(data)
		want := fm.bruteForce()

		sv := &Solver{Model: fm.m}
		var first Solution
		got := map[string]bool{}
		sv.SolveAll(func(sol Solution) bool {
			if first == nil {
				first = sol
			}
			k := fm.key(sol)
			if got[k] {
				t.Fatalf("SolveAll yielded %s twice", k)
			}
			if !want[k] {
				t.Fatalf("SolveAll yielded %s, which violates a constraint", k)
			}
			got[k] = true
			return true
		})
		if err := sv.Stats().Err; err != nil {
			t.Fatalf("solver panicked: %v", err)
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("SolveAll missed solution %s (found %d of %d)", k, len(got), len(want))
			}
		}

		one := (&Solver{Model: fm.m}).Solve()
		switch {
		case (one == nil) != (first == nil):
			t.Fatalf("Solve returned %v, SolveAll's first solution is %v", one, first)
		case one != nil && fm.key(one) != fm.key(first):
			t.Fatalf("Solve returned %s, SolveAll's first solution is %s", fm.key(one), fm.key(first))
		}
	})
}
