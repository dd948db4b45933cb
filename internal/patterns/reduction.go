package patterns

import (
	"time"

	"discovery/internal/cp"
	"discovery/internal/ddg"
	"discovery/internal/mir"
)

// Reduction pattern matching (paper §4.3). These are the models with real
// combinatorial structure, solved with the constraint solver: linear
// reductions need a chain order (constraints 3c/3d), tiled reductions need
// a partition into partial and final chains (4a–4e). Following the paper's
// under-approximation of the associativity test (3b), each reduction
// component is a single node whose operation is in the associative
// registry.

// SolverBudget is the default bound on each constraint-solver run, used
// when the matcher's Budget carries no SolveTimeout of its own. The paper
// uses a 60-second limit per run; ours is far more than these models
// need, and exists for the same reason (bounding worst-case matching
// time). Callers that want the expiry to be observable rather than
// silent pass a Budget (see budget.go).
var SolverBudget = 60 * time.Second

// cpCrossCheckLimit bounds the view size up to which the chain-order
// constraint model is run in full; larger views rely on the (equivalent)
// structural path check alone. The constraint model mirrors the paper's;
// the structural check is the dedicated propagation shortcut that makes
// matching scale linearly with trace size (paper §6.2).
const cpCrossCheckLimit = 64

// MatchLinearReduction reports the linear reduction formed by the whole
// view, or nil. A nil budget applies the default per-solve bound; with a
// budget, a solver run cut short by its resource limits marks
// budget.Exceeded so the caller can distinguish "no pattern" from
// "undecided within budget" (the outcome that used to be silently
// conflated with unsatisfiability).
func MatchLinearReduction(v *View, budget *Budget) *Pattern {
	// The census gate decides (3b) one associative op, (3e) an input for
	// every component, and the chain shape: with single-node components,
	// (3c)/(3d) say the view is a simple path, i.e. one source, in/out
	// degrees at most one and n-1 arcs.
	if v.cannotMatch(KindLinearReduction) {
		return nil
	}
	n := v.NumGroups()
	order := chainOrder(v)
	if order == nil {
		return nil
	}
	if n <= cpCrossCheckLimit {
		// Cross-validate against the combinatorial model: pos[i] is the
		// 1-based chain position of group i; an arc (i,j) forces
		// pos[j] = pos[i]+1, a missing arc forbids it.
		model := cp.NewModel()
		pos := make([]*cp.IntVar, n)
		for i := range pos {
			pos[i] = model.NewIntVar("pos", 1, n)
		}
		model.AllDifferent(pos)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				if v.HasArc(i, j) {
					model.Linear([]int{1, -1}, []*cp.IntVar{pos[j], pos[i]}, 1)
				} else {
					model.Add(&diffNe{a: pos[i], b: pos[j], d: 1})
				}
			}
		}
		sv := &cp.Solver{Model: model}
		sol := budget.solve(KindLinearReduction, sv)
		if sol == nil {
			// Distinguish "proved unsatisfiable" from "ran out of budget":
			// budget.record has already marked Exceeded in the latter case
			// (the structural path check above said yes, so a limited nil
			// is genuinely undecided, not a refutation).
			return nil
		}
		for i, p := range pos {
			order[sol.Value(p)-1] = i
		}
	}
	// (3f) the last component produces the output element.
	if !v.ExtOut(order[n-1]) {
		return nil
	}
	// (1e) pattern convexity.
	if !v.G.Convex(v.Ambient, nil) {
		return nil
	}
	comps := make([]ddg.Set, n)
	for k, i := range order {
		comps[k] = v.Groups[i]
	}
	return &Pattern{Kind: KindLinearReduction, Comps: comps, Op: v.op()}
}

// chainOrder walks the chain from its source, or returns nil if the walk
// misses a group: with the degrees the gate has fixed, only a cycle (which
// traces never produce) can hide one.
func chainOrder(v *View) []int {
	src := 0
	for v.InDegree(src) != 0 {
		src++
	}
	order := []int{src}
	for a := v.Arcs(src); len(a) == 1; a = v.Arcs(a[0]) {
		order = append(order, a[0])
	}
	if len(order) != v.NumGroups() {
		return nil
	}
	return order
}

// diffNe posts b - a ≠ d.
type diffNe struct {
	a, b *cp.IntVar
	d    int
}

func (p *diffNe) Vars() []*cp.IntVar { return []*cp.IntVar{p.a, p.b} }

func (p *diffNe) Propagate(s *cp.Space) bool {
	if s.Assigned(p.a) {
		if !s.Remove(p.b, s.Value(p.a)+p.d) {
			return false
		}
	}
	if s.Assigned(p.b) {
		if !s.Remove(p.a, s.Value(p.b)-p.d) {
			return false
		}
	}
	return true
}

// MatchTiledReduction reports the tiled reduction formed by the whole
// view, or nil. The view must partition into m ≥ 2 partial chains of equal
// length p feeding an m-component final chain (paper Figure 3, right).
// Budget semantics are as for MatchLinearReduction.
func MatchTiledReduction(v *View, budget *Budget) *Pattern {
	// The census gate decides (3b) one associative op, the size bounds
	// (at least 2 partials of length 1 plus a final chain of 2; at most
	// 4096 groups, beyond any analysis-input reduction), one sink, in-view
	// in-degrees of at most two, and m partial chains of equal length
	// (n-m)/m, where final components 2..m are the junctions with
	// in-degree 2 (previous final component + one partial tail).
	if v.cannotMatch(KindTiledReduction) {
		return nil
	}
	n, m := v.NumGroups(), v.census.Junctions+1
	op := v.op()

	// Role model: role[i] = 1 if group i is a final-reduction component.
	// Junctions are forced final, in-degree-0 groups are forced partial
	// (the final chain's head is fed by a partial tail), the sink is
	// final, and the final chain has exactly m components. The residual
	// choice — which in-degree-1 group is the final head — is the
	// solver's; tiledShape checks the full structure.
	model := cp.NewModel()
	role := make([]*cp.IntVar, n)
	for i := range role {
		role[i] = model.NewBoolVar("final")
	}
	sink := 0
	for i := 0; i < n; i++ {
		switch {
		case v.InDegree(i) == 2:
			model.EqC(role[i], 1)
		case v.InDegree(i) == 0:
			model.EqC(role[i], 0)
		}
		if v.OutDegree(i) == 0 {
			sink = i
		}
	}
	model.SumEq(role, m)
	model.EqC(role[sink], 1)
	model.Add(&tiledShape{view: v, role: role})

	sv := &cp.Solver{Model: model}
	var result *Pattern
	budget.solveAll(KindTiledReduction, sv, func(sol cp.Solution) bool {
		pat := buildTiled(v, sol, role, op)
		if pat != nil {
			result = pat
			return false
		}
		return true
	})
	if result == nil {
		// Either no role assignment forms a tiled reduction, or the
		// enumeration was cut short — budget.Exceeded tells them apart.
		return nil
	}
	if !v.G.Convex(v.Ambient, nil) {
		return nil
	}
	return result
}

// tiledShape prunes obviously broken role assignments and, once all roles
// are fixed, checks the full tiled structure (4a–4e).
type tiledShape struct {
	view *View
	role []*cp.IntVar
}

func (p *tiledShape) Vars() []*cp.IntVar { return p.role }

func (p *tiledShape) Propagate(s *cp.Space) bool {
	v := p.view
	n := len(p.role)
	// Local rule: an arc i -> j with role[i]=1 forces role[j]=1 (a final
	// component's value is used by the next final component only; a final
	// node feeding a partial node would be a backward arc, impossible).
	for i := 0; i < n; i++ {
		if s.Assigned(p.role[i]) && s.Value(p.role[i]) == 1 {
			for _, j := range v.Arcs(i) {
				if !s.Assign(p.role[j], 1) {
					return false
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		if !s.Assigned(p.role[i]) {
			return true // incomplete: final check later
		}
	}
	return checkTiled(v, func(i int) bool { return s.Value(p.role[i]) == 1 }) != nil
}

// checkTiled validates a complete role assignment and returns the ordered
// structure (final chain order and partial chains keyed by the final
// component they feed), or nil.
func checkTiled(v *View, isFinal func(int) bool) *tiledStructure {
	n := v.NumGroups()
	var finals, partials []int
	for i := 0; i < n; i++ {
		if isFinal(i) {
			finals = append(finals, i)
		} else {
			partials = append(partials, i)
		}
	}
	m := len(finals)
	if m < 2 || len(partials) == 0 || len(partials)%m != 0 {
		return nil
	}
	p := len(partials) / m

	finalSet := map[int]bool{}
	for _, i := range finals {
		finalSet[i] = true
	}
	// The final chain must be a path: each final node has at most one
	// successor, which must be final; exactly one final node (the overall
	// sink) has none.
	next := map[int]int{}
	head := -1
	for _, i := range finals {
		var succFinals []int
		for _, j := range v.Arcs(i) {
			if finalSet[j] {
				succFinals = append(succFinals, j)
			} else {
				return nil // final feeding a partial: not a chain (4e)
			}
		}
		if len(succFinals) > 1 {
			return nil
		}
		if len(succFinals) == 1 {
			next[i] = succFinals[0]
		}
	}
	// Find the head: a final node not fed by any final node.
	fedByFinal := map[int]bool{}
	for _, j := range next {
		fedByFinal[j] = true
	}
	for _, i := range finals {
		if !fedByFinal[i] {
			if head >= 0 {
				return nil
			}
			head = i
		}
	}
	if head < 0 {
		return nil
	}
	order := []int{head}
	for cur := head; ; {
		j, ok := next[cur]
		if !ok {
			break
		}
		order = append(order, j)
		cur = j
	}
	if len(order) != m {
		return nil // final nodes do not form a single path
	}

	// Partial nodes must form chains: within partials, in/out degree ≤ 1,
	// and each chain's tail feeds exactly one final component (4d), with
	// no other partial->final arcs (4e).
	partialSet := map[int]bool{}
	for _, i := range partials {
		partialSet[i] = true
	}
	succIn := map[int]int{} // partial -> its partial successor
	feeds := map[int]int{}  // partial tail -> final component index (in order)
	orderIdx := map[int]int{}
	for k, f := range order {
		orderIdx[f] = k
	}
	fedCount := make([]int, m)
	for _, i := range partials {
		var ps, fs []int
		for _, j := range v.Arcs(i) {
			if partialSet[j] {
				ps = append(ps, j)
			} else {
				fs = append(fs, j)
			}
		}
		if len(ps)+len(fs) != 1 {
			return nil // each partial node feeds exactly its successor
		}
		if len(ps) == 1 {
			succIn[i] = ps[0]
		} else {
			k := orderIdx[fs[0]]
			feeds[i] = k
			fedCount[k]++
		}
	}
	// Each final component is fed by exactly one partial tail.
	for _, c := range fedCount {
		if c != 1 {
			return nil
		}
	}
	// Partial in-degrees within partials must be ≤ 1 and chains must have
	// equal length p; reconstruct chains from heads.
	pin := map[int]int{}
	for _, j := range succIn {
		pin[j]++
		if pin[j] > 1 {
			return nil
		}
	}
	chains := make([][]int, m)
	found := 0
	for _, i := range partials {
		if pin[i] > 0 {
			continue // not a head
		}
		chain := []int{i}
		cur := i
		for {
			j, ok := succIn[cur]
			if !ok {
				break
			}
			chain = append(chain, j)
			cur = j
		}
		if len(chain) != p {
			return nil // (4a) equal length partial reductions
		}
		k, ok := feeds[cur]
		if !ok || chains[k] != nil {
			return nil
		}
		chains[k] = chain
		found++
	}
	if found != m {
		return nil
	}
	// (3e)/(3f) analogue: every partial node takes an element from outside
	// the sub-DDG; the final sink produces an output element.
	for _, i := range partials {
		if !v.ExtIn(i) {
			return nil
		}
	}
	if !v.ExtOut(order[m-1]) {
		return nil
	}
	return &tiledStructure{finalOrder: order, chains: chains}
}

type tiledStructure struct {
	finalOrder []int
	chains     [][]int
}

func buildTiled(v *View, sol cp.Solution, role []*cp.IntVar, op mir.Op) *Pattern {
	st := checkTiled(v, func(i int) bool { return sol.Value(role[i]) == 1 })
	if st == nil {
		return nil
	}
	final := make([]ddg.Set, len(st.finalOrder))
	for k, i := range st.finalOrder {
		final[k] = v.Groups[i]
	}
	partials := make([][]ddg.Set, len(st.chains))
	for k, chain := range st.chains {
		partials[k] = make([]ddg.Set, len(chain))
		for c, i := range chain {
			partials[k][c] = v.Groups[i]
		}
	}
	return &Pattern{Kind: KindTiledReduction, Partials: partials, Final: final, Op: op}
}
