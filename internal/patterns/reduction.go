package patterns

import "discovery/internal/ddg"

// Reduction pattern matching (paper §4.3). The paper solves these models
// with a constraint solver; here each is decided by structure. With
// single-node components a linear reduction's chain order (constraints
// 3c/3d) is the unique walk of a simple path, and a tiled reduction's
// partition into partial and final chains (4a–4e) has one free choice, the
// final chain's head. Following the paper's under-approximation of the
// associativity test (3b), each reduction component is a single node whose
// operation is in the associative registry. The paper's models survive as
// the brute-force test oracle (oracle_test.go).

// MatchLinearReduction reports the linear reduction formed by the whole
// view, or nil.
func MatchLinearReduction(v *View) *Pattern {
	// The census gate decides (3b) one associative op, (3e) an input for
	// every component, and the chain shape: with single-node components,
	// (3c)/(3d) say the view is a simple path, i.e. one source, in/out
	// degrees at most one and n-1 arcs.
	if v.CannotMatch(KindLinearReduction) {
		return nil
	}
	n := v.NumGroups()
	order := chainOrder(v)
	if order == nil {
		return nil
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

// MatchTiledReduction reports the tiled reduction formed by the whole
// view, or nil. The view must partition into m ≥ 2 partial chains of equal
// length p feeding an m-component final chain (paper Figure 3, right).
func MatchTiledReduction(v *View) *Pattern {
	// The census gate decides (3b) one associative op, the size bounds
	// (at least 2 partials of length 1 plus a final chain of 2; at most
	// 4096 groups, beyond any analysis-input reduction), one sink, in-view
	// in-degrees of at most two, and m partial chains of equal length
	// (n-m)/m, where final components 2..m are the junctions with
	// in-degree 2 (previous final component + one partial tail).
	if v.CannotMatch(KindTiledReduction) {
		return nil
	}
	// The roles are fixed but for one choice: junctions are final,
	// in-degree-0 groups are partial, and the final chain's head is an
	// in-degree-1 group fed by a partial tail; every other in-degree-1
	// group is a partial-chain interior. Try each candidate head in index
	// order; checkTiled decides the full structure (4a–4e), and at most one
	// candidate passes it (the oracle checks both claims).
	for head := 0; head < v.NumGroups(); head++ {
		if v.InDegree(head) != 1 {
			continue
		}
		st := checkTiled(v, func(i int) bool { return i == head || v.InDegree(i) == 2 })
		if st == nil {
			continue
		}
		if !v.G.Convex(v.Ambient, nil) {
			return nil
		}
		return buildTiled(v, st)
	}
	return nil
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

func buildTiled(v *View, st *tiledStructure) *Pattern {
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
	return &Pattern{Kind: KindTiledReduction, Partials: partials, Final: final, Op: v.op()}
}
