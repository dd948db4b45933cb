package patterns

// A brute-force oracle for the reduction matchers. The paper decides
// linear and tiled reductions (§4.3) with constraint models; the matchers
// decide them by structure (reduction.go). This oracle keeps the models:
// it enumerates every chain order (linear) or every partial/final role
// assignment (tiled) of a small view and checks the constraints on each
// candidate directly, from the graph's arcs — no census, chainOrder or
// checkTiled. Constraint by constraint, on the view's groups:
//
//   - (3b) every component is one node, and all share one associative op;
//   - (3c)/(3d) consecutive components are joined by an arc, and no other
//     two components are;
//   - (3e) every component has an input: an arc from outside itself;
//   - (3f) the last component sends an arc outside the view;
//   - (4a) the partial components form m chains of equal length p, each a
//     linear chain as in (3c)/(3d) whose components all take an element
//     from outside the view;
//   - (4b) the final components form an m-component linear chain;
//   - (4d) chain k's last component feeds final component k;
//   - (4e) no other arcs join the partial chains and the final chain;
//   - (1e) the pattern is convex: no path leaves it and re-enters.
//
// Single-node components make (1c) isomorphism and (1d) connectivity
// hold trivially.

import (
	"fmt"
	"testing"

	"discovery/internal/ddg"
	"discovery/internal/mir"
)

// The oracle's view-size limits: chain orders of up to 8 groups (8!
// orders), role assignments of up to 12 groups (2^12 assignments).
const (
	oracleMaxLinear = 8
	oracleMaxTiled  = 12
)

// oracleView is a view's group-level structure, derived from the graph's
// adjacency and the view's grouping alone.
type oracleView struct {
	n      int
	arc    [][]bool // arc[i][j]: a node of group i has a successor in group j ≠ i
	extIn  []bool   // the group has a predecessor outside the view
	extOut []bool   // the group has a successor outside the view
	oneOp  bool     // (3b)
	convex bool     // (1e)
}

func newOracleView(v *View) *oracleView {
	n := len(v.Groups)
	o := &oracleView{n: n, arc: make([][]bool, n), extIn: make([]bool, n), extOut: make([]bool, n)}
	group := map[ddg.NodeID]int{}
	for i, grp := range v.Groups {
		o.arc[i] = make([]bool, n)
		for _, u := range grp {
			group[u] = i
		}
	}
	for i, grp := range v.Groups {
		for _, u := range grp {
			for _, w := range v.G.Succs(u) {
				if j, in := group[w]; !in {
					o.extOut[i] = true
				} else if j != i {
					o.arc[i][j] = true
				}
			}
			for _, w := range v.G.Preds(u) {
				if _, in := group[w]; !in {
					o.extIn[i] = true
				}
			}
		}
	}
	o.oneOp = n > 0
	for _, grp := range v.Groups {
		op := v.G.Op(grp[0])
		if len(grp) != 1 || !op.Associative() || op != v.G.Op(v.Groups[0][0]) {
			o.oneOp = false
		}
	}
	// (1e): walk forward from every arc that leaves the view; reaching the
	// view again is a path that leaves and re-enters it.
	o.convex = true
	seen := map[ddg.NodeID]bool{}
	var stack []ddg.NodeID
	for u := range group {
		for _, w := range v.G.Succs(u) {
			if _, in := group[w]; !in && !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range v.G.Succs(u) {
			if _, in := group[w]; in {
				o.convex = false
				return o
			}
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return o
}

// hasInput reports (3e) for group i: an arc into it from outside itself.
func (o *oracleView) hasInput(i int) bool {
	if o.extIn[i] {
		return true
	}
	for j := 0; j < o.n; j++ {
		if o.arc[j][i] {
			return true
		}
	}
	return false
}

// chainOrders enumerates the orders of groups whose arcs among themselves
// are exactly the consecutive ones ((3c)/(3d)): an order is extended one
// group at a time, and dropped as soon as a pair placed so far breaks the
// rule.
func (o *oracleView) chainOrders(groups []int, emit func(order []int)) {
	order := make([]int, 0, len(groups))
	used := make([]bool, len(groups))
	var extend func()
	extend = func() {
		if len(order) == len(groups) {
			emit(order)
			return
		}
		for gi, g := range groups {
			if used[gi] {
				continue
			}
			ok := !o.arc[g][g]
			for q, h := range order {
				if o.arc[h][g] != (q == len(order)-1) || o.arc[g][h] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			used[gi] = true
			order = append(order, g)
			extend()
			order = order[:len(order)-1]
			used[gi] = false
		}
	}
	extend()
}

// oracleLinear returns the component order of every linear reduction the
// view admits, or ok false when the view is too large to enumerate.
func oracleLinear(v *View) (orders [][]int, ok bool) {
	o := newOracleView(v)
	if o.n > oracleMaxLinear {
		return nil, false
	}
	if o.n < 2 || !o.oneOp || !o.convex {
		return nil, true
	}
	all := make([]int, o.n)
	for i := range all {
		all[i] = i
	}
	o.chainOrders(all, func(order []int) {
		for _, i := range order {
			if !o.hasInput(i) {
				return
			}
		}
		if o.extOut[order[o.n-1]] {
			orders = append(orders, append([]int(nil), order...))
		}
	})
	return orders, true
}

// tiledShape is one tiled reduction: the final chain in order, and the
// partial chain feeding each final component, in order.
type tiledShape struct {
	final    []int
	partials [][]int
}

// oracleTiled returns every tiled reduction the view admits, or ok false
// when the view is too large to enumerate. It tries every role
// assignment, and for each every order of the final components that
// forms a chain (4b). A valid structure then leaves no freedom: chain k
// ends in the one partial component with an arc into final component k,
// and each earlier chain component is the one partial component with an
// arc into the next. The structure built that way is accepted only if the
// view's arcs are exactly the ones (4a)–(4e) allow.
func oracleTiled(v *View) (shapes []tiledShape, ok bool) {
	o := newOracleView(v)
	if o.n > oracleMaxTiled {
		return nil, false
	}
	if !o.oneOp || !o.convex {
		return nil, true
	}
	for mask := 0; mask < 1<<o.n; mask++ {
		var finals, partials []int
		for i := 0; i < o.n; i++ {
			if mask&(1<<i) != 0 {
				finals = append(finals, i)
			} else {
				partials = append(partials, i)
			}
		}
		m := len(finals)
		if m < 2 || len(partials) == 0 || len(partials)%m != 0 {
			continue
		}
		p := len(partials) / m
		o.chainOrders(finals, func(final []int) {
			if s, ok := o.tiledFrom(final, partials, p); ok {
				shapes = append(shapes, s)
			}
		})
	}
	return shapes, true
}

// tiledFrom builds the partial chains that the final chain order forces
// and checks the whole structure.
func (o *oracleView) tiledFrom(final, partials []int, p int) (tiledShape, bool) {
	m := len(final)
	isPartial := make([]bool, o.n)
	for _, i := range partials {
		isPartial[i] = true
	}
	// onlyPartialInto returns the one partial component with an arc into
	// j, or -1 when there is none or more than one.
	onlyPartialInto := func(j int) int {
		found := -1
		for _, i := range partials {
			if o.arc[i][j] {
				if found >= 0 {
					return -1
				}
				found = i
			}
		}
		return found
	}
	s := tiledShape{final: append([]int(nil), final...), partials: make([][]int, m)}
	slot := make([][2]int, o.n) // partial component -> (chain, position)
	placed := make([]bool, o.n)
	for k, f := range final {
		chain := make([]int, p)
		next := f
		for c := p - 1; c >= 0; c-- {
			i := onlyPartialInto(next)
			if i < 0 || placed[i] {
				return tiledShape{}, false
			}
			chain[c], slot[i], placed[i] = i, [2]int{k, c}, true
			next = i
		}
		s.partials[k] = chain
	}
	finalPos := make([]int, o.n)
	for k, f := range final {
		finalPos[f] = k
	}
	// The arcs must be exactly the structure's: along each partial chain
	// (4a), from each chain's last component into its final component
	// (4d), and along the final chain (4b); no other (4e). Arcs among the
	// finals were checked when the order was enumerated.
	for x := 0; x < o.n; x++ {
		for y := 0; y < o.n; y++ {
			if x == y || !isPartial[x] && !isPartial[y] {
				continue
			}
			var allowed bool
			switch {
			case isPartial[x] && isPartial[y]:
				allowed = slot[x][0] == slot[y][0] && slot[y][1] == slot[x][1]+1
			case isPartial[x]:
				allowed = slot[x][1] == p-1 && finalPos[y] == slot[x][0]
			}
			if o.arc[x][y] != allowed {
				return tiledShape{}, false
			}
		}
	}
	// (4a) every partial component takes an element from outside the view;
	// (3f) the last final component produces the output.
	for _, i := range partials {
		if !o.extIn[i] {
			return tiledShape{}, false
		}
	}
	if !o.extOut[final[m-1]] {
		return tiledShape{}, false
	}
	return s, true
}

// oracleVerdict is the outcome of comparing one view with the oracle:
// whether each matcher matched, and whether the oracle decided each kind
// (the view was small enough to enumerate).
type oracleVerdict struct {
	linear, tiled      bool
	decidedL, decidedT bool
}

// againstOracle compares both reduction matchers with the oracle on one
// view: the same verdict and, for a match, the same components in the
// same order. The oracle must also admit at most one structure per kind,
// which is what lets the tiled matcher stop at its first candidate.
func againstOracle(v *View) (oracleVerdict, error) {
	var out oracleVerdict
	sameGroups := func(what string, got []ddg.Set, want []int) error {
		if len(got) != len(want) {
			return fmt.Errorf("%s has %d components, oracle %d", what, len(got), len(want))
		}
		for k, i := range want {
			if !got[k].Equal(v.Groups[i]) {
				return fmt.Errorf("%s component %d is %v, oracle %v", what, k, got[k], v.Groups[i])
			}
		}
		return nil
	}
	if orders, ok := oracleLinear(v); ok {
		out.decidedL = true
		if len(orders) > 1 {
			return out, fmt.Errorf("the oracle admits %d linear chain orders: %v", len(orders), orders)
		}
		p := MatchLinearReduction(v)
		if (p != nil) != (len(orders) == 1) {
			return out, fmt.Errorf("linear reduction matcher says %v, oracle %v", p != nil, orders)
		}
		if p != nil {
			out.linear = true
			if err := sameGroups("linear chain", p.Comps, orders[0]); err != nil {
				return out, err
			}
		}
	}
	if shapes, ok := oracleTiled(v); ok {
		out.decidedT = true
		if len(shapes) > 1 {
			return out, fmt.Errorf("the oracle admits %d tiled structures: %+v", len(shapes), shapes)
		}
		p := MatchTiledReduction(v)
		if (p != nil) != (len(shapes) == 1) {
			return out, fmt.Errorf("tiled reduction matcher says %v, oracle %+v", p != nil, shapes)
		}
		if p != nil {
			out.tiled = true
			if err := sameGroups("final chain", p.Final, shapes[0].final); err != nil {
				return out, err
			}
			if len(p.Partials) != len(shapes[0].partials) {
				return out, fmt.Errorf("%d partial chains, oracle %d", len(p.Partials), len(shapes[0].partials))
			}
			for k, chain := range shapes[0].partials {
				if err := sameGroups(fmt.Sprintf("partial chain %d", k), p.Partials[k], chain); err != nil {
					return out, err
				}
			}
		}
	}
	return out, nil
}

// variantDDG builds a reduction-shaped graph: for m = 1 a linear chain of
// p fadds, for m ≥ 2 m partial chains of p fadds feeding an m-component
// final chain. Every chain fadd also takes an element from outside, and the
// last fadd feeds a sink. Each bit of flags varies the graph so that one
// constraint can fail:
//
//   - bit 0: no sink, so the last fadd has no output (3f);
//   - bit 1: the first fadd takes no element from outside (3e, 4a);
//   - bit 2: the first fadd also feeds an outside node that feeds the last
//     fadd, a path that leaves the pattern and re-enters it (1e);
//   - bit 3: the first fadd's result also escapes to an outside consumer;
//   - bit 4: for m ≥ 2 and p ≥ 2, the first partial chain is one fadd longer
//     and the last one fadd shorter (4a).
//
// It returns the graph and the fadds.
func variantDDG(m, p int, flags uint8) (*ddg.Graph, ddg.Set) {
	total := p
	if m > 1 {
		total = m*p + m
	}
	b := newGB()
	var adds []ddg.NodeID
	detour := ddg.NoNode
	fadd := func(elem bool, preds ...ddg.NodeID) ddg.NodeID {
		if elem && (len(adds) > 0 || flags&2 == 0) {
			preds = append(preds, b.node(mir.OpI2F, -1))
		}
		if len(adds) == total-1 && detour != ddg.NoNode {
			preds = append(preds, detour)
		}
		u := b.node(mir.OpFAdd, int64(len(adds)), preds...)
		adds = append(adds, u)
		if len(adds) == 1 && total > 1 && flags&4 != 0 {
			detour = b.node(mir.OpFloor, -1, u)
		}
		if len(adds) == 1 && flags&8 != 0 {
			b.node(mir.OpFloor, -1, u)
		}
		return u
	}
	chain := func(n int) ddg.NodeID {
		prev := fadd(true)
		for i := 1; i < n; i++ {
			prev = fadd(true, prev)
		}
		return prev
	}
	last := ddg.NoNode
	if m == 1 {
		last = chain(p)
	} else {
		tails := make([]ddg.NodeID, m)
		for k := range tails {
			n := p
			if flags&16 != 0 && p > 1 && k == 0 {
				n++
			} else if flags&16 != 0 && p > 1 && k == m-1 {
				n--
			}
			tails[k] = chain(n)
		}
		for k, tail := range tails {
			if k == 0 {
				last = fadd(false, tail)
			} else {
				last = fadd(false, tail, last)
			}
		}
	}
	if flags&1 == 0 {
		b.node(mir.OpFloor, -1, last)
	}
	return b.graph(), ddg.NewSet(adds...)
}

// oracleInput builds one fuzz input's graph. gen picks the generator: a
// random DAG or a perturbed pattern graph from seed, a linear chain of
// 2+a%7 fadds, a tiled reduction of 2+a%4 partial chains of 1+b%4 fadds,
// or variantDDG(1+a%3, 1+b%3, flags). drop, when below the ambient's
// size, removes that node from the ambient set.
func oracleInput(gen uint8, seed uint64, a, b, flags, drop uint8) (*ddg.Graph, ddg.Set) {
	var g *ddg.Graph
	var amb ddg.Set
	switch gen % 5 {
	case 0:
		g, amb = randomDAG(seed)
	case 1:
		g, amb = perturbedStructured(seed)
	case 2:
		g, amb = buildChainDDG(2 + int(a%7))
	case 3:
		g, amb = buildTiledDDG(2+int(a%4), 1+int(b%4))
	default:
		g, amb = variantDDG(1+int(a%3), 1+int(b%3), flags)
	}
	if int(drop) < len(amb) {
		amb = amb.Diff(ddg.NewSet(amb[drop]))
	}
	return g, amb
}

// oracleViews returns the node view and the loop-1 view of the input.
func oracleViews(g *ddg.Graph, amb ddg.Set) map[string]*View {
	return map[string]*View{"node view": NodeView(g, amb), "loop view": LoopView(g, amb, 1)}
}

// FuzzReductionOracle holds both reduction matchers to the brute-force
// oracle: the same verdict, and for a match the same components in the
// same order. Its seeds must exercise both verdicts of both kinds.
func FuzzReductionOracle(f *testing.F) {
	type seed struct {
		gen         uint8
		seed        uint64
		a, b        uint8
		flags, drop uint8
	}
	var seeds []seed
	for s := uint64(1); s <= 40; s++ {
		seeds = append(seeds, seed{gen: 0, seed: s, drop: 255}, seed{gen: 1, seed: s, drop: 255})
	}
	for a := uint8(0); a < 7; a++ {
		seeds = append(seeds, seed{gen: 2, a: a, drop: 255}, seed{gen: 2, a: a, drop: a})
	}
	for a := uint8(0); a < 4; a++ {
		for b := uint8(0); b < 4; b++ {
			seeds = append(seeds, seed{gen: 3, a: a, b: b, drop: 255}, seed{gen: 3, a: a, b: b, drop: a + b})
		}
	}
	for a := uint8(0); a < 3; a++ {
		for b := uint8(0); b < 3; b++ {
			for flags := uint8(0); flags < 32; flags++ {
				seeds = append(seeds, seed{gen: 4, a: a, b: b, flags: flags, drop: 255})
			}
		}
	}
	// verdicts[kind][matched] counts oracle-decided views per outcome.
	var verdicts [2][2]int
	for _, s := range seeds {
		g, amb := oracleInput(s.gen, s.seed, s.a, s.b, s.flags, s.drop)
		for name, v := range oracleViews(g, amb) {
			got, err := againstOracle(v)
			if err != nil {
				f.Fatalf("seed %+v, %s: %v", s, name, err)
			}
			if got.decidedL {
				verdicts[0][b2i(got.linear)]++
			}
			if got.decidedT {
				verdicts[1][b2i(got.tiled)]++
			}
		}
		f.Add(s.gen, s.seed, s.a, s.b, s.flags, s.drop)
	}
	for kind, name := range []string{"linear", "tiled"} {
		if verdicts[kind][0] == 0 || verdicts[kind][1] == 0 {
			f.Fatalf("seed corpus decides %s reductions only one way: %d rejected, %d matched",
				name, verdicts[kind][0], verdicts[kind][1])
		}
	}
	f.Fuzz(func(t *testing.T, gen uint8, seed uint64, a, b, flags, drop uint8) {
		g, amb := oracleInput(gen, seed, a, b, flags, drop)
		for name, v := range oracleViews(g, amb) {
			if _, err := againstOracle(v); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	})
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestReductionOracleOnShapes runs the oracle over every chain and tiled
// shape within its limits, whole and with each single node dropped, so
// the comparison covers every position a broken link can take.
func TestReductionOracleOnShapes(t *testing.T) {
	check := func(name string, g *ddg.Graph, amb ddg.Set, wantLinear, wantTiled bool) {
		t.Helper()
		for vname, v := range oracleViews(g, amb) {
			got, err := againstOracle(v)
			if err != nil {
				t.Fatalf("%s %s: %v", name, vname, err)
			}
			if got.linear != wantLinear || got.tiled != wantTiled {
				t.Errorf("%s %s: linear %v tiled %v, want %v %v", name, vname, got.linear, got.tiled, wantLinear, wantTiled)
			}
		}
		for d := range amb {
			sub := amb.Diff(ddg.NewSet(amb[d]))
			for vname, v := range oracleViews(g, sub) {
				if _, err := againstOracle(v); err != nil {
					t.Fatalf("%s without node %d, %s: %v", name, amb[d], vname, err)
				}
			}
		}
	}
	for n := 2; n <= oracleMaxLinear; n++ {
		g, amb := buildChainDDG(n)
		check(fmt.Sprintf("chain %d", n), g, amb, true, false)
	}
	for m := 2; m <= 4; m++ {
		for p := 1; m*(p+1) <= oracleMaxTiled; p++ {
			g, amb := buildTiledDDG(m, p)
			check(fmt.Sprintf("tiled %dx%d", m, p), g, amb, false, true)
		}
	}
	// A chain whose op is not associative is no reduction (3b).
	b := newGB()
	x := b.node(mir.OpFSub, 0, b.node(mir.OpI2F, -1))
	y := b.node(mir.OpFSub, 1, x, b.node(mir.OpI2F, -1))
	b.node(mir.OpFloor, -1, y)
	check("fsub chain", b.graph(), ddg.NewSet(x, y), false, false)
}
