package patterns

import (
	"testing"

	"discovery/internal/ddg"
	"discovery/internal/mir"
)

// gb is a small graph builder for hand-constructed DDGs with loop scopes.
type gb struct {
	fb *ddg.FrozenBuilder
	n  int
	g  *ddg.Graph
}

func newGB() *gb { return &gb{fb: ddg.NewFrozenBuilder(16, 16)} }

// node adds a node with the given op inside iteration iter of loop 1
// (invocation 1); iter < 0 means no loop scope.
func (b *gb) node(op mir.Op, iter int64, preds ...ddg.NodeID) ddg.NodeID {
	var scope *ddg.Scope
	if iter >= 0 {
		scope = &ddg.Scope{Loop: 1, Invocation: 1, Iter: iter}
	}
	return b.nodeIn(op, scope, preds...)
}

// nodeIn adds a node with the given op under an explicit scope chain.
func (b *gb) nodeIn(op mir.Op, scope *ddg.Scope, preds ...ddg.NodeID) ddg.NodeID {
	b.n++
	return b.fb.AddNode(op, b.fb.PosID(mir.Pos{File: "t.c", Line: b.n}), 0, b.fb.ScopeID(scope), preds...)
}

// graph finishes the builder on first call and returns the graph; no node
// may be added afterwards.
func (b *gb) graph() *ddg.Graph {
	if b.g == nil {
		g, err := b.fb.Finish()
		if err != nil {
			panic(err)
		}
		b.g = g
	}
	return b.g
}

// extend rebuilds g with the arcs added and one extra node appended per
// op in extra (zero position, thread 0, no scope). Ids, ops, positions
// and scopes carry over, and each added arc goes after its target's own
// predecessors.
func extend(g *ddg.Graph, arcs [][2]ddg.NodeID, extra ...mir.Op) *ddg.Graph {
	n := g.NumNodes()
	added := make([][]ddg.NodeID, n+len(extra))
	for _, a := range arcs {
		added[a[1]] = append(added[a[1]], a[0])
	}
	fb := ddg.NewFrozenBuilder(n+len(extra), g.NumArcs()+len(arcs))
	for i := 0; i < n; i++ {
		u := ddg.NodeID(i)
		preds := append(append([]ddg.NodeID(nil), g.Preds(u)...), added[i]...)
		fb.AddNode(g.Op(u), fb.PosID(g.Pos(u)), g.Thread(u), fb.ScopeID(g.ScopeOf(u)), preds...)
	}
	for i, op := range extra {
		fb.AddNode(op, fb.PosID(mir.Pos{}), 0, fb.ScopeID(nil), added[n+i]...)
	}
	out, err := fb.Finish()
	if err != nil {
		panic(err)
	}
	return out
}

// buildMapDDG builds n independent two-op components (fsub -> fmul), each
// fed by an external source and feeding an external sink.
func buildMapDDG(n int) (*ddg.Graph, ddg.Set) {
	b := newGB()
	var ambient []ddg.NodeID
	for i := 0; i < n; i++ {
		src := b.node(mir.OpI2F, -1)
		a := b.node(mir.OpFSub, int64(i), src)
		c := b.node(mir.OpFMul, int64(i), a)
		b.node(mir.OpFloor, -1, c) // sink
		ambient = append(ambient, a, c)
	}
	return b.graph(), ddg.NewSet(ambient...)
}

func TestMatchMap(t *testing.T) {
	g, ambient := buildMapDDG(4)
	v := LoopView(g, ambient, 1)
	if v.NumGroups() != 4 {
		t.Fatalf("view has %d groups, want 4", v.NumGroups())
	}
	p := MatchMap(v)
	if p == nil {
		t.Fatal("map not matched")
	}
	if p.Kind != KindMap || len(p.Comps) != 4 || p.NumFull != 4 {
		t.Errorf("pattern = %v", p)
	}
	if err := Verify(g, p); err != nil {
		t.Errorf("verification failed: %v", err)
	}
	if p.Nodes().Len() != 8 {
		t.Errorf("pattern covers %d nodes, want 8", p.Nodes().Len())
	}
}

func TestMatchMapRejectsDependentComponents(t *testing.T) {
	g, ambient := buildMapDDG(3)
	// Add a cross-iteration arc: component 0's fmul feeds component 1's fsub.
	// Nodes: per i: src=4i, fsub=4i+1, fmul=4i+2, sink=4i+3.
	g = extend(g, [][2]ddg.NodeID{{2, 5}})
	v := LoopView(g, ambient, 1)
	if p := MatchMap(v); p != nil {
		t.Errorf("map matched despite dependency: %v", p)
	}
}

func TestMatchMapRejectsSingleComponent(t *testing.T) {
	g, ambient := buildMapDDG(1)
	if p := MatchMap(LoopView(g, ambient, 1)); p != nil {
		t.Error("single-component map should not match")
	}
}

func TestMatchMapRejectsNoOutput(t *testing.T) {
	// Components whose outputs were consumed only by (removed) address
	// computations: no outgoing arcs at all — the kmeans miss shape.
	b := newGB()
	var ambient []ddg.NodeID
	for i := 0; i < 4; i++ {
		src := b.node(mir.OpI2F, -1)
		a := b.node(mir.OpFSub, int64(i), src)
		c := b.node(mir.OpFMul, int64(i), a)
		ambient = append(ambient, a, c)
	}
	v := LoopView(b.graph(), ddg.NewSet(ambient...), 1)
	if p := MatchMap(v); p != nil {
		t.Errorf("map matched without outputs: %v", p)
	}
}

func TestMatchMapRejectsInputlessComponent(t *testing.T) {
	// Component 2 computes from nothing: its fsub has no operand. The
	// components are still independent, connected and isomorphic, but
	// (2c) requires every component to take an input element.
	b := newGB()
	var ambient []ddg.NodeID
	for i := 0; i < 4; i++ {
		var a ddg.NodeID
		if i == 2 {
			a = b.node(mir.OpFSub, int64(i))
		} else {
			a = b.node(mir.OpFSub, int64(i), b.node(mir.OpI2F, -1))
		}
		c := b.node(mir.OpFMul, int64(i), a)
		b.node(mir.OpFloor, -1, c) // sink
		ambient = append(ambient, a, c)
	}
	v := LoopView(b.graph(), ddg.NewSet(ambient...), 1)
	if p := MatchMap(v); p != nil {
		t.Errorf("map matched with an input-less component: %v", p)
	}
}

func TestMatchConditionalMap(t *testing.T) {
	// Components 0 and 2 produce output; 1 and 3 skip the output branch
	// (they execute a subset of the operations).
	b := newGB()
	var ambient []ddg.NodeID
	for i := 0; i < 4; i++ {
		src := b.node(mir.OpI2F, -1)
		a := b.node(mir.OpFSub, int64(i), src)
		cmp := b.node(mir.OpGt, int64(i), a)
		ambient = append(ambient, a, cmp)
		if i%2 == 0 {
			c := b.node(mir.OpFMul, int64(i), a)
			b.node(mir.OpFloor, -1, c) // sink
			ambient = append(ambient, c)
		}
	}
	v := LoopView(b.graph(), ddg.NewSet(ambient...), 1)
	p := MatchMap(v)
	if p == nil {
		t.Fatal("conditional map not matched")
	}
	if p.Kind != KindConditionalMap || p.NumFull != 2 || len(p.Comps) != 4 {
		t.Errorf("pattern = %v (NumFull=%d)", p, p.NumFull)
	}
	if err := Verify(b.graph(), p); err != nil {
		t.Errorf("verification failed: %v", err)
	}
}

func TestMatchMapRejectsMixedLabels(t *testing.T) {
	// Two full components with different op sets: not isomorphic even
	// under the relaxation.
	b := newGB()
	src1 := b.node(mir.OpI2F, -1)
	a1 := b.node(mir.OpFSub, 0, src1)
	b.node(mir.OpFloor, -1, a1)
	src2 := b.node(mir.OpI2F, -1)
	a2 := b.node(mir.OpFMul, 1, src2)
	b.node(mir.OpFloor, -1, a2)
	v := LoopView(b.graph(), ddg.NewSet(a1, a2), 1)
	if p := MatchMap(v); p != nil {
		t.Errorf("map matched with mixed labels: %v", p)
	}
}

// buildChainDDG builds a linear reduction: n fadds chained, each fed by an
// external element, last one feeding an external sink. Returns the adds.
func buildChainDDG(n int) (*ddg.Graph, ddg.Set) {
	b := newGB()
	var adds []ddg.NodeID
	var prev ddg.NodeID = ddg.NoNode
	for i := 0; i < n; i++ {
		elem := b.node(mir.OpI2F, -1)
		var add ddg.NodeID
		if prev == ddg.NoNode {
			add = b.node(mir.OpFAdd, int64(i), elem)
		} else {
			add = b.node(mir.OpFAdd, int64(i), elem, prev)
		}
		adds = append(adds, add)
		prev = add
	}
	b.node(mir.OpFloor, -1, prev) // sink
	return b.graph(), ddg.NewSet(adds...)
}

func TestMatchLinearReduction(t *testing.T) {
	g, adds := buildChainDDG(5)
	v := NodeView(g, adds)
	p := MatchLinearReduction(v)
	if p == nil {
		t.Fatal("linear reduction not matched")
	}
	if p.Kind != KindLinearReduction || len(p.Comps) != 5 || p.Op != mir.OpFAdd {
		t.Errorf("pattern = %v", p)
	}
	// Chain order must follow the arcs.
	for i := 0; i+1 < len(p.Comps); i++ {
		if len(g.ArcsBetween(p.Comps[i], p.Comps[i+1])) == 0 {
			t.Errorf("chain order broken between %d and %d", i, i+1)
		}
	}
	if err := Verify(g, p); err != nil {
		t.Errorf("verification failed: %v", err)
	}
}

func TestMatchLinearReductionViaLoopView(t *testing.T) {
	// The final-sum loop of the paper's Table 1 (sub-DDG f) is a loop view
	// whose groups are single fadds: a linear reduction.
	g, adds := buildChainDDG(4)
	v := LoopView(g, adds, 1)
	p := MatchLinearReduction(v)
	if p == nil {
		t.Fatal("linear reduction not matched through loop view")
	}
	if len(p.Comps) != 4 {
		t.Errorf("components = %d, want 4", len(p.Comps))
	}
}

func TestMatchLinearReductionRejectsNonAssociative(t *testing.T) {
	b := newGB()
	var nodes []ddg.NodeID
	var prev ddg.NodeID = ddg.NoNode
	for i := 0; i < 3; i++ {
		elem := b.node(mir.OpI2F, -1)
		var n ddg.NodeID
		if prev == ddg.NoNode {
			n = b.node(mir.OpFSub, int64(i), elem) // fsub is not associative
		} else {
			n = b.node(mir.OpFSub, int64(i), elem, prev)
		}
		nodes = append(nodes, n)
		prev = n
	}
	b.node(mir.OpFloor, -1, prev)
	if p := MatchLinearReduction(NodeView(b.graph(), ddg.NewSet(nodes...))); p != nil {
		t.Errorf("non-associative chain matched: %v", p)
	}
}

func TestMatchLinearReductionRejectsBranchedShape(t *testing.T) {
	// Two chains joining (tiled shape) must not match a linear reduction.
	g, all := buildTiledDDG(2, 2)
	if p := MatchLinearReduction(NodeView(g, all)); p != nil {
		t.Errorf("tiled shape matched as linear: %v", p)
	}
}

func TestMatchLinearReductionRejectsMissingOutput(t *testing.T) {
	b := newGB()
	elem1 := b.node(mir.OpI2F, -1)
	a1 := b.node(mir.OpFAdd, 0, elem1)
	elem2 := b.node(mir.OpI2F, -1)
	a2 := b.node(mir.OpFAdd, 1, elem2, a1)
	_ = a2 // no sink: final value unused
	if p := MatchLinearReduction(NodeView(b.graph(), ddg.NewSet(a1, a2))); p != nil {
		t.Errorf("reduction without output matched: %v", p)
	}
}

func TestMatchLinearReductionRejectsInputlessHead(t *testing.T) {
	// The chain's head has no operand at all: (3e) requires every
	// component, the first included, to take an input element.
	b := newGB()
	a1 := b.node(mir.OpFAdd, 0)
	a2 := b.node(mir.OpFAdd, 1, b.node(mir.OpI2F, -1), a1)
	a3 := b.node(mir.OpFAdd, 2, b.node(mir.OpI2F, -1), a2)
	b.node(mir.OpFloor, -1, a3) // sink
	if p := MatchLinearReduction(NodeView(b.graph(), ddg.NewSet(a1, a2, a3))); p != nil {
		t.Errorf("reduction with an input-less head matched: %v", p)
	}
}

// buildTiledDDG builds m partial chains of p fadds each, feeding a final
// chain of m fadds, with external elements and a sink. Returns all adds.
func buildTiledDDG(m, p int) (*ddg.Graph, ddg.Set) {
	b := newGB()
	var all []ddg.NodeID
	tails := make([]ddg.NodeID, m)
	iter := int64(0)
	for k := 0; k < m; k++ {
		var prev ddg.NodeID = ddg.NoNode
		for i := 0; i < p; i++ {
			elem := b.node(mir.OpI2F, -1)
			var add ddg.NodeID
			if prev == ddg.NoNode {
				add = b.node(mir.OpFAdd, iter, elem)
			} else {
				add = b.node(mir.OpFAdd, iter, elem, prev)
			}
			iter++
			all = append(all, add)
			prev = add
		}
		tails[k] = prev
	}
	var prev ddg.NodeID = ddg.NoNode
	for k := 0; k < m; k++ {
		var add ddg.NodeID
		if prev == ddg.NoNode {
			add = b.node(mir.OpFAdd, iter, tails[k])
		} else {
			add = b.node(mir.OpFAdd, iter, tails[k], prev)
		}
		iter++
		all = append(all, add)
		prev = add
	}
	b.node(mir.OpFloor, -1, prev) // sink
	return b.graph(), ddg.NewSet(all...)
}

func TestMatchTiledReduction(t *testing.T) {
	for _, shape := range []struct{ m, p int }{{2, 2}, {3, 4}, {4, 1}} {
		g, all := buildTiledDDG(shape.m, shape.p)
		v := NodeView(g, all)
		pat := MatchTiledReduction(v)
		if pat == nil {
			t.Fatalf("tiled reduction m=%d p=%d not matched", shape.m, shape.p)
		}
		if len(pat.Partials) != shape.m || len(pat.Partials[0]) != shape.p || len(pat.Final) != shape.m {
			t.Errorf("m=%d p=%d: got %d partials of %d, final %d",
				shape.m, shape.p, len(pat.Partials), len(pat.Partials[0]), len(pat.Final))
		}
		if err := Verify(g, pat); err != nil {
			t.Errorf("m=%d p=%d verification failed: %v", shape.m, shape.p, err)
		}
	}
}

func TestMatchTiledReductionRejectsPlainChain(t *testing.T) {
	g, adds := buildChainDDG(6)
	if p := MatchTiledReduction(NodeView(g, adds)); p != nil {
		t.Errorf("plain chain matched as tiled: %v", p)
	}
}

func TestMatchTiledReductionRejectsUnevenChains(t *testing.T) {
	// Two partial chains with different lengths (3 and 1): total partials
	// 4, m=2, so (n-m)%m == 0 passes but the equal-length check must fail.
	b := newGB()
	elem := func() ddg.NodeID { return b.node(mir.OpI2F, -1) }
	a1 := b.node(mir.OpFAdd, 0, elem())
	a2 := b.node(mir.OpFAdd, 1, elem(), a1)
	a3 := b.node(mir.OpFAdd, 2, elem(), a2)
	c1 := b.node(mir.OpFAdd, 3, elem())
	f1 := b.node(mir.OpFAdd, 4, a3)
	f2 := b.node(mir.OpFAdd, 5, c1, f1)
	b.node(mir.OpFloor, -1, f2)
	all := ddg.NewSet(a1, a2, a3, c1, f1, f2)
	if p := MatchTiledReduction(NodeView(b.graph(), all)); p != nil {
		t.Errorf("uneven tiled reduction matched: %v", p)
	}
}

// buildMapReduction chains a map (one fmul per element) into a reduction
// over the same elements, either linear (m=1 semantics) or tiled.
func buildLinearMapReduction(n int) (*ddg.Graph, *Pattern, *Pattern) {
	b := newGB()
	var mapComps []ddg.Set
	var adds []ddg.NodeID
	var prev ddg.NodeID = ddg.NoNode
	for i := 0; i < n; i++ {
		src := b.node(mir.OpI2F, -1)
		mul := b.node(mir.OpFMul, int64(i), src)
		mapComps = append(mapComps, ddg.NewSet(mul))
		var add ddg.NodeID
		if prev == ddg.NoNode {
			add = b.node(mir.OpFAdd, int64(i), mul)
		} else {
			add = b.node(mir.OpFAdd, int64(i), mul, prev)
		}
		adds = append(adds, add)
		prev = add
	}
	b.node(mir.OpFloor, -1, prev)
	mapPat := &Pattern{Kind: KindMap, Comps: mapComps, NumFull: len(mapComps)}
	redComps := make([]ddg.Set, len(adds))
	for i, a := range adds {
		redComps[i] = ddg.NewSet(a)
	}
	redPat := &Pattern{Kind: KindLinearReduction, Comps: redComps, Op: mir.OpFAdd}
	return b.graph(), mapPat, redPat
}

func TestMatchLinearMapReduction(t *testing.T) {
	g, m, r := buildLinearMapReduction(4)
	p := MatchLinearMapReduction(g, m, r)
	if p == nil {
		t.Fatal("linear map-reduction not matched")
	}
	if err := Verify(g, p); err != nil {
		t.Errorf("verification failed: %v", err)
	}
	if p.Nodes().Len() != 8 {
		t.Errorf("nodes = %d, want 8", p.Nodes().Len())
	}
}

func TestMatchLinearMapReductionRejectsEscapingOutput(t *testing.T) {
	g, m, r := buildLinearMapReduction(4)
	// Map component 0's output is also used elsewhere: violates the
	// "only taken as input by its corresponding component" interface.
	g = extend(g, [][2]ddg.NodeID{{m.Comps[0][0], ddg.NodeID(g.NumNodes())}}, mir.OpFloor)
	if p := MatchLinearMapReduction(g, m, r); p != nil {
		t.Errorf("map-reduction matched despite escaping output: %v", p)
	}
}

func TestMatchTiledMapReduction(t *testing.T) {
	// Build tiled reduction and attach one map component per partial add.
	g, all := buildTiledDDG(2, 3)
	v := NodeView(g, all)
	tr := MatchTiledReduction(v)
	if tr == nil {
		t.Fatal("tiled reduction not matched")
	}
	// The I2F elements feeding partial adds act as the map: find them.
	var mapComps []ddg.Set
	for _, chain := range tr.Partials {
		for _, comp := range chain {
			for _, pred := range g.Preds(comp[0]) {
				if g.Op(pred) == mir.OpI2F {
					mapComps = append(mapComps, ddg.NewSet(pred))
				}
			}
		}
	}
	if len(mapComps) != 6 {
		t.Fatalf("found %d map components, want 6", len(mapComps))
	}
	m := &Pattern{Kind: KindMap, Comps: mapComps, NumFull: len(mapComps)}
	p := MatchTiledMapReduction(g, m, tr)
	if p == nil {
		t.Fatal("tiled map-reduction not matched")
	}
	if p.Op != mir.OpFAdd {
		t.Errorf("op = %v", p.Op)
	}
}

func TestMatchFusedMap(t *testing.T) {
	// Two chained maps over the same 4 elements.
	b := newGB()
	var aComps, bComps []ddg.Set
	for i := 0; i < 4; i++ {
		src := b.node(mir.OpI2F, -1)
		m1 := b.node(mir.OpFMul, int64(i), src)
		m2 := b.node(mir.OpFSub, int64(i), m1)
		b.node(mir.OpFloor, -1, m2)
		aComps = append(aComps, ddg.NewSet(m1))
		bComps = append(bComps, ddg.NewSet(m2))
	}
	a := &Pattern{Kind: KindMap, Comps: aComps, NumFull: 4}
	bp := &Pattern{Kind: KindMap, Comps: bComps, NumFull: 4}
	p := MatchFusedMap(b.graph(), a, bp)
	if p == nil {
		t.Fatal("fused map not matched")
	}
	if p.Kind != KindFusedMap || len(p.Comps) != 4 || p.NumFull != 4 {
		t.Errorf("pattern = %v", p)
	}
	if err := Verify(b.graph(), p); err != nil {
		t.Errorf("verification failed: %v", err)
	}
}

func TestMatchFusedMapRejectsMismatchedSpaces(t *testing.T) {
	// First map has 2 components, second has 3: the ray-rot miss.
	b := newGB()
	var aComps, bComps []ddg.Set
	for i := 0; i < 2; i++ {
		src := b.node(mir.OpI2F, -1)
		m1 := b.node(mir.OpFMul, int64(i), src)
		aComps = append(aComps, ddg.NewSet(m1))
	}
	for i := 0; i < 3; i++ {
		var m2 ddg.NodeID
		if i < 2 {
			m2 = b.node(mir.OpFSub, int64(10+i), aComps[i][0])
		} else {
			src := b.node(mir.OpI2F, -1)
			m2 = b.node(mir.OpFSub, int64(10+i), src)
		}
		b.node(mir.OpFloor, -1, m2)
		bComps = append(bComps, ddg.NewSet(m2))
	}
	a := &Pattern{Kind: KindMap, Comps: aComps, NumFull: 2}
	bp := &Pattern{Kind: KindMap, Comps: bComps, NumFull: 3}
	if p := MatchFusedMap(b.graph(), a, bp); p != nil {
		t.Errorf("fused map matched despite mismatching spaces: %v", p)
	}
}

func TestMatchFusedMapWithConditionalFirstStage(t *testing.T) {
	// First stage: conditional map, 2 of 4 components produce output.
	// Second stage: map over 4 elements, 2 fed by stage one, 2 by
	// external background data — the rot-cc shape.
	b := newGB()
	var aComps, bComps []ddg.Set
	for i := 0; i < 4; i++ {
		src := b.node(mir.OpI2F, -1)
		cmp := b.node(mir.OpGt, int64(i), src)
		comp := []ddg.NodeID{cmp}
		if i < 2 {
			mul := b.node(mir.OpFMul, int64(i), src)
			comp = append(comp, mul)
		}
		aComps = append(aComps, ddg.NewSet(comp...))
	}
	for i := 0; i < 4; i++ {
		var in ddg.NodeID
		if i < 2 {
			in = aComps[i][1] // the fmul
		} else {
			in = b.node(mir.OpI2F, -1) // background
		}
		m2 := b.node(mir.OpFSub, int64(10+i), in)
		b.node(mir.OpFloor, -1, m2)
		bComps = append(bComps, ddg.NewSet(m2))
	}
	// Reorder a's components full-first as MatchMap produces them.
	a := &Pattern{Kind: KindConditionalMap,
		Comps:   []ddg.Set{aComps[0], aComps[1], aComps[2], aComps[3]},
		NumFull: 2}
	bp := &Pattern{Kind: KindMap, Comps: bComps, NumFull: 4}
	p := MatchFusedMap(b.graph(), a, bp)
	if p == nil {
		t.Fatal("conditional fused map not matched")
	}
	if p.NumFull != 4 || len(p.Comps) != 6 {
		t.Errorf("NumFull=%d comps=%d, want 4 and 6", p.NumFull, len(p.Comps))
	}
}

func TestKindStrings(t *testing.T) {
	cases := map[Kind]string{
		KindMap:                "m",
		KindConditionalMap:     "cm",
		KindFusedMap:           "fm",
		KindLinearReduction:    "r",
		KindTiledReduction:     "r",
		KindLinearMapReduction: "mr",
		KindTiledMapReduction:  "mr",
	}
	for k, short := range cases {
		if k.Short() != short {
			t.Errorf("%v.Short() = %q, want %q", k, k.Short(), short)
		}
		if k.String() == "" {
			t.Errorf("%v has empty String", k)
		}
	}
	if !KindMap.IsMapKind() || KindLinearReduction.IsMapKind() {
		t.Error("IsMapKind misbehaves")
	}
	if !KindTiledReduction.IsReductionKind() || KindMap.IsReductionKind() {
		t.Error("IsReductionKind misbehaves")
	}
}

func TestPatternSubsumes(t *testing.T) {
	big := &Pattern{Kind: KindMap, Comps: []ddg.Set{ddg.NewSet(1, 2), ddg.NewSet(3, 4)}}
	small := &Pattern{Kind: KindMap, Comps: []ddg.Set{ddg.NewSet(1), ddg.NewSet(3)}}
	if !big.Subsumes(small) {
		t.Error("big should subsume small")
	}
	if small.Subsumes(big) {
		t.Error("small should not subsume big")
	}
}

func TestViewBasics(t *testing.T) {
	g, ambient := buildMapDDG(3)
	v := LoopView(g, ambient, 1)
	if v.NumGroups() != 3 {
		t.Fatalf("groups = %d", v.NumGroups())
	}
	for i := 0; i < 3; i++ {
		if !v.ExtIn(i) || !v.ExtOut(i) {
			t.Errorf("group %d: ExtIn=%v ExtOut=%v", i, v.ExtIn(i), v.ExtOut(i))
		}
		if v.Label(i) != v.Label(0) || v.OpSet(i) != "fmul,fsub" {
			t.Errorf("group %d labels: %q / %q", i, v.Label(i), v.OpSet(i))
		}
		if v.OutDegree(i) != 0 || v.InDegree(i) != 0 {
			t.Errorf("group %d has view arcs", i)
		}
	}
	if v.GroupsUnion(0, 1).Len() != 4 {
		t.Error("GroupsUnion wrong")
	}
}

func TestViewReaches(t *testing.T) {
	g, adds := buildChainDDG(4)
	v := NodeView(g, adds)
	if !v.Reaches(0, 3) {
		t.Error("chain head should reach tail")
	}
	if v.Reaches(3, 0) {
		t.Error("tail should not reach head")
	}
}

func TestLoopViewLooseNodes(t *testing.T) {
	// A node without the loop frame becomes its own group.
	b := newGB()
	src := b.node(mir.OpI2F, -1)
	a := b.node(mir.OpFAdd, 0, src)
	v := LoopView(b.graph(), ddg.NewSet(src, a), 1)
	if v.NumGroups() != 2 {
		t.Errorf("groups = %d, want 2 (loose node separate)", v.NumGroups())
	}
}

func TestOpsSummaryAndPositions(t *testing.T) {
	g, ambient := buildMapDDG(2)
	v := LoopView(g, ambient, 1)
	p := MatchMap(v)
	if p == nil {
		t.Fatal("no map")
	}
	if s := p.OpsSummary(g); s != "fmul,fsub" {
		t.Errorf("OpsSummary = %q", s)
	}
	if len(p.Positions(g)) == 0 {
		t.Error("no positions")
	}
}
