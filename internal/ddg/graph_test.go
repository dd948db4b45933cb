package ddg

import (
	"strings"
	"testing"

	"discovery/internal/mir"
)

// arcGraph builds a graph of len(ops) nodes in thread 0 with no scope,
// node i at pos(i) (the zero position when pos is nil), and the arcs u->v
// (u < v). Each node's predecessors keep the order its arcs are listed in.
func arcGraph(ops []mir.Op, pos func(i int) mir.Pos, arcs ...[2]NodeID) *Graph {
	preds := make([][]NodeID, len(ops))
	for _, a := range arcs {
		preds[a[1]] = append(preds[a[1]], a[0])
	}
	fb := NewFrozenBuilder(len(ops), len(arcs))
	for i, op := range ops {
		var p mir.Pos
		if pos != nil {
			p = pos(i)
		}
		fb.AddNode(op, fb.PosID(p), 0, fb.ScopeID(nil), preds[i]...)
	}
	g, err := fb.Finish()
	if err != nil {
		panic(err)
	}
	return g
}

// sameOps returns n copies of op.
func sameOps(op mir.Op, n int) []mir.Op {
	ops := make([]mir.Op, n)
	for i := range ops {
		ops[i] = op
	}
	return ops
}

// buildDiamond builds the graph 0 -> {1, 2} -> 3 with ops fmul at 1,2 and
// fadd elsewhere.
func buildDiamond() *Graph {
	return arcGraph([]mir.Op{mir.OpFAdd, mir.OpFMul, mir.OpFMul, mir.OpFAdd}, nil,
		[2]NodeID{0, 1}, [2]NodeID{0, 2}, [2]NodeID{1, 3}, [2]NodeID{2, 3})
}

func TestGraphAccessors(t *testing.T) {
	fb := NewFrozenBuilder(1, 0)
	scope := (&Scope{}).Enter(3, 7)
	id := fb.AddNode(mir.OpMul, fb.PosID(mir.Pos{File: "f.c", Line: 12}), 2, fb.ScopeID(scope))
	g, err := fb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if g.Op(id) != mir.OpMul || g.Pos(id).Line != 12 || g.Thread(id) != 2 {
		t.Error("node attributes not stored")
	}
	if g.ScopeOf(id) != scope {
		t.Error("scope not stored")
	}
	if !strings.Contains(g.String(), "1 nodes") {
		t.Errorf("String = %q", g.String())
	}
}

func TestWeaklyConnectedComponents(t *testing.T) {
	g := buildDiamond()
	// Full graph: one component.
	if comps := g.WeaklyConnectedComponents(g.Nodes()); len(comps) != 1 {
		t.Errorf("diamond has %d WCCs, want 1", len(comps))
	}
	// Nodes 1 and 2 are not connected to each other within {1, 2}.
	comps := g.WeaklyConnectedComponents(NewSet(1, 2))
	if len(comps) != 2 {
		t.Errorf("induced {1,2} has %d WCCs, want 2", len(comps))
	}
	if !g.WeaklyConnected(NewSet(0, 1)) {
		t.Error("{0,1} should be weakly connected")
	}
	if g.WeaklyConnected(NewSet(1, 2)) {
		t.Error("{1,2} should not be weakly connected")
	}
	if !g.WeaklyConnected(NewSet(3)) || !g.WeaklyConnected(nil) {
		t.Error("singleton and empty sets are trivially connected")
	}
}

func TestReachability(t *testing.T) {
	g := buildDiamond()
	if !g.Reaches(0, 3) || !g.Reaches(1, 3) {
		t.Error("missing reachability")
	}
	if g.Reaches(1, 2) || g.Reaches(3, 0) {
		t.Error("spurious reachability")
	}
}

func TestConvexity(t *testing.T) {
	g := buildDiamond()
	// {0, 3} is not convex: paths through 1 (outside) connect them.
	if g.Convex(NewSet(0, 3), nil) {
		t.Error("{0,3} should not be convex")
	}
	// {0, 1, 2, 3} is convex.
	if !g.Convex(g.Nodes(), nil) {
		t.Error("whole graph should be convex")
	}
	// {1} is convex.
	if !g.Convex(NewSet(1), nil) {
		t.Error("singleton should be convex")
	}
	// {0, 3} within ambient {0, 3} (excluding the middle): convex, because
	// the connecting path is outside the ambient graph.
	if !g.Convex(NewSet(0, 3), NewSet(0, 3)) {
		t.Error("{0,3} should be convex within itself")
	}
}

func TestBoundary(t *testing.T) {
	g := buildDiamond()
	b := g.BoundaryOf(NewSet(1), nil)
	if len(b.In[1]) != 1 || b.In[1][0] != 0 {
		t.Errorf("In boundary of {1} = %v", b.In)
	}
	if len(b.Out[1]) != 1 || b.Out[1][0] != 3 {
		t.Errorf("Out boundary of {1} = %v", b.Out)
	}
	if !g.HasExternalIn(NewSet(1), nil) || !g.HasExternalOut(NewSet(1), nil) {
		t.Error("external arcs not detected")
	}
	if g.HasExternalIn(g.Nodes(), nil) || g.HasExternalOut(g.Nodes(), nil) {
		t.Error("whole graph has no external arcs")
	}
}

func TestArcsBetween(t *testing.T) {
	g := buildDiamond()
	arcs := g.ArcsBetween(NewSet(0), NewSet(1, 2))
	if len(arcs) != 2 {
		t.Errorf("ArcsBetween = %v", arcs)
	}
	if arcs := g.ArcsBetween(NewSet(1, 2), NewSet(0)); len(arcs) != 0 {
		t.Errorf("ArcsBetween is directional, got %v", arcs)
	}
	if arcs := g.ArcsBetween(NewSet(0), NewSet(3)); len(arcs) != 0 {
		t.Errorf("no direct arcs 0->3, got %v", arcs)
	}
}

func TestLabels(t *testing.T) {
	g := buildDiamond()
	if g.LabelKey(NewSet(1)) != g.LabelKey(NewSet(2)) {
		t.Error("identical single ops should share a label")
	}
	if g.LabelKey(NewSet(0, 1)) == g.LabelKey(NewSet(0, 3)) {
		t.Error("fadd+fmul should differ from fadd+fadd")
	}
	if g.OpSetKey(NewSet(0, 3)) != "fadd" {
		t.Errorf("OpSetKey collapses duplicates: %q", g.OpSetKey(NewSet(0, 3)))
	}
	if !g.OpSetSubset(NewSet(0), NewSet(0, 1)) {
		t.Error("fadd ⊆ {fadd,fmul}")
	}
	if g.OpSetSubset(NewSet(0, 1), NewSet(0)) {
		t.Error("{fadd,fmul} ⊄ {fadd}")
	}
}

func TestAllAssociative(t *testing.T) {
	g := buildDiamond()
	if op, ok := g.AllAssociative(NewSet(1, 2)); !ok || op != mir.OpFMul {
		t.Errorf("AllAssociative({1,2}) = %v, %v", op, ok)
	}
	if _, ok := g.AllAssociative(NewSet(0, 1)); ok {
		t.Error("mixed ops should not be associative-uniform")
	}
	if _, ok := g.AllAssociative(nil); ok {
		t.Error("empty set should not report associative")
	}
	g2 := arcGraph([]mir.Op{mir.OpFSub}, nil)
	if _, ok := g2.AllAssociative(NewSet(0)); ok {
		t.Error("fsub is not associative")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := buildDiamond()
	sub, back := g.InducedSubgraph(NewSet(0, 1, 3))
	if sub.NumNodes() != 3 {
		t.Fatalf("induced has %d nodes", sub.NumNodes())
	}
	if sub.NumArcs() != 2 { // 0->1 and 1->3 survive; 0->2->3 does not
		t.Errorf("induced has %d arcs, want 2", sub.NumArcs())
	}
	if len(back) != 3 || back[0] != 0 || back[1] != 1 || back[2] != 3 {
		t.Errorf("back map = %v", back)
	}
}

// TestInducedSubgraphSharesTables: a subgraph names its nodes' positions
// and scopes by the parent's ids over the parent's tables, and resolves
// them to the same values.
func TestInducedSubgraphSharesTables(t *testing.T) {
	s := (*Scope)(nil).Enter(1, 1)
	scopes := []*Scope{nil, s, s.NextIter(), nil}
	fb := NewFrozenBuilder(4, 3)
	for i, sc := range scopes {
		preds := []NodeID{}
		if i > 0 {
			preds = append(preds, NodeID(i-1))
		}
		fb.AddNode(mir.OpAdd, fb.PosID(mir.Pos{File: "s.c", Line: 10 - i}), 0, fb.ScopeID(sc), preds...)
	}
	g, err := fb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	sub, back := g.InducedSubgraph(NewSet(1, 2))
	if sub.tab != g.tab {
		t.Error("induced subgraph copied the parent's tables")
	}
	for i, u := range back {
		v := NodeID(i)
		if sub.Pos(v) != g.Pos(u) || sub.ScopeOf(v) != g.ScopeOf(u) {
			t.Errorf("node %d: (%v, %v), parent node %d has (%v, %v)",
				v, sub.Pos(v), sub.ScopeOf(v), u, g.Pos(u), g.ScopeOf(u))
		}
	}
	if err := sub.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestIterationOf(t *testing.T) {
	fb := NewFrozenBuilder(2, 0)
	s := (&Scope{Loop: 0}).Enter(1, 5) // loop 1, invocation 5, iter 0
	s = s.NextIter().NextIter()        // iter 2
	u := fb.AddNode(mir.OpAdd, fb.PosID(mir.Pos{}), 0, fb.ScopeID(s))
	v := fb.AddNode(mir.OpAdd, fb.PosID(mir.Pos{}), 0, fb.ScopeID(nil))
	g, err := fb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	key, ok := g.IterationOf(u, 1)
	if !ok || key.Iter != 2 || key.Invocation != 5 {
		t.Errorf("IterationOf = %+v, %v", key, ok)
	}
	if _, ok := g.IterationOf(v, 1); ok {
		t.Error("node without scope should have no iteration")
	}
}

func TestScopeBasics(t *testing.T) {
	var root *Scope
	s := root.Enter(1, 0)
	s = s.Enter(2, 1)
	if !s.Contains(1) || !s.Contains(2) || s.Contains(3) {
		t.Error("Contains misbehaves")
	}
	s2 := s.NextIter()
	if s2.Iter != 1 || s2.Loop != 2 {
		t.Errorf("NextIter = %+v", s2)
	}
	if s2.Exit().Loop != 1 {
		t.Error("Exit should pop to loop 1")
	}
	if got := s.String(); !strings.Contains(got, "L1#0[0]/L2#1[0]") {
		t.Errorf("String = %q", got)
	}
	if (*Scope)(nil).String() != "-" {
		t.Error("nil scope String")
	}
}
