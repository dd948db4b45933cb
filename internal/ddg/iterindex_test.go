package ddg

// Unit tests for the loop-iteration compaction indexes: derivation from
// the scope chains (including recursion that re-enters one static loop),
// the memo contract, subgraphs deriving their own
// indexes, and the invariant checker's drift detection — an index that
// disagrees with the scope chains must be caught, because it would
// silently change compacted views.

import (
	"testing"

	"discovery/internal/mir"
)

// buildLoopGraph returns a 5-node graph: node 0 outside any loop, nodes
// 1-2 in iteration 0 and nodes 3-4 in iteration 1 of loop 1 (invocation 0).
func buildLoopGraph(t *testing.T) *Graph {
	t.Helper()
	var root *Scope
	s0 := root.Enter(1, 0)
	s1 := s0.NextIter()
	fb := NewFrozenBuilder(5, 5)
	pos := mir.Pos{File: "loop.c", Line: 1}
	fb.AddNode(mir.OpFAdd, fb.PosID(pos), 0, fb.ScopeID(nil))
	fb.AddNode(mir.OpFAdd, fb.PosID(pos), 0, fb.ScopeID(s0), 0)
	fb.AddNode(mir.OpFMul, fb.PosID(pos), 0, fb.ScopeID(s0), 1)
	fb.AddNode(mir.OpFAdd, fb.PosID(pos), 0, fb.ScopeID(s1), 2)
	fb.AddNode(mir.OpFMul, fb.PosID(pos), 0, fb.ScopeID(s1), 3)
	g, err := fb.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return g
}

// checkAgainstFrames asserts that every node's ordinal in every loop's
// index names exactly the key Scope.FrameFor reports for it.
func checkAgainstFrames(t *testing.T, g *Graph, loops []mir.LoopID) {
	t.Helper()
	for _, loop := range loops {
		ix := g.LoopIterIndex(loop)
		for i := 0; i < g.NumNodes(); i++ {
			u := NodeID(i)
			inv, iter, inLoop := g.ScopeOf(u).FrameFor(loop)
			o, ok := ix.OrdinalOf(u)
			if ok != inLoop {
				t.Fatalf("loop %d node %d: indexed=%t, FrameFor in loop=%t", loop, u, ok, inLoop)
			}
			want := IterationKey{Loop: loop, Invocation: inv, Iter: iter}
			if ok && ix.Keys[o] != want {
				t.Fatalf("loop %d node %d: ordinal %d is key %v, FrameFor says %v", loop, u, o, ix.Keys[o], want)
			}
		}
		for i := 1; i < ix.NumGroups(); i++ {
			if compareKeys(ix.Keys[i-1], ix.Keys[i]) >= 0 {
				t.Fatalf("loop %d: keys unsorted at %d: %v", loop, i, ix.Keys)
			}
		}
	}
}

func TestOrdinalOf(t *testing.T) {
	g := buildLoopGraph(t)
	ix := g.LoopIterIndex(1)
	if ix.NumGroups() != 2 {
		t.Fatalf("NumGroups = %d, want 2", ix.NumGroups())
	}
	if ix.lo != 1 || len(ix.ord) != 4 {
		t.Errorf("index spans [%d, %d), want the loop's nodes [1, 5)", ix.lo, int(ix.lo)+len(ix.ord))
	}
	if _, ok := ix.OrdinalOf(0); ok {
		t.Error("node outside the loop reported an ordinal")
	}
	if o, ok := ix.OrdinalOf(3); !ok || o != 1 {
		t.Errorf("OrdinalOf(3) = (%d, %t), want (1, true)", o, ok)
	}
	if _, ok := ix.OrdinalOf(99); ok {
		t.Error("node beyond the graph reported an ordinal")
	}
	if g.LoopIterIndex(2) != nil {
		t.Error("loop no node ran in returned an index")
	}
	var none *LoopIterIndex
	if _, ok := none.OrdinalOf(1); ok {
		t.Error("nil index reported an ordinal")
	}
	if g.LoopIterIndex(1) != ix {
		t.Error("frozen graph derived its index twice")
	}
}

// TestIterIndexRecursion builds a scope chain that holds static loop 1
// twice — a recursive call re-entering the loop from inside one of its
// own iterations — and checks that each node is charged to its innermost
// frame, the one FrameFor reports. Keys are first met out of order (the
// inner invocation before the outer loop's next iteration), so the
// renumbering to sorted order is exercised too.
func TestIterIndexRecursion(t *testing.T) {
	var root *Scope
	outer := root.Enter(1, 0)  // L1#0[0]
	mid := outer.Enter(2, 5)   // L1#0[0]/L2#5[0]
	inner := mid.Enter(1, 1)   // L1#0[0]/L2#5[0]/L1#1[0]
	inner1 := inner.NextIter() // .../L1#1[1]
	mid1 := inner1.Exit().NextIter()
	outer1 := outer.NextIter()  // L1#0[1]
	again := outer1.Enter(1, 2) // L1#0[1]/L1#2[0]
	scopes := []*Scope{nil, outer, mid, inner, inner, inner1, mid1, outer1, again, again, outer1}
	fb := NewFrozenBuilder(len(scopes), len(scopes))
	pos := mir.Pos{File: "rec.c", Line: 1}
	for i, s := range scopes {
		if i == 0 {
			fb.AddNode(mir.OpAdd, fb.PosID(pos), 0, fb.ScopeID(s))
		} else {
			fb.AddNode(mir.OpAdd, fb.PosID(pos), 0, fb.ScopeID(s), NodeID(i-1))
		}
	}
	g, err := fb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstFrames(t, g, []mir.LoopID{1, 2, 3})
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("recursive graph fails invariants: %v", err)
	}
	want := []IterationKey{{1, 0, 0}, {1, 0, 1}, {1, 1, 0}, {1, 1, 1}, {1, 2, 0}}
	got := g.LoopIterIndex(1).Keys
	if len(got) != len(want) {
		t.Fatalf("loop 1 keys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("loop 1 keys = %v, want %v", got, want)
		}
	}
	// Node 3 runs in the recursive invocation: loop 1 charges it there, not
	// to the outer frame it also sits in.
	if o, _ := g.LoopIterIndex(1).OrdinalOf(3); got[o] != (IterationKey{1, 1, 0}) {
		t.Errorf("node 3 charged to %v, want the innermost frame L1#1[0]", got[o])
	}
}

// TestIterIndexUnfrozenNotMemoized pins the memo contract: a graph derives
// its indexes once.
func TestIterIndexUnfrozenNotMemoized(t *testing.T) {
	var root *Scope
	s0 := root.Enter(1, 0)
	fb := NewFrozenBuilder(2, 0)
	fb.AddNode(mir.OpAdd, fb.PosID(mir.Pos{}), 0, fb.ScopeID(s0))
	fb.AddNode(mir.OpAdd, fb.PosID(mir.Pos{}), 0, fb.ScopeID(s0.NextIter()))
	g, err := fb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	ix := g.LoopIterIndex(1)
	if ix.NumGroups() != 2 || g.LoopIterIndex(1) != ix {
		t.Fatal("graph did not memoize its index")
	}
}

// TestCheckInvariantsCatchesIndexDrift corrupts a derived index in place
// and asserts the invariant checker rejects each flavor of drift. Loop 1
// of buildLoopGraph runs in nodes 1-4, so its index spans them: ordinals
// are written relative to the span's first node, and the span flavors
// move the span's ends.
func TestCheckInvariantsCatchesIndexDrift(t *testing.T) {
	set := func(ix *LoopIterIndex, u NodeID, o int32) { ix.ord[u-ix.lo] = o }
	cases := []struct {
		name    string
		corrupt func(g *Graph, ix *LoopIterIndex)
	}{
		{"wrong-group", func(_ *Graph, ix *LoopIterIndex) { set(ix, 2, 1) }},   // node 2 moved to iteration 1
		{"missing-node", func(_ *Graph, ix *LoopIterIndex) { set(ix, 2, -1) }}, // node 2 dropped from the loop
		{"phantom-node", func(_ *Graph, ix *LoopIterIndex) { // node 0 pulled into the loop
			ix.lo, ix.ord = 0, append([]int32{0}, ix.ord...)
		}},
		{"out-of-range", func(_ *Graph, ix *LoopIterIndex) { set(ix, 4, 2) }},
		{"unsorted-keys", func(_ *Graph, ix *LoopIterIndex) { ix.Keys[0], ix.Keys[1] = ix.Keys[1], ix.Keys[0] }},
		{"short", func(_ *Graph, ix *LoopIterIndex) { ix.ord = ix.ord[:0] }},
		{"misfiled", func(_ *Graph, ix *LoopIterIndex) { ix.Loop = 9 }},
		{"missing-loop", func(g *Graph, _ *LoopIterIndex) { g.iterMemo.ixs[1] = nil }},
		{"span-starts-after-first", func(_ *Graph, ix *LoopIterIndex) { ix.lo, ix.ord = ix.lo+1, ix.ord[1:] }},
		{"span-ends-before-last", func(_ *Graph, ix *LoopIterIndex) { ix.ord = ix.ord[:len(ix.ord)-1] }},
		{"span-past-graph", func(_ *Graph, ix *LoopIterIndex) { ix.ord = append(ix.ord, 1) }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			g := buildLoopGraph(t)
			if err := g.CheckInvariants(); err != nil {
				t.Fatalf("clean graph fails invariants: %v", err)
			}
			tc.corrupt(g, g.LoopIterIndex(1))
			if err := g.CheckInvariants(); err == nil {
				t.Fatal("drifted index passed invariant checking")
			}
		})
	}
}

// TestIterIndexRestrictsThroughInducedSubgraph checks that an induced
// subgraph, deriving its index from the scope chains it inherits, groups
// its nodes exactly as the base's index does: the same keys, in the same
// relative order.
func TestIterIndexRestrictsThroughInducedSubgraph(t *testing.T) {
	g := buildLoopGraph(t)
	sub, back := g.InducedSubgraph(NewSet(0, 1, 3, 4))
	if len(back) != 4 {
		t.Fatalf("back map has %d entries, want 4", len(back))
	}
	base, rix := g.LoopIterIndex(1), sub.LoopIterIndex(1)
	if rix == nil {
		t.Fatal("induced subgraph derived no iteration index")
	}
	for i, old := range back {
		o, ok := rix.OrdinalOf(NodeID(i))
		bo, bok := base.OrdinalOf(old)
		if ok != bok || (ok && rix.Keys[o] != base.Keys[bo]) {
			t.Errorf("subgraph node %d (base %d) grouped differently from the base", i, old)
		}
	}
	if err := sub.CheckInvariants(); err != nil {
		t.Errorf("subgraph index fails invariants: %v", err)
	}
}
