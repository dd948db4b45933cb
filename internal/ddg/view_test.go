package ddg

import (
	"testing"

	"discovery/internal/mir"
)

// viewTestGraph: 0 -> 1 -> 2 -> 3, 1 -> 4 (same shape as hashTestGraph).
func viewTestGraph() *Graph {
	pos := func(i int) mir.Pos { return mir.Pos{File: "v.c", Line: i + 1} }
	return arcGraph(sameOps(mir.OpFAdd, 5), pos, [2]NodeID{0, 1}, [2]NodeID{1, 2}, [2]NodeID{2, 3}, [2]NodeID{1, 4})
}

func TestSubViewMembershipAndArcs(t *testing.T) {
	g := viewTestGraph()
	sv := g.Overlay(NewSet(0, 1, 2))

	if sv.Len() != 3 {
		t.Errorf("Len = %d, want 3", sv.Len())
	}
	// NumNodes stays the base id space so position-indexed algorithms work.
	if sv.NumNodes() != g.NumNodes() {
		t.Errorf("NumNodes = %d, want base %d", sv.NumNodes(), g.NumNodes())
	}
	for _, u := range []NodeID{0, 1, 2} {
		if !sv.Contains(u) {
			t.Errorf("Contains(%d) = false", u)
		}
	}
	for _, u := range []NodeID{3, 4} {
		if sv.Contains(u) {
			t.Errorf("Contains(%d) = true", u)
		}
	}

	// Member arcs: 0->1, 1->2. The arcs 2->3 and 1->4 are filtered out.
	if n := sv.NumArcs(); n != 2 {
		t.Errorf("NumArcs = %d, want 2", n)
	}
	if succs := sv.Succs(1); len(succs) != 1 || succs[0] != 2 {
		t.Errorf("Succs(1) = %v, want [2]", succs)
	}
	if preds := sv.Preds(2); len(preds) != 1 || preds[0] != 1 {
		t.Errorf("Preds(2) = %v, want [1]", preds)
	}
}

func TestSubViewReachesThroughMembersOnly(t *testing.T) {
	g := viewTestGraph()

	full := g.Overlay(NewSet(0, 1, 2, 3))
	if !full.Reaches(0, 3) {
		t.Error("0 ->* 3 through members 0,1,2,3")
	}
	// Drop the middle of the chain: reachability must break.
	holed := g.Overlay(NewSet(0, 1, 3))
	if holed.Reaches(0, 3) {
		t.Error("0 must not reach 3 when 2 is not a member")
	}
	// Endpoints outside the member set never reach.
	if full.Reaches(0, 4) {
		t.Error("non-member target must not be reachable")
	}
	if !full.Reaches(1, 1) {
		t.Error("a member reaches itself")
	}
}

func TestSubViewOverlayIntersects(t *testing.T) {
	g := viewTestGraph()
	outer := g.Overlay(NewSet(0, 1, 2, 3))
	inner := outer.Overlay(NewSet(2, 3, 4)) // 4 is outside the outer view
	if inner.Len() != 2 || !inner.Contains(2) || !inner.Contains(3) || inner.Contains(4) {
		t.Errorf("nested overlay must intersect: members %v", inner.Nodes())
	}
	if inner.Base() != g {
		t.Error("nested overlay must stay backed by the base graph")
	}
}

func TestSubViewAnalysesRestrict(t *testing.T) {
	g := viewTestGraph()
	sv := g.Overlay(NewSet(0, 1, 2, 4))

	// Weak connectivity under member arcs: {0,1,2,4} is connected through
	// 1; {0,2} alone is not (the connecting node 1 is excluded from the
	// queried set).
	if !sv.WeaklyConnected(NewSet(0, 1, 2, 4)) {
		t.Error("member set is weakly connected")
	}
	if sv.WeaklyConnected(NewSet(0, 2)) {
		t.Error("{0,2} is not connected without 1")
	}
	// WeaklyConnectedWithInputs allows the shared predecessor 1 to join
	// {2,4}.
	if !sv.WeaklyConnectedWithInputs(NewSet(2, 4)) {
		t.Error("{2,4} share the member predecessor 1")
	}

	// External-in/out default the ambient to the member set.
	if !sv.HasExternalIn(NewSet(2, 4), nil) {
		t.Error("{2,4} has in-arcs from member 1")
	}
	if sv.HasExternalOut(NewSet(2, 4), nil) {
		t.Error("{2,4} has no member out-arcs (3 is not a member)")
	}

	// ArcsBetween filters to member arcs.
	arcs := sv.ArcsBetween(NewSet(1), NewSet(2, 3, 4))
	if len(arcs) != 2 {
		t.Errorf("ArcsBetween(1, {2,3,4}) = %v, want the two member arcs", arcs)
	}
}
