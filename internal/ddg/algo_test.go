package ddg

import (
	"testing"

	"discovery/internal/mir"
)

func TestFlowsInto(t *testing.T) {
	// a = {0,1}, b = {2}: 0->2, 1->2, plus an external sink 3 fed by 2.
	arcs := [][2]NodeID{{0, 2}, {1, 2}, {2, 3}}
	g := arcGraph(sameOps(mir.OpFAdd, 4), nil, arcs...)
	a, b := NewSet(0, 1), NewSet(2)
	if !g.FlowsInto(a, b) {
		t.Error("a flows entirely into b")
	}
	// b's output escaping to 3 must not matter.
	if g.FlowsInto(b, a) {
		t.Error("b does not flow into a")
	}
	// If one of a's arcs escapes, the producer no longer flows into b.
	g = arcGraph(sameOps(mir.OpFAdd, 4), nil, append(arcs, [2]NodeID{1, 3})...)
	if g.FlowsInto(a, b) {
		t.Error("escaping arc should break FlowsInto")
	}
}

func TestFlowsIntoRequiresForwardArc(t *testing.T) {
	// No arcs at all: vacuous flow is not flow.
	g := arcGraph(sameOps(mir.OpFAdd, 3), nil)
	if g.FlowsInto(NewSet(1), NewSet(0, 2)) {
		t.Error("no arcs should mean no flow")
	}
	// A back arc forbids fusion: 1 -> 2 lands in b, but 0 -> 1 flows from
	// b back into a.
	g = arcGraph(sameOps(mir.OpFAdd, 3), nil, [2]NodeID{1, 2}, [2]NodeID{0, 1})
	if g.FlowsInto(NewSet(1), NewSet(0, 2)) {
		t.Error("back arc should break FlowsInto")
	}
}

func TestWeaklyConnectedWithInputs(t *testing.T) {
	// cmp (1) and mul (2) share the external source 0 but have no arc
	// between themselves: connected only through their shared input.
	g := arcGraph([]mir.Op{mir.OpFDiv, mir.OpGt, mir.OpFMul}, nil, [2]NodeID{0, 1}, [2]NodeID{0, 2})
	comp := NewSet(1, 2)
	if g.WeaklyConnected(comp) {
		t.Error("1 and 2 are not directly connected")
	}
	if !g.WeaklyConnectedWithInputs(comp) {
		t.Error("1 and 2 connect through their shared input")
	}
	// Genuinely unrelated nodes stay unconnected.
	g2 := arcGraph(sameOps(mir.OpFMul, 4), nil, [2]NodeID{0, 1}, [2]NodeID{2, 3})
	if g2.WeaklyConnectedWithInputs(NewSet(1, 3)) {
		t.Error("nodes with disjoint inputs must not connect")
	}
}

func TestConvexityThroughLongExteriorPath(t *testing.T) {
	// 0 -> 1 -> 2 -> 3 with pattern {0, 3}: the exterior path 1->2
	// witnesses non-convexity even though it has length 2.
	g := arcGraph(sameOps(mir.OpFAdd, 4), nil, [2]NodeID{0, 1}, [2]NodeID{1, 2}, [2]NodeID{2, 3})
	if g.Convex(NewSet(0, 3), nil) {
		t.Error("{0,3} connected through {1,2} must not be convex")
	}
	if !g.Convex(NewSet(0, 1, 2, 3), nil) {
		t.Error("the whole chain is convex")
	}
}
