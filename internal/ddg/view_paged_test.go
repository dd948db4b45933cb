package ddg

// The matching surface over a spilled base graph. Matchers read a sub-DDG
// as the whole graph plus the member mask of its nodes (Overlay); the
// claim of the paged CSR is that everything above the GraphView surface
// runs unmodified on a spilled graph. This suite renders what a matcher
// can observe of a member set twice — over a resident graph and over a
// spilled clone — and requires identical answers.

import (
	"fmt"
	"testing"

	"discovery/internal/mir"
)

// buildViewGraph returns a small diamond-and-chain graph with loop scopes:
//
//	0 (init, no loop)
//	1,2 = loop 7 iter 0;  3,4 = loop 7 iter 1;  5 = join
func buildViewGraph(t *testing.T) *Graph {
	t.Helper()
	var root *Scope
	s0 := root.Enter(7, 0)
	s1 := s0.NextIter()
	fb := NewFrozenBuilder(6, 10)
	fb.AddNode(mir.OpSub, fb.PosID(mir.Pos{File: "v.c", Line: 1}), 0, fb.ScopeID(nil))
	fb.AddNode(mir.OpFAdd, fb.PosID(mir.Pos{File: "v.c", Line: 2}), 1, fb.ScopeID(s0), 0)
	fb.AddNode(mir.OpFMul, fb.PosID(mir.Pos{File: "v.c", Line: 3}), 1, fb.ScopeID(s0), 1)
	fb.AddNode(mir.OpFAdd, fb.PosID(mir.Pos{File: "v.c", Line: 2}), 2, fb.ScopeID(s1), 0)
	fb.AddNode(mir.OpFMul, fb.PosID(mir.Pos{File: "v.c", Line: 3}), 2, fb.ScopeID(s1), 3)
	fb.AddNode(mir.OpFAdd, fb.PosID(mir.Pos{File: "v.c", Line: 4}), 0, fb.ScopeID(nil), 2, 4)
	g, err := fb.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return g
}

// viewSig renders everything a matcher can observe of the member set of
// sv through g: node attributes, member arcs and the derived analyses
// with the members as the ambient.
func viewSig(g *Graph, sv *SubView) string {
	members := sv.Nodes()
	member := func(nodes []NodeID) []NodeID {
		var out []NodeID
		for _, v := range nodes {
			if sv.Contains(v) {
				out = append(out, v)
			}
		}
		return out
	}
	s := fmt.Sprintf("len=%d numNodes=%d numArcs=%d fp=%v\n", sv.Len(), g.NumNodes(), g.NumArcs(), g.Fingerprint())
	for _, u := range members {
		key, inLoop := g.IterationOf(u, 7)
		ixOrd := int32(-1)
		if ix := g.LoopIterIndex(7); ix != nil {
			if o, ok := ix.OrdinalOf(u); ok {
				ixOrd = o
			}
		}
		s += fmt.Sprintf("%d op=%v pos=%s:%d thread=%d scope=%s iter=%v/%t ord=%d succ=%v pred=%v\n",
			u, g.Op(u), g.Pos(u).File, g.Pos(u).Line, g.Thread(u), g.ScopeOf(u).String(),
			key, inLoop, ixOrd, member(g.Succs(u)), member(g.Preds(u)))
	}
	loop := NewSet(1, 2, 3, 4).Intersect(members)
	s += fmt.Sprintf("convex=%t reach05=%t reach15=%t wcc=%v wc=%t wci=%t\n",
		g.Convex(loop, members), g.Reaches(0, 5), g.Reaches(1, 5),
		g.WeaklyConnectedComponents(members), g.WeaklyConnected(loop), g.WeaklyConnectedWithInputs(loop))
	a, b := NewSet(1, 2).Intersect(members), NewSet(3, 4, 5).Intersect(members)
	s += fmt.Sprintf("arcs=%v extIn=%t extOut=%t flows=%t label=%q opset=%q subset=%t",
		g.ArcsBetween(a, b), g.HasExternalIn(a, members), g.HasExternalOut(a, members), g.FlowsInto(a, NewSet(5)),
		g.LabelKey(loop), g.OpSetKey(loop), g.OpSetSubset(a, loop))
	if op, ok := g.AllAssociative(NewSet(1, 3, 5).Intersect(members)); ok {
		s += fmt.Sprintf(" assoc=%v", op)
	}
	return s
}

func TestGraphViewOverSpilledBase(t *testing.T) {
	subsets := []Set{
		NewSet(0, 1, 2, 3, 4, 5),
		NewSet(1, 2, 3, 4),
		NewSet(0, 5),
	}
	resident := buildViewGraph(t)
	spilled := buildViewGraph(t)
	if err := spilled.SpillArcs(SpillConfig{Dir: t.TempDir(), Budget: 8, SegmentBytes: 8}); err != nil {
		t.Fatalf("SpillArcs: %v", err)
	}
	defer spilled.CloseSpill()
	for i, nodes := range subsets {
		got, want := viewSig(spilled, spilled.Overlay(nodes)), viewSig(resident, resident.Overlay(nodes))
		if got != want {
			t.Fatalf("subset %d: the spilled graph diverged:\ngot:\n%s\nwant:\n%s", i, got, want)
		}
	}
}
