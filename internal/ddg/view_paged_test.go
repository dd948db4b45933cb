package ddg

// SubView over a spilled base graph. The tentpole claim of the paged CSR
// is that everything above the GraphView surface runs unmodified; this
// suite pins it inside the package by running every SubView delegate and
// derived analysis twice — once over a resident base, once over a spilled
// clone — and requiring identical answers.

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

// viewSig renders everything a matcher can observe through a SubView.
func viewSig(sv *SubView) string {
	members := sv.Nodes()
	s := fmt.Sprintf("len=%d numNodes=%d numArcs=%d fp=%v\n", sv.Len(), sv.NumNodes(), sv.NumArcs(), sv.Fingerprint())
	for _, u := range members {
		key, inLoop := sv.IterationOf(u, 7)
		ixOrd := int32(-1)
		if ix := sv.LoopIterIndex(7); ix != nil {
			if o, ok := ix.OrdinalOf(u); ok {
				ixOrd = o
			}
		}
		s += fmt.Sprintf("%d op=%v pos=%s:%d thread=%d scope=%s iter=%v/%t ord=%d succ=%v pred=%v\n",
			u, sv.Op(u), sv.Pos(u).File, sv.Pos(u).Line, sv.Thread(u), sv.ScopeOf(u).String(),
			key, inLoop, ixOrd, sv.Succs(u), sv.Preds(u))
	}
	loop := NewSet(1, 2, 3, 4)
	s += fmt.Sprintf("convex=%t reach05=%t reach15=%t wcc=%v wc=%t wci=%t\n",
		sv.Convex(loop, nil), sv.Reaches(0, 5), sv.Reaches(1, 5),
		sv.WeaklyConnectedComponents(members), sv.WeaklyConnected(loop), sv.WeaklyConnectedWithInputs(loop))
	a, b := NewSet(1, 2), NewSet(3, 4, 5)
	s += fmt.Sprintf("arcs=%v extIn=%t extOut=%t flows=%t label=%q opset=%q subset=%t",
		sv.ArcsBetween(a, b), sv.HasExternalIn(a, nil), sv.HasExternalOut(a, nil), sv.FlowsInto(a, NewSet(5)),
		sv.LabelKey(loop), sv.OpSetKey(loop), sv.OpSetSubset(a, loop))
	if op, ok := sv.AllAssociative(NewSet(1, 3, 5)); ok {
		s += fmt.Sprintf(" assoc=%v", op)
	}
	return s
}

func TestSubViewOverSpilledBase(t *testing.T) {
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
		rv := resident.Overlay(nodes)
		pv := spilled.Overlay(nodes)
		if got, want := viewSig(pv), viewSig(rv); got != want {
			t.Fatalf("subset %d: SubView over the spilled base diverged:\ngot:\n%s\nwant:\n%s", i, got, want)
		}
		if pv.Base() != spilled {
			t.Fatalf("subset %d: Base() lost the spilled graph", i)
		}
		// A nested overlay intersects and still pages correctly.
		inner := pv.Overlay(NewSet(1, 2, 5))
		innerWant := rv.Overlay(NewSet(1, 2, 5))
		if viewSig(inner) != viewSig(innerWant) {
			t.Fatalf("subset %d: nested overlay diverged", i)
		}
	}
}
