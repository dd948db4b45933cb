package ddg

import (
	"errors"
	"strings"
	"testing"

	"discovery/internal/analysis"
	"discovery/internal/mir"
)

// chainGraph builds 0 -> 1 -> 2 -> 3 with an extra arc 0 -> 3.
func chainGraph() *Graph {
	return arcGraph(sameOps(mir.OpAdd, 4), nil,
		[2]NodeID{0, 1}, [2]NodeID{1, 2}, [2]NodeID{2, 3}, [2]NodeID{0, 3})
}

// cyclicGraph builds the chain 0 -> 1 -> 2 -> 3, then swaps the targets
// of its arcs 0->1 and 2->3 on both CSR sides, leaving 0->3, 1->2 and the
// backward arc 2->1 that closes a cycle. Every node keeps its degrees and
// the two sides stay symmetric, so only the topological-id ordering is
// broken — a graph no FrozenBuilder can produce.
func cyclicGraph() *Graph {
	g := arcGraph(sameOps(mir.OpFAdd, 4), nil, [2]NodeID{0, 1}, [2]NodeID{1, 2}, [2]NodeID{2, 3})
	g.succArr[g.succOff[0]], g.succArr[g.succOff[2]] = 3, 1
	g.predArr[g.predOff[1]], g.predArr[g.predOff[3]] = 2, 0
	return g
}

func TestCheckInvariantsCleanGraph(t *testing.T) {
	if err := chainGraph().CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestCheckInvariantsRejectsCycle: the topological-id check alone rejects
// a cycle, so no separate acyclicity pass is needed.
func TestCheckInvariantsRejectsCycle(t *testing.T) {
	err := cyclicGraph().CheckInvariants()
	if !errors.Is(err, analysis.ErrInvariantViolation) {
		t.Fatalf("cyclic graph: err = %v, want an invariant violation", err)
	}
	if !strings.Contains(err.Error(), "topological-id ordering") {
		t.Errorf("violation does not name the topological-id ordering: %v", err)
	}
}

func TestCheckInvariantsFrozenBuilderGraph(t *testing.T) {
	fb := NewFrozenBuilder(3, 4)
	a := fb.AddNode(mir.OpAdd, fb.PosID(mir.Pos{}), 0, fb.ScopeID(nil))
	b := fb.AddNode(mir.OpMul, fb.PosID(mir.Pos{}), 0, fb.ScopeID(nil), a)
	fb.AddNode(mir.OpFAdd, fb.PosID(mir.Pos{}), 1, fb.ScopeID(nil), a, b, NoNode, a) // NoNode and dup dropped
	g, err := fb.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if g.NumArcs() != 3 {
		t.Errorf("arcs = %d, want 3", g.NumArcs())
	}
}

func TestFrozenBuilderRejectsBackwardArc(t *testing.T) {
	fb := NewFrozenBuilder(2, 2)
	fb.AddNode(mir.OpAdd, fb.PosID(mir.Pos{}), 0, fb.ScopeID(nil), 5) // pred 5 does not exist yet
	fb.AddNode(mir.OpMul, fb.PosID(mir.Pos{}), 0, fb.ScopeID(nil))
	g, err := fb.Finish()
	if err == nil {
		t.Fatal("Finish accepted a forward-referencing pred")
	}
	if g != nil {
		t.Error("Finish returned a graph alongside the error")
	}
	if !errors.Is(err, analysis.ErrInvariantViolation) {
		t.Errorf("error kind = %v, want invariant violation", err)
	}
	if !strings.Contains(err.Error(), "does not precede") {
		t.Errorf("error lacks context: %v", err)
	}
}

func TestCheckInvariantsDetectsAsymmetry(t *testing.T) {
	g := chainGraph()
	// Corrupt the frozen pred array: retarget an arc on the pred side only.
	g.predArr[0] = 2 // node 1's pred becomes 2 (also backwards: 2 > 1)
	if err := g.CheckInvariants(); err == nil {
		t.Error("corrupted CSR passed invariant checking")
	}
}

func TestCheckInvariantsDetectsDuplicateArc(t *testing.T) {
	g := chainGraph()
	// Make node 3's preds [2, 2] instead of [2, 0] — a dedup violation
	// that keeps the arc count consistent on the pred side.
	for i := g.predOff[3]; i < g.predOff[4]; i++ {
		g.predArr[i] = 2
	}
	if err := g.CheckInvariants(); err == nil {
		t.Error("duplicate arc passed invariant checking")
	}
}

func TestFrozenBuilderRejectsUnknownTableID(t *testing.T) {
	fb := NewFrozenBuilder(2, 0)
	fb.AddNode(mir.OpAdd, fb.PosID(mir.Pos{}), 0, fb.ScopeID(nil))
	fb.AddNode(mir.OpMul, 7, 0, 0) // no position 7 was interned
	g, err := fb.Finish()
	if g != nil || !errors.Is(err, analysis.ErrInvariantViolation) {
		t.Fatalf("Finish = %v, %v; want an invariant violation", g, err)
	}
	if !strings.Contains(err.Error(), "position 7 of 1") {
		t.Errorf("error lacks context: %v", err)
	}
}

func TestCheckInvariantsDetectsBadTableID(t *testing.T) {
	for _, corrupt := range []func(g *Graph){
		func(g *Graph) { g.pos[2] = uint32(len(g.tab.pos)) },
		func(g *Graph) { g.scope[1] = uint32(len(g.tab.scopes)) },
	} {
		g := chainGraph()
		corrupt(g)
		err := g.CheckInvariants()
		if !errors.Is(err, analysis.ErrInvariantViolation) || !strings.Contains(err.Error(), "names position") {
			t.Errorf("out-of-table id: err = %v, want an invariant violation naming the ids", err)
		}
	}
}

// TestCheckInvariantsDetectsStaleSegmentLookup: a spilled graph whose
// lookup bucket names the wrong segment fails the pager audit, even when
// the bucket names an earlier segment, which segOf would step past.
func TestCheckInvariantsDetectsStaleSegmentLookup(t *testing.T) {
	for _, later := range []bool{true, false} {
		g := buildRandomCSR(t, 13, 200, 4)
		if err := g.SpillArcs(SpillConfig{Dir: t.TempDir(), Budget: 256, SegmentBytes: 64}); err != nil {
			t.Fatalf("SpillArcs: %v", err)
		}
		defer g.CloseSpill()
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("fresh spilled graph fails invariants: %v", err)
		}
		tab := &g.pager.pred
		if later {
			tab.bucket[0]++
		} else {
			tab.bucket[len(tab.bucket)-1]--
		}
		err := g.CheckInvariants()
		if !errors.Is(err, analysis.ErrInvariantViolation) || !strings.Contains(err.Error(), "lookup bucket") {
			t.Errorf("later=%t: stale lookup table passed invariants: %v", later, err)
		}
	}
}
