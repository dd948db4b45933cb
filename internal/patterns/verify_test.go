package patterns

// Negative-path tests for the definitional verifiers: each §4 constraint,
// when violated, is reported with a pinpointed error.

import (
	"strings"
	"testing"

	"discovery/internal/ddg"
	"discovery/internal/mir"
)

func expectVerifyError(t *testing.T, err error, want string) {
	t.Helper()
	if err == nil {
		t.Fatalf("verification passed, want error containing %q", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error = %v, want containing %q", err, want)
	}
}

func TestVerifyPatternRejectsOverlap(t *testing.T) {
	g, _ := buildMapDDG(2)
	p := []ddg.Set{ddg.NewSet(1, 2), ddg.NewSet(2, 5)}
	expectVerifyError(t, VerifyPattern(g, p), "share nodes")
}

func TestVerifyPatternRejectsNonConvex(t *testing.T) {
	g, _ := buildChainDDG(4)
	// First and last chain nodes without the middle: the interior path
	// leaves and re-enters.
	adds := opNodesOf(g, mir.OpFAdd)
	p := []ddg.Set{ddg.NewSet(adds[0]), ddg.NewSet(adds[3])}
	expectVerifyError(t, VerifyPattern(g, p), "not convex")
}

func TestVerifyMapRejectsArcsBetweenComponents(t *testing.T) {
	g, _ := buildChainDDG(3)
	adds := opNodesOf(g, mir.OpFAdd)
	p := &Pattern{Kind: KindMap, NumFull: 3,
		Comps: []ddg.Set{ddg.NewSet(adds[0]), ddg.NewSet(adds[1]), ddg.NewSet(adds[2])}}
	err := VerifyMap(g, p)
	if err == nil {
		t.Fatal("chained components accepted as map")
	}
}

func TestVerifyMapRejectsMissingIO(t *testing.T) {
	// Two isolated same-op nodes: no inputs, no outputs.
	b := newGB()
	n1 := b.node(mir.OpFMul, 0)
	n2 := b.node(mir.OpFMul, 1)
	p := &Pattern{Kind: KindMap, NumFull: 2,
		Comps: []ddg.Set{ddg.NewSet(n1), ddg.NewSet(n2)}}
	expectVerifyError(t, VerifyMap(b.graph(), p), "no input")
}

func TestVerifyLinearReductionRejectsNonAssociative(t *testing.T) {
	b := newGB()
	e1 := b.node(mir.OpI2F, -1)
	s1 := b.node(mir.OpFSub, 0, e1)
	e2 := b.node(mir.OpI2F, -1)
	s2 := b.node(mir.OpFSub, 1, e2, s1)
	b.node(mir.OpFloor, -1, s2)
	p := &Pattern{Kind: KindLinearReduction, Op: mir.OpFSub,
		Comps: []ddg.Set{ddg.NewSet(s1), ddg.NewSet(s2)}}
	expectVerifyError(t, VerifyLinearReduction(b.graph(), p), "associative")
}

func TestVerifyLinearReductionRejectsWrongOrder(t *testing.T) {
	g, adds := buildChainDDG(3)
	// Reversed chain order: component 0 must reach component 1.
	p := &Pattern{Kind: KindLinearReduction, Op: mir.OpFAdd,
		Comps: []ddg.Set{ddg.NewSet(adds[2]), ddg.NewSet(adds[1]), ddg.NewSet(adds[0])}}
	err := VerifyLinearReduction(g, p)
	if err == nil {
		t.Fatal("reversed chain accepted")
	}
}

func TestVerifyTiledReductionRejectsBrokenChanneling(t *testing.T) {
	g, all := buildTiledDDG(2, 2)
	v := NodeView(g, all)
	p := MatchTiledReduction(v)
	if p == nil {
		t.Fatal("tiled reduction not matched")
	}
	// Swap the final components: partial k no longer feeds final k.
	swapped := &Pattern{
		Kind:     KindTiledReduction,
		Op:       p.Op,
		Partials: p.Partials,
		Final:    []ddg.Set{p.Final[1], p.Final[0]},
	}
	if err := VerifyTiledReduction(g, swapped); err == nil {
		t.Error("swapped final chain accepted")
	}

	// Empty partials of equal length are rejected by (4a), not indexed by
	// (4d).
	g, adds := buildChainDDG(3)
	empty := &Pattern{
		Kind:     KindTiledReduction,
		Op:       mir.OpFAdd,
		Partials: [][]ddg.Set{{}, {}},
		Final:    []ddg.Set{ddg.NewSet(adds[0]), ddg.NewSet(adds[1])},
	}
	expectVerifyError(t, Verify(g, empty), "partial reductions are empty")
}

func TestVerifyMapReductionRejectsBrokenInterface(t *testing.T) {
	g, m, r := buildLinearMapReduction(3)
	p := &Pattern{Kind: KindLinearMapReduction, MapPart: m, RedPart: r, Op: mir.OpFAdd}
	if err := VerifyMapReduction(g, p); err != nil {
		t.Fatalf("valid map-reduction rejected: %v", err)
	}
	// Add an escaping use of a map component's value.
	g = extend(g, [][2]ddg.NodeID{{m.Comps[0][0], ddg.NodeID(g.NumNodes())}}, mir.OpFloor)
	expectVerifyError(t, VerifyMapReduction(g, p), "exactly one")
}

func TestVerifyRejectsWrongKinds(t *testing.T) {
	g, _ := buildMapDDG(2)
	if err := VerifyLinearReduction(g, &Pattern{Kind: KindMap}); err == nil {
		t.Error("map accepted by reduction verifier")
	}
	if err := VerifyMap(g, &Pattern{Kind: KindLinearReduction}); err == nil {
		t.Error("reduction accepted by map verifier")
	}
	if err := Verify(g, &Pattern{Kind: Kind(250)}); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestVerifyTreeReductionNegative(t *testing.T) {
	g, adds := buildChainDDG(3)
	// A chain is a degenerate tree and passes; a DAG with a reused value
	// must not.
	p := &Pattern{Kind: KindTreeReduction, Op: mir.OpFAdd,
		Comps: []ddg.Set{ddg.NewSet(adds[0]), ddg.NewSet(adds[1]), ddg.NewSet(adds[2])}}
	if err := VerifyTreeReduction(g, p); err != nil {
		t.Errorf("chain rejected as tree: %v", err)
	}
	g = extend(g, [][2]ddg.NodeID{{adds[0], adds[2]}}) // value reused by two tree nodes
	if err := VerifyTreeReduction(g, p); err == nil {
		t.Error("reused value accepted in tree")
	}
}

// opNodesOf collects the nodes executing op.
func opNodesOf(g *ddg.Graph, op mir.Op) []ddg.NodeID {
	var out []ddg.NodeID
	for i := 0; i < g.NumNodes(); i++ {
		if g.Op(ddg.NodeID(i)) == op {
			out = append(out, ddg.NodeID(i))
		}
	}
	return out
}
