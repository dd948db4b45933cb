package patterns

// Prescreen census and verdict tests. The contract under test is one-sided
// soundness: CannotMatch(kind) must imply the kind's matcher returns nil
// on the corresponding view. The census is also checked field-by-field on
// the canonical shapes, and — the sharp edge — each canonical shape must
// NOT be prescreened away for its own kind (a false CannotMatch on a real
// pattern would silently lose it, which is exactly what the differential
// suite in core guards end to end).

import (
	"fmt"
	"testing"

	"discovery/internal/ddg"
	"discovery/internal/mir"
)

// screenKinds are the kinds the prescreen reasons about, in slot order.
var screenKinds = []Kind{KindMap, KindLinearReduction, KindTiledReduction, KindTreeReduction}

// runMatcherOn invokes kind's matcher on the view with no budget.
func runMatcherOn(v *View, k Kind) *Pattern {
	switch k {
	case KindMap:
		return MatchMap(v)
	case KindLinearReduction:
		return MatchLinearReduction(v)
	case KindTiledReduction:
		return MatchTiledReduction(v)
	default:
		return MatchTreeReduction(v)
	}
}

// checkSound fails if any CannotMatch verdict contradicts the matcher on
// the node view or the loop-1 view of the set, or if the node-level census
// disagrees with the view's group-level census: on the node view the two
// must be equal field for field, and on the loop view they must agree on
// whether an arc crosses groups, and every kind the node level refutes
// must also be refuted at group level.
func checkSound(t *testing.T, g *ddg.Graph, nodes ddg.Set) {
	t.Helper()
	for _, loop := range []mir.LoopID{0, 1} {
		p := PrescreenSub(g, g.Overlay(nodes), loop)
		var v *View
		if loop == 0 {
			v = NodeView(g, nodes)
		} else {
			v = LoopView(g, nodes, loop)
		}
		for _, k := range screenKinds {
			if !p.CannotMatch(k) {
				continue
			}
			if got := runMatcherOn(v, k); got != nil {
				t.Errorf("loop=%d: prescreen says cannot match %v, but the matcher found %v",
					loop, k, got.Kind)
			}
		}
		v.ensure()
		if loop == 0 && *p != v.census {
			t.Errorf("node view: node-level census %+v, group-level census %+v", *p, v.census)
		}
		if loop != 0 && p.InterGroup != v.census.InterGroup {
			t.Errorf("loop view: node-level census says an arc crosses groups: %v, group-level census: %v",
				p.InterGroup, v.census.InterGroup)
		}
		if extra := p.cannot &^ v.census.cannot; loop != 0 && extra != 0 {
			t.Errorf("loop view: node-level census refutes kind bits %04b, group-level census does not", extra)
		}
	}
}

func TestPrescreenCensusOnMap(t *testing.T) {
	g, nodes := buildMapDDG(4)
	p := PrescreenSub(g, g.Overlay(nodes), 1)
	if !p.CompactedLoop {
		t.Errorf("loop view not marked compacted")
	}
	if p.NumNodes != 8 || p.InterGroup {
		t.Errorf("census: nodes=%d intergroup=%v, want 8 members with no cross-iteration arc",
			p.NumNodes, p.InterGroup)
	}
	if p.ExtIn == 0 || p.ExtOut == 0 {
		t.Errorf("census: extIn=%d extOut=%d, want both positive", p.ExtIn, p.ExtOut)
	}
	// The map must survive its own prescreen; the reductions must not
	// (fsub/fmul is not one associative op).
	if p.CannotMatch(KindMap) {
		t.Errorf("prescreen rejects the canonical map")
	}
	for _, k := range []Kind{KindLinearReduction, KindTiledReduction, KindTreeReduction} {
		if !p.CannotMatch(k) {
			t.Errorf("mixed-op view not prescreened for %v", k)
		}
	}
	checkSound(t, g, nodes)
}

func TestPrescreenCensusOnChain(t *testing.T) {
	g, nodes := buildChainDDG(6)
	p := PrescreenSub(g, g.Overlay(nodes), 0)
	if p.Arcs != 5 || p.MaxIn != 1 || p.MaxOut != 1 || p.Sources != 1 || p.Sinks != 1 {
		t.Errorf("chain census: arcs=%d maxIn=%d maxOut=%d sources=%d sinks=%d",
			p.Arcs, p.MaxIn, p.MaxOut, p.Sources, p.Sinks)
	}
	if !p.AllAssocOneOp {
		t.Errorf("fadd chain not recognized as one associative op")
	}
	if p.CannotMatch(KindLinearReduction) {
		t.Errorf("prescreen rejects the canonical linear reduction")
	}
	if !p.CannotMatch(KindMap) {
		t.Errorf("a connected chain can never be a map; prescreen missed it")
	}
	checkSound(t, g, nodes)
}

func TestPrescreenCensusOnTiled(t *testing.T) {
	g, nodes := buildTiledDDG(3, 4)
	p := PrescreenSub(g, g.Overlay(nodes), 0)
	if p.CannotMatch(KindTiledReduction) {
		t.Errorf("prescreen rejects the canonical tiled reduction")
	}
	if p.Junctions == 0 {
		t.Errorf("tiled census found no junctions; final-chain joins missed")
	}
	checkSound(t, g, nodes)
}

func TestPrescreenParallelArcsDeduplicated(t *testing.T) {
	// u feeds w through both operands: two arcs in the DDG, one
	// group-level arc for the matchers — the census must count one.
	b := newGB()
	src := b.node(mir.OpI2F, -1)
	u := b.node(mir.OpFAdd, 0, src)
	w := b.node(mir.OpFAdd, 1, u, u)
	b.node(mir.OpFloor, -1, w)
	nodes := ddg.NewSet(u, w)
	p := PrescreenSub(b.graph(), b.graph().Overlay(nodes), 0)
	if p.Arcs != 1 {
		t.Errorf("parallel arcs counted as %d, want 1", p.Arcs)
	}
	if p.CannotMatch(KindLinearReduction) {
		t.Errorf("two-node fadd chain prescreened away")
	}
	checkSound(t, b.graph(), nodes)
}

func TestGateDecidesShapeBeforeAdjacency(t *testing.T) {
	// Every group of this compacted loop view holds two nodes, so (3b)
	// refutes each reduction kind from the groups and ops alone: the
	// matcher's gate must answer without building the view's adjacency.
	g, nodes := buildMapDDG(4)
	for _, k := range []Kind{KindLinearReduction, KindTiledReduction, KindTreeReduction} {
		v := LoopView(g, nodes, 1)
		if got := runMatcherOn(v, k); got != nil {
			t.Errorf("%v matched a view of two-node groups: %v", k, got)
		}
		if v.arcs != nil {
			t.Errorf("%v: the gate built the view's adjacency for a shape-refuted view", k)
		}
	}
}

// TestPrescreenLoopCensusReenteredLoop screens loop views of a recursive
// loop: loop 1 is entered again inside its own iterations, so a node's
// scope chain holds two frames of it, and the inner frame is the node's
// group. The census compares iteration ordinals, which must group by that
// inner frame as the scope chains do: an arc from an outer iteration into
// a loop it re-entered crosses groups, though both ends share the outer
// frame, and an arc inside one inner iteration does not.
func TestPrescreenLoopCensusReenteredLoop(t *testing.T) {
	outer := []*ddg.Scope{{Loop: 1, Invocation: 1, Iter: 0}, {Loop: 1, Invocation: 1, Iter: 1}}
	inner := []*ddg.Scope{
		{Parent: outer[0], Loop: 1, Invocation: 2, Iter: 0},
		{Parent: outer[1], Loop: 1, Invocation: 3, Iter: 0},
	}
	for _, tc := range []struct {
		name  string
		cross bool // whether the member arc leaves the outer iteration's own frame
	}{
		{"outer into re-entered", true},
		{"within re-entered", false},
	} {
		b := newGB()
		var members []ddg.NodeID
		for i := range outer {
			src := b.node(mir.OpI2F, -1)
			head := b.nodeIn(mir.OpFSub, inner[i], src)
			if tc.cross {
				head = b.nodeIn(mir.OpFSub, outer[i], src)
			}
			body := b.nodeIn(mir.OpFMul, inner[i], head)
			b.node(mir.OpFloor, -1, body)
			members = append(members, head, body)
		}
		g, nodes := b.graph(), ddg.NewSet(members...)
		p := PrescreenSub(g, g.Overlay(nodes), 1)
		if p.InterGroup != tc.cross {
			t.Errorf("%s: census InterGroup %v, want %v", tc.name, p.InterGroup, tc.cross)
		}
		if got := LoopView(g, nodes, 1).NumGroups(); tc.cross && got != 4 || !tc.cross && got != 2 {
			t.Errorf("%s: loop view has %d groups", tc.name, got)
		}
		checkSound(t, g, nodes)
	}
}

func TestPrescreenNilIsMaybe(t *testing.T) {
	var p *Prescreen
	for _, k := range screenKinds {
		if p.CannotMatch(k) {
			t.Errorf("nil prescreen claims cannot-match for %v", k)
		}
	}
}

// genScreenGraph builds a deterministic graph + member set from fuzz
// bytes: a DAG over up to 24 members with data-driven ops, arcs,
// iteration scopes, and external producers/consumers. Always valid, never
// panics; the interesting structure (chains, joins, isolated nodes,
// mixed ops) all arise for some byte string.
func genScreenGraph(data []byte) (*ddg.Graph, ddg.Set) {
	at := func(i int) int {
		if len(data) == 0 {
			return 0
		}
		return int(data[i%len(data)])
	}
	n := 2 + at(0)%23
	ops := []mir.Op{mir.OpFAdd, mir.OpFMul, mir.OpAdd, mir.OpFSub, mir.OpFMax, mir.OpFDiv}
	b := newGB()
	members := make([]ddg.NodeID, n)
	cursor := 1
	next := func() int { v := at(cursor); cursor++; return v }
	for i := 0; i < n; i++ {
		op := ops[next()%len(ops)]
		iter := int64(-1)
		if next()%4 != 0 {
			iter = int64(next() % 5) // small iteration classes force sharing
		}
		var preds []ddg.NodeID
		if next()%3 == 0 {
			preds = append(preds, b.node(mir.OpI2F, -1)) // external producer
		}
		for _, m := range members[:i] {
			switch next() % 8 {
			case 0:
				preds = append(preds, m)
			case 1:
				preds = append(preds, m, m) // parallel arc
			}
		}
		members[i] = b.node(op, iter, preds...)
	}
	for i := 0; i < n; i++ {
		if next()%3 == 0 {
			b.node(mir.OpFloor, -1, members[i]) // external consumer
		}
	}
	return b.graph(), ddg.NewSet(members...)
}

// FuzzPrescreen fuzzes the one-sided soundness property: on arbitrary
// generated views, every CannotMatch verdict must agree with the matcher.
func FuzzPrescreen(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 1, 2, 3})
	f.Add([]byte{24, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{200, 9, 33, 1, 77, 5, 0, 8, 14, 3, 91, 2})
	f.Add([]byte{16, 255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, nodes := genScreenGraph(data)
		checkSound(t, g, nodes)
	})
}

// censusSig renders every count of a census, histograms without their
// trailing zeros and ops without their empty entries, so that a census
// derived by Without and a fresh one compare field by field.
func censusSig(c *Census) string {
	trim := func(h []int32) []int32 {
		for len(h) > 0 && h[len(h)-1] == 0 {
			h = h[:len(h)-1]
		}
		return h
	}
	ops := map[mir.Op]int32{}
	for _, e := range c.ops {
		if e.n != 0 {
			ops[e.op] = e.n
		}
	}
	return fmt.Sprint(c.loop, c.extIn, c.extOut, c.isolated, c.crossing, trim(c.inDeg), trim(c.outDeg), ops)
}

// checkDelta fails unless, for the node view and the loop-1 view, the
// census Without derives for nodes \ removed from the census of nodes
// equals a fresh census of nodes \ removed, in every count and verdict.
func checkDelta(t *testing.T, g *ddg.Graph, nodes, removed ddg.Set) {
	t.Helper()
	sub, rm := g.Overlay(nodes), g.Overlay(removed)
	diff := nodes.Diff(removed)
	for _, loop := range []mir.LoopID{0, 1} {
		got := NewCensus(g, sub, loop).Without(g, sub, rm)
		want := NewCensus(g, g.Overlay(diff), loop)
		if a, b := censusSig(got), censusSig(want); a != b {
			t.Fatalf("loop=%d: %v minus %v: derived census %s, fresh census %s", loop, nodes, removed, a, b)
		}
		if a, b := got.Prescreen(), want.Prescreen(); *a != *b {
			t.Fatalf("loop=%d: %v minus %v: derived prescreen %+v, fresh prescreen %+v", loop, nodes, removed, *a, *b)
		}
	}
}

// FuzzPrescreenDelta fuzzes Census.Without against a fresh census of the
// difference. The members of genScreenGraph's set whose bit is set in pick
// leave it; with outside, so does every node outside the set, as a
// matched sub-DDG reaching past the one it is subtracted from would. The
// seeds remove nothing, one node, fewer nodes than stay, more than stay,
// all but one node and every node.
func FuzzPrescreenDelta(f *testing.F) {
	long := []byte{24, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 0, 1, 0, 1, 0, 1}
	f.Add([]byte{}, uint32(0), false)
	f.Add([]byte{7, 1, 2, 3}, uint32(1), true)
	f.Add(long, uint32(0x000101), false)
	f.Add(long, uint32(0x0fff0f), true)
	f.Add(long, uint32(0xfffffe), false)
	f.Add(long, uint32(0xffffffff), true)
	f.Add([]byte{200, 9, 33, 1, 77, 5, 0, 8, 14, 3, 91, 2}, uint32(0x5a5a5a), false)
	f.Fuzz(func(t *testing.T, data []byte, pick uint32, outside bool) {
		g, nodes := genScreenGraph(data)
		var gone []ddg.NodeID
		for i, u := range nodes {
			if pick>>(i%32)&1 != 0 {
				gone = append(gone, u)
			}
		}
		if outside {
			for u := 0; u < g.NumNodes(); u++ {
				if !nodes.Contains(ddg.NodeID(u)) {
					gone = append(gone, ddg.NodeID(u))
				}
			}
		}
		checkDelta(t, g, nodes, ddg.NewSet(gone...))
	})
}

// TestPrescreenDeltaShapes derives the censuses of canonical shapes with
// members removed: a chain cut in the middle (its junction-free halves), a
// tiled reduction losing its final chain, and a map losing one iteration.
func TestPrescreenDeltaShapes(t *testing.T) {
	chain, cn := buildChainDDG(6)
	checkDelta(t, chain, cn, ddg.NewSet(cn[2]))
	checkDelta(t, chain, cn, ddg.NewSet(cn[0], cn[5]))
	tiled, tn := buildTiledDDG(3, 4)
	checkDelta(t, tiled, tn, tn[len(tn)-3:])
	m, mn := buildMapDDG(4)
	checkDelta(t, m, mn, mn[:2])
	checkDelta(t, m, mn, mn)
}
