package patterns

// Structural prescreen: the one home of the paper's per-kind structural
// rules (map 2b–2d, linear reduction 3b–3f, tiled reduction 4a–4e, and the
// tree extension's shape), written once in verdicts and fed by two
// censuses of the same facts. Telegin et al. (PAPERS.md) show cheap
// graph-label censuses answer parallelizability questions without search.
//
//   - PrescreenSub counts them at node level in one pass over the overlay,
//     before any view is built. For a node view that census is exact; for
//     a compacted loop view the groups are unknown, so only the size, op
//     and boundary rules that hold under any grouping apply.
//   - View.build counts them at group level from the adjacency it derives
//     anyway. That census is exact, and View.CannotMatch — every matcher's
//     first statement — is the matchers' only structural gate.
//
// A CannotMatch verdict is therefore sound by construction (the matcher
// would return nil at its gate) and never suppresses a matcher run past
// that gate, which keeps outputs, including the per-kind matcher-run
// accounting, identical with the prescreen on or off. The node-level
// payoff is one O(nodes + arcs) pass instead of the grouping build (maps
// and sorts for compacted loop views) and the label construction. When the
// finder is given a view cache (Options.Cache), a sub-DDG whose outcome is
// stored there runs no census at all.

import (
	"slices"

	"discovery/internal/ddg"
	"discovery/internal/mir"
)

// Prescreen is the structural census of one view, with per-kind
// CannotMatch verdicts derived from it. PrescreenSub's census counts
// nodes; a view's own census (View.build) counts groups, and "member"
// below then reads "group". A nil *Prescreen is valid and means "not
// screened" (every kind Maybe).
type Prescreen struct {
	// NumNodes and Arcs count the members and the distinct member-to-member
	// arcs (node level, parallel arcs deduplicated).
	NumNodes int
	Arcs     int
	// ExtIn and ExtOut count members with at least one external
	// predecessor / successor (the boundary census).
	ExtIn, ExtOut int
	// MaxIn/MaxOut are the largest in-view node degrees; Sources and Sinks
	// count in-view degree-zero members; Junctions counts members with
	// in-view in-degree exactly two (the tiled reduction's final-chain
	// joins). For a node view the two censuses agree field for field.
	MaxIn, MaxOut  int
	Sources, Sinks int
	Junctions      int
	// Isolated counts members with neither an external nor an in-view
	// predecessor (a linear reduction's (3e) violation).
	Isolated int
	// AllAssocOneOp reports that every member is one node of one common
	// associative operation — necessary for every reduction kind under the
	// paper's 3b under-approximation.
	AllAssocOneOp bool
	// InterGroup reports an arc between members of different groups. For
	// compacted loop views this is the loop-carried dependence bit (an arc
	// crossing (invocation, iteration) classes); it refutes the map kinds'
	// component-independence constraint (2b) without building the grouping.
	InterGroup bool
	// CompactedLoop marks a node-level census of a compacted loop view,
	// where groups are unknown and only the grouping-insensitive rules
	// apply.
	CompactedLoop bool

	cannot uint32
}

// prescreenBit maps a pattern kind to its verdict bit; kinds the prescreen
// does not reason about get no bit and are always Maybe.
func prescreenBit(k Kind) uint32 {
	switch k {
	case KindMap, KindConditionalMap:
		return 1
	case KindLinearReduction:
		return 2
	case KindTiledReduction:
		return 4
	case KindTreeReduction:
		return 8
	}
	return 0
}

// CannotMatch reports that the census proves the view cannot match kind:
// the kind's matcher is guaranteed to return nil, and would have decided so
// at its gate. False means Maybe, never "match".
func (p *Prescreen) CannotMatch(k Kind) bool {
	if p == nil {
		return false
	}
	return p.cannot&prescreenBit(k) != 0
}

// PrescreenSub runs the census for the view of a node set under the
// grouping provenance loop (zero = node-per-node), in one pass over sub,
// the set's overlay on g (g.Overlay(nodes)). The finder builds that
// overlay once per sub-DDG and hands the same one to the view
// (View.SetOverlay). Cost is O(members + member arcs); nothing of the
// grouping, labels, or reachability structure is built.
func PrescreenSub(g ddg.GraphView, sub *ddg.SubView, loop mir.LoopID) *Prescreen {
	nodes := sub.Nodes()
	p := &Prescreen{
		NumNodes:      nodes.Len(),
		CompactedLoop: loop != 0,
		AllAssocOneOp: true,
	}
	// A compacted loop view groups by iteration ordinal: equal ordinals
	// are equal (invocation, iteration) keys.
	var iters *ddg.LoopIterIndex
	if p.CompactedLoop {
		iters = g.LoopIterIndex(loop)
	}
	var scratch []ddg.NodeID
	var firstOp mir.Op
	for i, u := range nodes {
		if p.AllAssocOneOp {
			op := g.Op(u)
			if i == 0 {
				firstOp = op
			}
			if !op.Associative() || op != firstOp {
				p.AllAssocOneOp = false
			}
		}
		// In-degree counts distinct member predecessors, as the view's
		// deduplicated group arcs do; a two-operand use lists its
		// predecessor twice.
		extIn, in := false, 0
		preds := g.Preds(u)
		for k, w := range preds {
			if !sub.Contains(w) {
				extIn = true
			} else if !slices.Contains(preds[:k], w) {
				in++
			}
		}
		if extIn {
			p.ExtIn++
		} else if in == 0 {
			p.Isolated++
		}
		p.MaxIn = max(p.MaxIn, in)
		switch in {
		case 0:
			p.Sources++
		case 2:
			p.Junctions++
		}
		// Distinct member successors, likewise.
		scratch = scratch[:0]
		extOut := false
		for _, w := range g.Succs(u) {
			if !sub.Contains(w) {
				extOut = true
			} else if !slices.Contains(scratch, w) {
				scratch = append(scratch, w)
			}
		}
		if extOut {
			p.ExtOut++
		}
		out := len(scratch)
		p.Arcs += out
		p.MaxOut = max(p.MaxOut, out)
		if out == 0 {
			p.Sinks++
		}
		if p.CompactedLoop && !p.InterGroup {
			ou, oku := iters.OrdinalOf(u)
			for _, w := range scratch {
				if ow, okw := iters.OrdinalOf(w); !oku || !okw || ou != ow {
					p.InterGroup = true
					break
				}
			}
		}
	}
	if !p.CompactedLoop && p.Arcs > 0 {
		p.InterGroup = true // node-per-node: any member arc crosses groups
	}
	p.verdicts()
	return p
}

// verdicts derives the per-kind CannotMatch bits from the census. A rule
// that fires proves the kind's matcher returns nil at its gate.
//
//   - An exact census (node view, or any view's group-level census) gets
//     the full rule set.
//   - A node-level census of a compacted loop view gets the rules that
//     hold under any grouping: node-count lower bounds (groups never
//     outnumber nodes), 3b (a multi-node group is no single op), a
//     loop-carried arc refuting map independence 2b, and no external
//     input or output anywhere refuting map 2c/2d and linear 3e.
func (p *Prescreen) verdicts() {
	p.cannot = shapeVerdicts(p.NumNodes, !p.CompactedLoop, p.AllAssocOneOp)
	if p.CompactedLoop {
		p.cannot |= bitIf(KindMap, p.InterGroup || p.ExtIn == 0 || p.ExtOut == 0) |
			bitIf(KindLinearReduction, p.ExtIn == 0)
		return
	}
	n, m := p.NumNodes, p.Junctions+1 // m: the tiled final chain's length
	p.cannot |= bitIf(KindMap, p.Arcs > 0 || p.ExtIn < n || p.ExtOut == 0) |
		bitIf(KindLinearReduction, p.Isolated > 0 || p.MaxOut > 1 || p.MaxIn > 1 ||
			p.Arcs != n-1 || p.Sources != 1) |
		bitIf(KindTiledReduction, p.MaxIn > 2 || p.Sinks != 1 || m < 2 || (n-m)%m != 0) |
		bitIf(KindTreeReduction, p.MaxOut > 1 || p.Sinks != 1 || p.Arcs != n-1)
}

// shapeVerdicts holds the rules that need only the group count n and
// whether every group is one node of one common associative operation (the
// paper's 3b under-approximation), so a view decides them before building
// its adjacency. When n is a node count rather than an exact group count
// (exact false), only its lower bounds apply.
func shapeVerdicts(n int, exact, oneAssocOp bool) uint32 {
	return bitIf(KindMap, n < 2) |
		bitIf(KindLinearReduction, n < 2 || !oneAssocOp) |
		bitIf(KindTiledReduction, n < 4 || exact && n > 4096 || !oneAssocOp) |
		bitIf(KindTreeReduction, n < 3 || !oneAssocOp)
}

// bitIf returns kind's verdict bit when the rule refutes it.
func bitIf(k Kind, refuted bool) uint32 {
	if refuted {
		return prescreenBit(k)
	}
	return 0
}
