package patterns

import (
	"fmt"

	"discovery/internal/ddg"
)

// Direct verifiers of the formal definitions in paper §4, without the
// matching relaxations. They are used by the test suite and by the
// finder's debug mode to confirm that the relaxations "do not lead to
// violations of the original pattern definitions" (§5) — the same check
// the paper reports performing on its experiments.

// VerifyPattern checks constraints (1a–1e) for the component sequence:
// disjointness, label isomorphism (exact multiset + internal arc count),
// weak connectivity, and convexity within the whole graph.
func VerifyPattern(g ddg.GraphView, comps []ddg.Set) error {
	_, err := verifyPattern(g, comps)
	return err
}

// verifyPattern is VerifyPattern returning, for a pattern that passes, the
// owner table its (1b) check built, for the callers' arc checks.
func verifyPattern(g ddg.GraphView, comps []ddg.Set) (*owners, error) {
	if len(comps) == 0 {
		return nil, fmt.Errorf("pattern has no components")
	}
	// (1b) disjoint components.
	own, i, j := ownersOf(comps)
	if i >= 0 {
		return nil, fmt.Errorf("components %d and %d share nodes", i, j)
	}
	// (1d) weakly connected components, relaxed to connectivity through
	// shared inputs (the transparent-load analogue; in a DDG with load
	// nodes, operations reading the same value connect through the load
	// inside the component).
	for i, c := range comps {
		if !g.WeaklyConnectedWithInputs(c) {
			return nil, fmt.Errorf("component %d is not weakly connected", i)
		}
	}
	// (1e) convexity.
	if !g.Convex(ddg.UnionAll(comps...), nil) {
		return nil, fmt.Errorf("pattern is not convex")
	}
	return own, nil
}

// owners maps each node of a component sequence to the index of the
// first component holding it, over the id span the components cover. It
// turns the checks that compare every pair of components into one pass
// over the components' nodes and out-arcs.
type owners struct {
	lo   ddg.NodeID
	comp []int32 // by id - lo; -1: in no component
}

// ownersOf builds the owner table of comps and reports the smallest pair
// (i, j), i < j, of components sharing a node, or i = -1 when they are
// disjoint. A node's first two holders are the smallest pair it is
// shared by, and the smallest such pair over all nodes is the answer.
func ownersOf(comps []ddg.Set) (own *owners, i, j int) {
	own = &owners{}
	lo, hi := ddg.NoNode, ddg.NodeID(0)
	for _, c := range comps {
		if len(c) > 0 {
			lo, hi = min(lo, c[0]), max(hi, c[len(c)-1])
		}
	}
	if lo > hi {
		return own, -1, -1
	}
	own.lo, own.comp = lo, make([]int32, hi-lo+1)
	for k := range own.comp {
		own.comp[k] = -1
	}
	i, j = -1, -1
	for cj, c := range comps {
		for _, u := range c {
			ci := own.comp[u-lo]
			if ci < 0 {
				own.comp[u-lo] = int32(cj)
			} else if i < 0 || int(ci) < i {
				// Components are visited in order, so the first pair found
				// for a given first holder has the smallest second one.
				i, j = int(ci), cj
			}
		}
	}
	return own, i, j
}

// of returns the index of the component holding v, or -1.
func (o *owners) of(v ddg.NodeID) int {
	if v < o.lo || int(v-o.lo) >= len(o.comp) {
		return -1
	}
	return int(o.comp[v-o.lo])
}

// firstArc returns, for the first component i (in order) with an arc into
// another component j that bad(i, j) accepts, that i and the smallest
// such j, or -1, -1: the pair the loop over every ordered pair of
// components with ArcsBetween would report first, found in one pass over
// each component's out-arcs.
func (o *owners) firstArc(g ddg.GraphView, comps []ddg.Set, bad func(i, j int) bool) (int, int) {
	for i, c := range comps {
		best := -1
		for _, u := range c {
			for _, v := range g.Succs(u) {
				if j := o.of(v); j >= 0 && (best < 0 || j < best) && bad(i, j) {
					best = j
				}
			}
		}
		if best >= 0 {
			return i, best
		}
	}
	return -1, -1
}

// verifyIsomorphic checks (1c) for a set of components with the exact
// operation-multiset + internal-arc-count proxy for labeled isomorphism.
func verifyIsomorphic(g ddg.GraphView, comps []ddg.Set) error {
	ref := g.LabelKey(comps[0])
	refArcs := len(g.ArcsBetween(comps[0], comps[0]))
	for i, c := range comps[1:] {
		if g.LabelKey(c) != ref {
			return fmt.Errorf("component %d label %q != %q", i+1, g.LabelKey(c), ref)
		}
		if len(g.ArcsBetween(c, c)) != refArcs {
			return fmt.Errorf("component %d has different internal structure", i+1)
		}
	}
	return nil
}

// VerifyMap checks the map constraints (2a–2d). For conditional maps only
// the first numFull components are required to produce output, and only
// they participate in the isomorphism check.
func VerifyMap(g ddg.GraphView, p *Pattern) error {
	if !p.Kind.IsMapKind() {
		return fmt.Errorf("not a map kind: %v", p.Kind)
	}
	own, err := verifyPattern(g, p.Comps)
	if err != nil {
		return err
	}
	if len(p.Comps) < 2 {
		return fmt.Errorf("map needs at least two components")
	}
	full := p.Comps[:p.numFull()]
	if len(full) == 0 {
		return fmt.Errorf("map has no output-producing components")
	}
	if p.Kind == KindMap {
		if err := verifyIsomorphic(g, full); err != nil {
			return err
		}
	}
	// (2b) no arcs between components.
	if i, j := own.firstArc(g, p.Comps, func(i, j int) bool { return i != j }); i >= 0 {
		return fmt.Errorf("arc between components %d and %d", i, j)
	}
	// (2c) every component has incoming arcs.
	for i, c := range p.Comps {
		if !g.HasExternalIn(c, nil) {
			return fmt.Errorf("component %d has no input", i)
		}
	}
	// (2d) full components have outgoing arcs.
	for i, c := range full {
		if !g.HasExternalOut(c, nil) {
			return fmt.Errorf("component %d has no output", i)
		}
	}
	return nil
}

// VerifyLinearReduction checks the linear reduction constraints (3a–3f).
func VerifyLinearReduction(g ddg.GraphView, p *Pattern) error {
	if p.Kind != KindLinearReduction {
		return fmt.Errorf("not a linear reduction: %v", p.Kind)
	}
	return verifyChain(g, p.Comps)
}

func verifyChain(g ddg.GraphView, comps []ddg.Set) error {
	own, err := verifyPattern(g, comps)
	if err != nil {
		return err
	}
	if err := verifyIsomorphic(g, comps); err != nil {
		return err
	}
	n := len(comps)
	if n < 2 {
		return fmt.Errorf("reduction needs at least two components")
	}
	// (3b) associativity under-approximation: single associative node.
	for i, c := range comps {
		if _, ok := g.AllAssociative(c); !ok || len(c) != 1 {
			return fmt.Errorf("component %d is not a single associative operation", i)
		}
	}
	// (3c) chain reachability.
	for i := 0; i+1 < n; i++ {
		for _, u := range comps[i] {
			for _, v := range comps[i+1] {
				if !g.Reaches(u, v) {
					return fmt.Errorf("component %d does not reach component %d", i, i+1)
				}
			}
		}
	}
	// (3d) no arcs between non-consecutive components.
	if i, j := own.firstArc(g, comps, func(i, j int) bool { return absInt(i-j) > 1 }); i >= 0 {
		return fmt.Errorf("arc between non-consecutive components %d and %d", i, j)
	}
	// (3e) inputs.
	for i, c := range comps {
		if !g.HasExternalIn(c, nil) {
			return fmt.Errorf("component %d has no input", i)
		}
	}
	// (3f) final output.
	if !g.HasExternalOut(comps[n-1], nil) {
		return fmt.Errorf("last component has no output")
	}
	return nil
}

// VerifyTiledReduction checks the tiled reduction constraints (4a–4e).
func VerifyTiledReduction(g ddg.GraphView, p *Pattern) error {
	if p.Kind != KindTiledReduction {
		return fmt.Errorf("not a tiled reduction: %v", p.Kind)
	}
	if len(p.Partials) < 2 {
		return fmt.Errorf("tiled reduction needs at least two partial reductions")
	}
	if len(p.Final) != len(p.Partials) {
		return fmt.Errorf("final reduction has %d components for %d partials",
			len(p.Final), len(p.Partials))
	}
	// (4a) each partial is a linear reduction of equal, non-zero length.
	// Partial chains of length 1 are degenerate linear reductions; check
	// chain constraints only for length ≥ 2.
	plen := len(p.Partials[0])
	if plen == 0 {
		return fmt.Errorf("partial reductions are empty")
	}
	var allComps []ddg.Set
	for k, chain := range p.Partials {
		if len(chain) != plen {
			return fmt.Errorf("partial %d has length %d, want %d", k, len(chain), plen)
		}
		for i, c := range chain {
			if _, ok := g.AllAssociative(c); !ok || len(c) != 1 {
				return fmt.Errorf("partial %d component %d is not a single associative op", k, i)
			}
			if i > 0 && len(g.ArcsBetween(chain[i-1], c)) == 0 {
				return fmt.Errorf("partial %d chain broken at %d", k, i)
			}
		}
		allComps = append(allComps, chain...)
	}
	// (4b) the final reduction is a linear reduction.
	for i, c := range p.Final {
		if _, ok := g.AllAssociative(c); !ok || len(c) != 1 {
			return fmt.Errorf("final component %d is not a single associative op", i)
		}
		if i > 0 && len(g.ArcsBetween(p.Final[i-1], c)) == 0 {
			return fmt.Errorf("final chain broken at %d", i)
		}
	}
	allComps = append(allComps, p.Final...)
	// (4c) all components isomorphic.
	if err := verifyIsomorphic(g, allComps); err != nil {
		return err
	}
	// (4d) each partial's last component reaches its final component.
	for k, chain := range p.Partials {
		last := chain[len(chain)-1]
		for _, u := range last {
			for _, v := range p.Final[k] {
				if !g.Reaches(u, v) {
					return fmt.Errorf("partial %d does not reach final component %d", k, k)
				}
			}
		}
	}
	// (4e) no other arcs between partials and finals, read from the
	// finals' owner table. (4b) made the finals a chain of single nodes,
	// which in an acyclic graph are distinct, so each node has at most one
	// final component. allComps lists partial k's component i at k*plen+i.
	fin, _, _ := ownersOf(p.Final)
	partials := allComps[:len(p.Partials)*plen]
	if c, fj := fin.firstArc(g, partials, func(c, fj int) bool { return c%plen != plen-1 || fj != c/plen }); c >= 0 {
		return fmt.Errorf("stray arc from partial %d[%d] to final %d", c/plen, c%plen, fj)
	}
	// (1b)/(1e) over the whole structure.
	return VerifyPattern(g, allComps)
}

// VerifyMapReduction checks the §4.4 interface between the map and
// reduction constituents of a (linear or tiled) map-reduction.
func VerifyMapReduction(g ddg.GraphView, p *Pattern) error {
	if p.Kind != KindLinearMapReduction && p.Kind != KindTiledMapReduction {
		return fmt.Errorf("not a map-reduction: %v", p.Kind)
	}
	if p.MapPart == nil || p.RedPart == nil {
		return fmt.Errorf("map-reduction missing constituents")
	}
	if err := VerifyMap(g, p.MapPart); err != nil {
		return fmt.Errorf("map constituent: %w", err)
	}
	var consumers []ddg.Set
	switch p.Kind {
	case KindLinearMapReduction:
		if err := VerifyLinearReduction(g, p.RedPart); err != nil {
			return fmt.Errorf("reduction constituent: %w", err)
		}
		consumers = p.RedPart.Comps
	case KindTiledMapReduction:
		if err := VerifyTiledReduction(g, p.RedPart); err != nil {
			return fmt.Errorf("reduction constituent: %w", err)
		}
		for _, chain := range p.RedPart.Partials {
			consumers = append(consumers, chain...)
		}
	}
	used := make([]bool, len(consumers))
	for mi, comp := range p.MapPart.Comps {
		ci, ok := feedsExactlyOne(g, comp, consumers)
		if !ok || used[ci] {
			return fmt.Errorf("map component %d does not feed exactly one reduction component", mi)
		}
		used[ci] = true
	}
	return nil
}

// VerifyTreeReduction checks the extension tree-reduction shape: single
// associative components forming an in-tree whose leaves take elements
// and whose root produces the result.
func VerifyTreeReduction(g ddg.GraphView, p *Pattern) error {
	if p.Kind != KindTreeReduction {
		return fmt.Errorf("not a tree reduction: %v", p.Kind)
	}
	if err := VerifyPattern(g, p.Comps); err != nil {
		return err
	}
	if err := verifyIsomorphic(g, p.Comps); err != nil {
		return err
	}
	all := ddg.UnionAll(p.Comps...)
	roots := 0
	for _, c := range p.Comps {
		if _, ok := g.AllAssociative(c); !ok || len(c) != 1 {
			return fmt.Errorf("component is not a single associative operation")
		}
		uses := 0
		for _, u := range c {
			for _, s := range g.Succs(u) {
				if all.Contains(s) && !c.Contains(s) {
					uses++
				}
			}
		}
		if uses > 1 {
			return fmt.Errorf("component value used more than once inside the tree")
		}
		if uses == 0 {
			roots++
			if !g.HasExternalOut(c, nil) {
				return fmt.Errorf("root has no output")
			}
		}
	}
	if roots != 1 {
		return fmt.Errorf("tree has %d roots, want 1", roots)
	}
	return nil
}

// Verify dispatches to the appropriate definitional verifier.
func Verify(g ddg.GraphView, p *Pattern) error {
	switch p.Kind {
	case KindMap, KindConditionalMap, KindFusedMap, KindStencil:
		return VerifyMap(g, p)
	case KindLinearReduction:
		return VerifyLinearReduction(g, p)
	case KindTiledReduction:
		return VerifyTiledReduction(g, p)
	case KindLinearMapReduction, KindTiledMapReduction:
		return VerifyMapReduction(g, p)
	case KindTreeReduction:
		return VerifyTreeReduction(g, p)
	case KindPipeline:
		// Item columns: disjoint, connected (stage handoff arcs), convex.
		return VerifyPattern(g, p.Comps)
	}
	return fmt.Errorf("unknown pattern kind %v", p.Kind)
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
