package patterns

// Differential oracle for the soundness net's pairwise checks. (1b) in
// VerifyPattern, (2b) in VerifyMap, (3d) in verifyChain and (4e) in
// VerifyTiledReduction read owner tables; the nested loops below are the
// checks as first written, testing every pair of components. Old and new
// must give the same verdict and the same error.

import (
	"fmt"
	"testing"

	"discovery/internal/ddg"
)

// oracleVerifyPattern is VerifyPattern with (1b) over every pair.
func oracleVerifyPattern(g ddg.GraphView, comps []ddg.Set) error {
	if len(comps) == 0 {
		return fmt.Errorf("pattern has no components")
	}
	for i := range comps {
		for j := i + 1; j < len(comps); j++ {
			if !comps[i].Disjoint(comps[j]) {
				return fmt.Errorf("components %d and %d share nodes", i, j)
			}
		}
	}
	for i, c := range comps {
		if !g.WeaklyConnectedWithInputs(c) {
			return fmt.Errorf("component %d is not weakly connected", i)
		}
	}
	if !g.Convex(oracleUnion(comps), nil) {
		return fmt.Errorf("pattern is not convex")
	}
	return nil
}

// oracleUnion folds Union over the sets one at a time.
func oracleUnion(sets []ddg.Set) ddg.Set {
	var out ddg.Set
	for _, s := range sets {
		out = out.Union(s)
	}
	return out
}

// oracleVerifyMap is VerifyMap with (2b) as ArcsBetween over every
// ordered pair.
func oracleVerifyMap(g ddg.GraphView, p *Pattern) error {
	if !p.Kind.IsMapKind() {
		return fmt.Errorf("not a map kind: %v", p.Kind)
	}
	if err := oracleVerifyPattern(g, p.Comps); err != nil {
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
	for i := range p.Comps {
		for j := range p.Comps {
			if i != j && len(g.ArcsBetween(p.Comps[i], p.Comps[j])) > 0 {
				return fmt.Errorf("arc between components %d and %d", i, j)
			}
		}
	}
	for i, c := range p.Comps {
		if !g.HasExternalIn(c, nil) {
			return fmt.Errorf("component %d has no input", i)
		}
	}
	for i, c := range full {
		if !g.HasExternalOut(c, nil) {
			return fmt.Errorf("component %d has no output", i)
		}
	}
	return nil
}

// oracleVerifyChain is verifyChain with (3d) as ArcsBetween over every
// ordered pair.
func oracleVerifyChain(g ddg.GraphView, comps []ddg.Set) error {
	if err := oracleVerifyPattern(g, comps); err != nil {
		return err
	}
	if err := verifyIsomorphic(g, comps); err != nil {
		return err
	}
	n := len(comps)
	if n < 2 {
		return fmt.Errorf("reduction needs at least two components")
	}
	for i, c := range comps {
		if _, ok := g.AllAssociative(c); !ok || len(c) != 1 {
			return fmt.Errorf("component %d is not a single associative operation", i)
		}
	}
	for i := 0; i+1 < n; i++ {
		for _, u := range comps[i] {
			for _, v := range comps[i+1] {
				if !g.Reaches(u, v) {
					return fmt.Errorf("component %d does not reach component %d", i, i+1)
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if absInt(i-j) > 1 && len(g.ArcsBetween(comps[i], comps[j])) > 0 {
				return fmt.Errorf("arc between non-consecutive components %d and %d", i, j)
			}
		}
	}
	for i, c := range comps {
		if !g.HasExternalIn(c, nil) {
			return fmt.Errorf("component %d has no input", i)
		}
	}
	if !g.HasExternalOut(comps[n-1], nil) {
		return fmt.Errorf("last component has no output")
	}
	return nil
}

// oracleVerifyTiled is VerifyTiledReduction with (4e) as ArcsBetween over
// every (partial component, final component) pair.
func oracleVerifyTiled(g ddg.GraphView, p *Pattern) error {
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
	plen := len(p.Partials[0])
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
	for i, c := range p.Final {
		if _, ok := g.AllAssociative(c); !ok || len(c) != 1 {
			return fmt.Errorf("final component %d is not a single associative op", i)
		}
		if i > 0 && len(g.ArcsBetween(p.Final[i-1], c)) == 0 {
			return fmt.Errorf("final chain broken at %d", i)
		}
	}
	allComps = append(allComps, p.Final...)
	if err := verifyIsomorphic(g, allComps); err != nil {
		return err
	}
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
	for k, chain := range p.Partials {
		for i, c := range chain {
			isLast := i == len(chain)-1
			for fj, f := range p.Final {
				if len(g.ArcsBetween(c, f)) > 0 && !(isLast && fj == k) {
					return fmt.Errorf("stray arc from partial %d[%d] to final %d", k, i, fj)
				}
			}
		}
	}
	return oracleVerifyPattern(g, allComps)
}

// tiledSplit reads comps, whose length m divides, as m partial chains of
// equal length in order, then the m finals.
func tiledSplit(comps []ddg.Set, m int) *Pattern {
	plen := len(comps)/m - 1
	p := &Pattern{Kind: KindTiledReduction, Final: comps[m*plen:]}
	for k := 0; k < m; k++ {
		p.Partials = append(p.Partials, comps[k*plen:(k+1)*plen])
	}
	return p
}

// tiledCases returns the tiled reductions one component sequence is read
// as: its tiledSplit for every m ≥ 2 that leaves each chain at least one
// component.
func tiledCases(comps []ddg.Set) []*Pattern {
	var out []*Pattern
	for m := 2; 2*m <= len(comps); m++ {
		if len(comps)%m == 0 {
			out = append(out, tiledSplit(comps, m))
		}
	}
	return out
}

// verifyCases returns the component sequences one oracle input is checked
// on: the loop view's groups, the ambient's nodes one per component in
// order and reversed, and from split a random partition of the ambient
// and a random draw over the whole graph, either of which may overlap.
func verifyCases(g *ddg.Graph, amb ddg.Set, split uint64) [][]ddg.Set {
	singles := func(nodes ddg.Set) []ddg.Set {
		out := make([]ddg.Set, len(nodes))
		for i := range nodes {
			out[i] = nodes[i : i+1 : i+1]
		}
		return out
	}
	rev := singles(amb)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	r := &prng{s: split | 1}
	draw := func(from ddg.Set) []ddg.Set {
		k := 1 + r.intn(5)
		parts := make([][]ddg.NodeID, k)
		for _, u := range from {
			if r.intn(5) != 0 {
				c := r.intn(k)
				parts[c] = append(parts[c], u)
			}
		}
		if len(from) > 0 && r.intn(3) == 0 { // one node in two components
			u := from[r.intn(len(from))]
			parts[r.intn(k)] = append(parts[r.intn(k)], u)
		}
		out := make([]ddg.Set, k)
		for c := range parts {
			out[c] = ddg.NewSet(parts[c]...)
		}
		return out
	}
	return [][]ddg.Set{LoopView(g, amb, 1).Groups, singles(amb), rev, draw(amb), draw(g.Nodes())}
}

// checkVerifyOracle compares the owner-table checks with the nested loops
// on one component sequence, as a pattern, a map, a conditional map, a
// reduction chain and each tiled reduction of tiledCases.
func checkVerifyOracle(t *testing.T, g ddg.GraphView, comps []ddg.Set) {
	t.Helper()
	same := func(what string, got, want error) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s(%v):\n got %v\nwant %v", what, comps, got, want)
		}
	}
	same("VerifyPattern", VerifyPattern(g, comps), oracleVerifyPattern(g, comps))
	for _, p := range []*Pattern{
		{Kind: KindMap, Comps: comps, NumFull: len(comps)},
		{Kind: KindConditionalMap, Comps: comps, NumFull: (len(comps) + 1) / 2},
	} {
		same("VerifyMap "+p.Kind.String(), VerifyMap(g, p), oracleVerifyMap(g, p))
	}
	same("verifyChain", verifyChain(g, comps), oracleVerifyChain(g, comps))
	for _, p := range tiledCases(comps) {
		same("VerifyTiledReduction", VerifyTiledReduction(g, p), oracleVerifyTiled(g, p))
	}
}

// verifyOracleCase runs one fuzz input: every component sequence of
// verifyCases on the graph. An odd split first adds an arc that skips at
// least one ambient node, the arc (3d) refutes in a chain and, on a tiled
// reduction's adds, (4e) may refute as a stray arc into a final.
func verifyOracleCase(t *testing.T, gen uint8, seed uint64, a, b, flags, drop uint8, split uint64) {
	g, amb := oracleInput(gen, seed, a, b, flags, drop)
	if n := len(amb); n >= 3 && split&1 != 0 {
		i := int(split >> 8 % uint64(n-2))
		j := i + 2 + int(split>>16%uint64(n-i-2))
		g = extend(g, [][2]ddg.NodeID{{amb[i], amb[j]}})
	}
	for _, comps := range verifyCases(g, amb, split) {
		checkVerifyOracle(t, g, comps)
	}
}

// TestVerifyOracleOnTiledArcs adds each arc between two adds of a small
// tiled reduction in turn, some of them the stray arcs (4e) refutes, and
// holds every check to its oracle on the result.
func TestVerifyOracleOnTiledArcs(t *testing.T) {
	for m := 2; m <= 3; m++ {
		for p := 1; p <= 3; p++ {
			g, amb := buildTiledDDG(m, p)
			for i := range amb {
				for j := i + 1; j < len(amb); j++ {
					ext := extend(g, [][2]ddg.NodeID{{amb[i], amb[j]}})
					for _, comps := range verifyCases(ext, amb, uint64(i*len(amb)+j)) {
						checkVerifyOracle(t, ext, comps)
					}
				}
			}
		}
	}
}

// FuzzVerifyOracle holds (1b), (2b), (3d) and (4e) to the nested loops
// over the random-DAG and pattern generators of the reduction oracle.
func FuzzVerifyOracle(f *testing.F) {
	for s := uint64(1); s <= 10; s++ {
		f.Add(uint8(s%5), s, uint8(s), uint8(s*3), uint8(s*7), uint8(255), s*0x9e3779b9)
	}
	f.Fuzz(verifyOracleCase)
}

// TestVerifyOracleOnRandomInputs runs the fuzz body over fixed inputs, so
// `go test` covers it too.
func TestVerifyOracleOnRandomInputs(t *testing.T) {
	for s := uint64(1); s <= 200; s++ {
		verifyOracleCase(t, uint8(s%5), s, uint8(s), uint8(s/5), uint8(s*7), uint8(s%9), s*0x9e3779b97f4a7c15)
	}
}

// readCounter is a graph that counts the adjacency entries read through
// it: Succs and Preds results, and the out-arcs ArcsBetween scans.
type readCounter struct {
	*ddg.Graph
	reads int
}

func (c *readCounter) Succs(u ddg.NodeID) []ddg.NodeID {
	s := c.Graph.Succs(u)
	c.reads += len(s)
	return s
}

func (c *readCounter) Preds(u ddg.NodeID) []ddg.NodeID {
	s := c.Graph.Preds(u)
	c.reads += len(s)
	return s
}

func (c *readCounter) ArcsBetween(a, b ddg.Set) [][2]ddg.NodeID {
	for _, u := range a {
		c.reads += len(c.Graph.Succs(u))
	}
	return c.Graph.ArcsBetween(a, b)
}

// TestVerifyWorkLinearInComponents gates the complexity of the pairwise
// checks by a work count, not a clock: the adjacency entries VerifyMap
// reads on a k-component map, VerifyLinearReduction on a k-link chain and
// VerifyTiledReduction on k partial chains grow linearly in k, where the
// nested loops grow quadratically.
func TestVerifyWorkLinearInComponents(t *testing.T) {
	mapOf := func(k int) (*ddg.Graph, *Pattern) {
		g, amb := buildMapDDG(k)
		return g, &Pattern{Kind: KindMap, Comps: LoopView(g, amb, 1).Groups, NumFull: k}
	}
	chainOf := func(k int) (*ddg.Graph, *Pattern) {
		g, adds := buildChainDDG(k)
		return g, &Pattern{Kind: KindLinearReduction, Comps: NodeView(g, adds).Groups}
	}
	tiledOf := func(k int) (*ddg.Graph, *Pattern) {
		g, adds := buildTiledDDG(k, 2)
		return g, tiledSplit(NodeView(g, adds).Groups, k)
	}
	for _, tc := range []struct {
		name         string
		build        func(int) (*ddg.Graph, *Pattern)
		check, naive func(ddg.GraphView, *Pattern) error
	}{
		{"map", mapOf, VerifyMap, oracleVerifyMap},
		{"chain", chainOf, VerifyLinearReduction, func(g ddg.GraphView, p *Pattern) error { return oracleVerifyChain(g, p.Comps) }},
		{"tiled", tiledOf, VerifyTiledReduction, oracleVerifyTiled},
	} {
		work := func(k int, check func(ddg.GraphView, *Pattern) error) int {
			g, p := tc.build(k)
			c := &readCounter{Graph: g}
			if err := check(c, p); err != nil {
				t.Fatalf("%s of %d: %v", tc.name, k, err)
			}
			return c.reads
		}
		for _, k := range []int{32, 64, 128} {
			small, large := work(k, tc.check), work(2*k, tc.check)
			if large > 2*small+8 {
				t.Errorf("%s: %d components read %d entries, %d read %d: more than linear", tc.name, k, small, 2*k, large)
			}
			// The count does tell the two apart: the nested loops read about
			// four times as much for twice the components.
			if n0, n1 := work(k, tc.naive), work(2*k, tc.naive); n1 < 3*n0 {
				t.Errorf("%s: nested loops read %d then %d entries, want quadratic growth", tc.name, n0, n1)
			}
		}
	}
}
