package ddg

// Differential oracles for the dense graph kernels. The map-based
// versions below are the straightforward formulations the kernels
// replaced — union-find over a map with a final sort, an induced
// adjacency read off the parent graph through a map remap, and convexity
// as two map-marked searches compared at the end — kept here as
// references: every component, its order, every adjacency list of an
// induced graph and every convexity verdict must agree.

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"discovery/internal/mir"
)

// oracleWCC is the map-based union-find: components by smallest member.
func oracleWCC(g *Graph, nodes Set) []Set {
	if len(nodes) == 0 {
		return nil
	}
	parent := make(map[NodeID]NodeID, len(nodes))
	for _, u := range nodes {
		parent[u] = u
	}
	find := func(u NodeID) NodeID {
		for parent[u] != u {
			parent[u] = parent[parent[u]]
			u = parent[u]
		}
		return u
	}
	for _, u := range nodes {
		for _, v := range g.Succs(u) {
			if _, in := parent[v]; in {
				if ru, rv := find(u), find(v); ru != rv {
					parent[ru] = rv
				}
			}
		}
	}
	groups := map[NodeID]Set{}
	for _, u := range nodes {
		r := find(u)
		groups[r] = append(groups[r], u)
	}
	out := make([]Set, 0, len(groups))
	for _, members := range groups {
		out = append(out, NewSet(members...))
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// oracleWithInputs is constraint (1d)'s relaxation over oracleWCC: nodes
// plus their direct predecessors in one component.
func oracleWithInputs(g *Graph, nodes Set) bool {
	if len(nodes) <= 1 {
		return true
	}
	var ext []NodeID
	for _, u := range nodes {
		ext = append(ext, g.Preds(u)...)
	}
	for _, comp := range oracleWCC(g, nodes.Union(NewSet(ext...))) {
		if comp.Contains(nodes[0]) {
			return nodes.SubsetOf(comp)
		}
	}
	return false
}

// oracleInduced reads the induced subgraph's adjacency off g through a
// map remap: for each kept node, in new ids, its kept predecessors and
// successors, ascending.
func oracleInduced(g *Graph, keep Set) (preds, succs [][]NodeID) {
	remap := make(map[NodeID]NodeID, len(keep))
	for i, u := range keep {
		remap[u] = NodeID(i)
	}
	preds, succs = make([][]NodeID, len(keep)), make([][]NodeID, len(keep))
	for _, u := range keep {
		for _, v := range g.Succs(u) {
			if nv, ok := remap[v]; ok {
				succs[remap[u]] = append(succs[remap[u]], nv)
				preds[nv] = append(preds[nv], remap[u])
			}
		}
	}
	for i := range keep {
		slices.Sort(preds[i])
		slices.Sort(succs[i])
	}
	return preds, succs
}

// oracleConvex is the map-based convexity check: mark the exterior nodes
// reachable from the set (below its maximum id) and those reaching it
// (above its minimum id), then look for a node marked both ways.
func oracleConvex(g *Graph, nodes, ambient Set) bool {
	if len(nodes) == 0 {
		return true
	}
	inAmbient := func(v NodeID) bool { return ambient == nil || ambient.Contains(v) }
	minID, maxID := nodes[0], nodes[len(nodes)-1]
	search := func(next func(NodeID) []NodeID, inside func(NodeID) bool) map[NodeID]bool {
		marked := map[NodeID]bool{}
		var stack []NodeID
		push := func(v NodeID) {
			if inside(v) && inAmbient(v) && !nodes.Contains(v) && !marked[v] {
				marked[v] = true
				stack = append(stack, v)
			}
		}
		for _, u := range nodes {
			for _, v := range next(u) {
				push(v)
			}
		}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range next(u) {
				push(v)
			}
		}
		return marked
	}
	fwd := search(g.Succs, func(v NodeID) bool { return v < maxID })
	bwd := search(g.Preds, func(v NodeID) bool { return v > minID })
	for u := range fwd {
		if bwd[u] {
			return false
		}
	}
	return true
}

func renderSets(sets []Set) string {
	s := ""
	for _, c := range sets {
		s += "{" + c.Key() + "}"
	}
	return s
}

// kernelScopes are the scopes kernel graphs draw from: a few iterations
// of two nested loops. They are shared, so two builds of one seed hold
// identical scope pointers.
var kernelScopes = func() []*Scope {
	outer := (*Scope)(nil).Enter(1, 0)
	inner := outer.Enter(2, 1)
	return []*Scope{nil, outer, outer.NextIter(), inner, inner.NextIter()}
}()

// kernelGraph streams a random forward DAG of n nodes through the
// FrozenBuilder: up to fan predecessors each, mostly near the node (so
// components stay local) with some long arcs, and kernelScopes scopes.
func kernelGraph(seed uint64, n, fan int) *Graph {
	r := &xrng{s: seed | 1}
	scopes := kernelScopes
	fb := NewFrozenBuilder(n, n*fan)
	for u := 0; u < n; u++ {
		var preds []NodeID
		for j := 0; u > 0 && j < int(r.next()%uint64(fan+1)); j++ {
			if r.next()%4 == 0 {
				preds = append(preds, NodeID(r.next()%uint64(u)))
			} else {
				preds = append(preds, NodeID(u-1-int(r.next()%uint64(min(u, 4)))))
			}
		}
		op := mir.OpFAdd
		if r.next()%3 == 0 {
			op = mir.OpFMul
		}
		fb.AddNode(op, fb.PosID(mir.Pos{File: "k.c", Line: 1 + int(r.next()%5)}), int32(r.next()%2),
			fb.ScopeID(scopes[r.next()%uint64(len(scopes))]), preds...)
	}
	g, err := fb.Finish()
	if err != nil {
		panic(err)
	}
	return g
}

// kernelSubsets returns the node subsets a kernel case runs on: the
// empty set, a singleton, the ids around the word boundaries 63/64 and
// 127/128, a run straddling 64, the whole graph, and the subset mask
// selects (bit i of mask picks node i, the mask repeating).
func kernelSubsets(n int, mask []byte) []Set {
	clip := func(ids ...NodeID) Set {
		var out []NodeID
		for _, u := range ids {
			if int(u) < n {
				out = append(out, u)
			}
		}
		return NewSet(out...)
	}
	var run []NodeID
	for u := NodeID(60); u < 70; u++ {
		run = append(run, u)
	}
	subs := []Set{
		nil,
		clip(NodeID(n / 2)),
		clip(63, 64),
		clip(63, 64, 127, 128),
		clip(127, 128),
		clip(run...),
		clip(0, 63, 64, 127, 128, NodeID(n-1)),
	}
	all := make([]NodeID, n)
	for i := range all {
		all[i] = NodeID(i)
	}
	subs = append(subs, NewSet(all...))
	if len(mask) > 0 {
		var picked []NodeID
		for i := 0; i < n; i++ {
			if mask[(i/8)%len(mask)]&(1<<(i%8)) != 0 {
				picked = append(picked, NodeID(i))
			}
		}
		subs = append(subs, NewSet(picked...))
	}
	return subs
}

// oracleUnionAll is UnionAll as first written: Union folded over the
// pieces one at a time.
func oracleUnionAll(sets ...Set) Set {
	var out Set
	for _, s := range sets {
		out = out.Union(s)
	}
	return out
}

// checkUnionAll compares UnionAll with the fold on disjoint ordered
// pieces (each sub cut into runs, empty runs between them), disjoint
// interleaved ones (its components), overlapping ones (every sub) and
// the same in reverse.
func checkUnionAll(t *testing.T, g *Graph, subs []Set) {
	t.Helper()
	check := func(what string, pieces []Set) {
		t.Helper()
		got, want := UnionAll(pieces...), oracleUnionAll(pieces...)
		if !got.Equal(want) || (got == nil) != (want == nil) {
			t.Fatalf("UnionAll(%s %v) = %v, want %v", what, pieces, got, want)
		}
	}
	check("no", nil)
	check("overlapping", subs)
	rev := slices.Clone(subs)
	slices.Reverse(rev)
	check("reversed", rev)
	for _, sub := range subs {
		third := len(sub) / 3
		check("ordered", []Set{sub[:third], nil, sub[third : 2*third], {}, sub[2*third:]})
		check("interleaved", g.WeaklyConnectedComponents(sub))
		check("single", []Set{sub})
	}
}

// checkKernels compares every dense kernel with its oracle on g (whose
// adjacency the oracles read from ref, the same graph kept resident).
func checkKernels(t *testing.T, g, ref *Graph, subs []Set) {
	t.Helper()
	checkUnionAll(t, g, subs)
	for _, sub := range subs {
		want := oracleWCC(ref, sub)
		if got := g.WeaklyConnectedComponents(sub); renderSets(got) != renderSets(want) || len(got) != len(want) {
			t.Fatalf("WCC(%v):\n got %s\nwant %s", sub, renderSets(got), renderSets(want))
		}
		if got, wantC := g.WeaklyConnected(sub), len(sub) <= 1 || len(want) == 1; got != wantC {
			t.Fatalf("WeaklyConnected(%v) = %t, want %t", sub, got, wantC)
		}
		if got, wantI := g.WeaklyConnectedWithInputs(sub), oracleWithInputs(ref, sub); got != wantI {
			t.Fatalf("WeaklyConnectedWithInputs(%v) = %t, want %t", sub, got, wantI)
		}
		checkInduced(t, g, ref, sub)
		if got, want := g.Convex(sub, nil), oracleConvex(ref, sub, nil); got != want {
			t.Fatalf("Convex(%v) = %t, want %t", sub, got, want)
		}

		// Convexity within every other subset as the ambient.
		for _, amb := range subs {
			if got, want := g.Convex(sub, amb), oracleConvex(ref, sub, amb); got != want {
				t.Fatalf("Convex(%v, ambient %v) = %t, want %t", sub, amb, got, want)
			}
		}
	}
}

// checkInduced compares InducedSubgraph with the map-based oracle: the
// back map, every node's preds and succs, node attributes and scopes.
func checkInduced(t *testing.T, g, ref *Graph, keep Set) {
	t.Helper()
	got, gotBack := g.InducedSubgraph(keep)
	if got.Spilled() {
		t.Fatalf("induced(%v) is spilled, want a resident graph", keep)
	}
	if !slices.Equal(gotBack, keep) {
		t.Fatalf("induced(%v) back map %v, want keep itself", keep, gotBack)
	}
	if got.NumNodes() != len(keep) {
		t.Fatalf("induced(%v) has %d nodes, want %d", keep, got.NumNodes(), len(keep))
	}
	preds, succs := oracleInduced(ref, keep)
	arcs := 0
	for i, old := range keep {
		u := NodeID(i)
		if !slices.Equal(got.Preds(u), preds[i]) || !slices.Equal(got.Succs(u), succs[i]) {
			t.Fatalf("induced(%v) node %d: preds %v succs %v, want %v %v", keep, u, got.Preds(u), got.Succs(u), preds[i], succs[i])
		}
		if got.Op(u) != ref.Op(old) || got.Pos(u) != ref.Pos(old) ||
			got.Thread(u) != ref.Thread(old) || got.ScopeOf(u) != ref.ScopeOf(old) {
			t.Fatalf("induced(%v) node %d attributes or scope differ from base node %d", keep, u, old)
		}
		arcs += len(preds[i])
	}
	if got.NumArcs() != arcs {
		t.Fatalf("induced(%v) has %d arcs, want %d", keep, got.NumArcs(), arcs)
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatalf("induced(%v): %v", keep, err)
	}
}

// FuzzGraphKernels holds WeaklyConnectedComponents (components and their
// order), WeaklyConnected, WeaklyConnectedWithInputs, Convex and
// InducedSubgraph against the map-based oracles, over random forward
// DAGs and subsets, on a resident base and on the same graph spilled.
func FuzzGraphKernels(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(2), []byte{})
	f.Add(uint64(2), uint8(63), uint8(1), []byte{0xff})
	f.Add(uint64(3), uint8(64), uint8(3), []byte{0x55, 0xaa})
	f.Add(uint64(4), uint8(128), uint8(2), []byte{0x0f, 0xf0, 0x81})
	f.Add(uint64(5), uint8(200), uint8(4), []byte{0x13, 0x37, 0x00, 0xfe})
	f.Fuzz(func(t *testing.T, seed uint64, size, fan uint8, mask []byte) {
		n, k := int(size)+1, int(fan%4)+1
		resident := kernelGraph(seed, n, k)
		subs := kernelSubsets(n, mask)
		checkKernels(t, resident, resident, subs)

		spilled := kernelGraph(seed, n, k)
		if err := spilled.SpillArcs(SpillConfig{Dir: t.TempDir(), Budget: 64, SegmentBytes: 32}); err != nil {
			t.Fatalf("SpillArcs: %v", err)
		}
		defer spilled.CloseSpill()
		checkKernels(t, spilled, resident, subs)
	})
}

// TestGraphKernelsAgainstOracles runs the fuzz body over fixed seeds and
// every size across the word boundaries, so `go test` covers it too.
func TestGraphKernelsAgainstOracles(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 127, 128, 129, 200} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("n%d/seed%d", n, seed), func(t *testing.T) {
				g := kernelGraph(seed, n, int(seed))
				checkKernels(t, g, g, kernelSubsets(n, []byte{byte(seed * 37), 0x5a}))
			})
		}
	}
}

// TestInducedSubgraphRejectsBackwardArcs: a graph whose arcs do not all
// point to higher ids has no predecessor-first order, so InducedSubgraph
// refuses it loudly rather than building a wrong graph.
func TestInducedSubgraphRejectsBackwardArcs(t *testing.T) {
	g := cyclicGraph()
	defer func() {
		if recover() == nil {
			t.Fatal("InducedSubgraph accepted a backward arc")
		}
	}()
	g.InducedSubgraph(NewSet(0, 1, 2))
}
