package ddg

import (
	"slices"
	"sort"
	"strings"

	"discovery/internal/mir"
)

// This file implements the graph algorithms that back the pattern
// definitions of paper §4: weak connectivity (1d), reachability and
// convexity (1e, 3c), induced-subgraph boundaries (2c, 2d, 3e, 3f), and the
// operation-labelled isomorphism relaxation (1c, 4c).

// WeaklyConnectedComponents partitions the induced subgraph over nodes into
// its weakly connected components, returned in deterministic order (by
// smallest member id), members ascending, as Partition lays them out.
func (g *Graph) WeaklyConnectedComponents(nodes Set) []Set {
	return g.componentsOf(nodes, 1)
}

// NontrivialComponents returns the weakly connected components of at least
// two nodes of the induced subgraph over nodes, in the order
// WeaklyConnectedComponents lists them. A singleton gets no set, so a
// mostly disconnected input costs its labels and its nontrivial members.
func (g *Graph) NontrivialComponents(nodes Set) []Set {
	return g.componentsOf(nodes, 2)
}

func (g *Graph) componentsOf(nodes Set, minLen int) []Set {
	comp, k := g.componentLabels(nodes)
	if k == 0 {
		return nil
	}
	return Partition(nodes, comp, k, minLen)
}

// componentLabels runs union-find over positions in the sorted set nodes,
// following the induced subgraph's arcs, and labels each position with its
// component: labels number the components 0..k-1 in order of their
// smallest member. Unions link toward the smaller position, so every root
// is its component's smallest position and parent[i] <= i throughout;
// one forward pass then resolves each position to its root.
//
// Each arc is found from its head, among the positions before it: an
// operand count bounds a node's predecessors, where a shared input's
// successors can be its whole fan-out, which every set extended by that
// input (WeaklyConnectedWithInputs) would read again.
func (g *Graph) componentLabels(nodes Set) (comp []int32, k int) {
	n := len(nodes)
	if n == 0 {
		return nil, 0
	}
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(i int32) int32 {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	lo := nodes[0]
	for i, u := range nodes {
		for _, v := range g.Preds(u) {
			if v < lo {
				continue
			}
			j := nodes[:i].IndexOf(v)
			if j < 0 {
				continue
			}
			ri, rj := find(int32(i)), find(int32(j))
			if ri < rj {
				parent[rj] = ri
			} else if rj < ri {
				parent[ri] = rj
			}
		}
	}
	// parent[i] <= i, so one forward pass can overwrite parents with
	// labels in place: a non-root takes the label of its parent, which
	// shares its component and was labelled earlier in the pass.
	for i, p := range parent {
		if p == int32(i) {
			parent[i] = int32(k)
			k++
		} else {
			parent[i] = parent[p]
		}
	}
	return parent, k
}

// WeaklyConnected reports whether the induced subgraph over nodes is
// weakly connected (constraint 1d).
func (g *Graph) WeaklyConnected(nodes Set) bool {
	if len(nodes) <= 1 {
		return true
	}
	_, k := g.componentLabels(nodes)
	return k == 1
}

// WeaklyConnectedWithInputs checks constraint (1d) under the relaxation
// required by this IR's transparent loads: two operations that read the
// same value are connected through its defining node, which in LLVM's DDG
// would be the load node inside the component. The component is accepted
// if all its nodes fall in one weakly connected component of the subgraph
// induced by the component plus its direct external predecessors.
func (g *Graph) WeaklyConnectedWithInputs(nodes Set) bool {
	if len(nodes) <= 1 {
		return true
	}
	var preds []NodeID
	for _, u := range nodes {
		preds = append(preds, g.Preds(u)...)
	}
	return g.connectedWithin(nodes, nodes.Union(NewSet(preds...)))
}

// connectedWithin reports whether every node of nodes falls in one weakly
// connected component of the subgraph induced by extended ⊇ nodes.
func (g *Graph) connectedWithin(nodes, extended Set) bool {
	comp, _ := g.componentLabels(extended)
	// nodes ⊆ extended, both sorted: one merge walk finds each position.
	want, j := int32(-1), 0
	for _, u := range nodes {
		for extended[j] != u {
			j++
		}
		if want < 0 {
			want = comp[j]
		} else if comp[j] != want {
			return false
		}
	}
	return true
}

// Reaches reports whether there is a (possibly empty) path from u to v in
// the whole graph.
func (g *Graph) Reaches(u, v NodeID) bool {
	if u == v {
		return true
	}
	seen := map[NodeID]bool{u: true}
	stack := []NodeID{u}
	for len(stack) > 0 {
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, x := range g.Succs(w) {
			if x == v {
				return true
			}
			if !seen[x] {
				seen[x] = true
				stack = append(stack, x)
			}
		}
	}
	return false
}

// Convex checks pattern convexity (constraint 1e) of the node set within
// the ambient node set: no path may leave the set and re-enter it. ambient
// may be nil to mean the whole graph.
//
// Traced DDGs satisfy a topological-id invariant — every arc goes from a
// lower to a higher node id, because a value's defining execution precedes
// its uses in time (and InducedSubgraph renumbers in sorted order, which
// preserves it). A path that leaves the set and re-enters it therefore
// never passes through exterior nodes above the set's maximum id (ids only
// grow along the path, and re-entry lands at an id ≤ max) nor below its
// minimum (symmetrically, backwards); both searches prune accordingly,
// which keeps the check local to the pattern's id range.
//
// Both searches therefore stay inside the window [minID, maxID], and
// their marks are bitsets over it: open holds the exterior nodes a path
// may pass through (ambient and not in the set), fwd the ones reachable
// from the set. The backward search stops at the first open node that
// reaches the set and is forward-marked: a path leaves and re-enters.
func (g *Graph) Convex(nodes Set, ambient Set) bool {
	if len(nodes) == 0 {
		return true
	}
	minID, maxID := nodes[0], nodes[len(nodes)-1]
	width := int(maxID-minID) + 1
	words := (width + 63) >> 6
	bits := make([]uint64, 3*words)
	open, fwd, bwd := bits[:words], bits[words:2*words], bits[2*words:]
	if ambient == nil {
		for w := range open {
			open[w] = ^uint64(0)
		}
	} else {
		lo, _ := slices.BinarySearch(ambient, minID)
		for _, u := range ambient[lo:] {
			if u > maxID {
				break
			}
			i := u - minID
			open[i>>6] |= 1 << (i & 63)
		}
	}
	for _, u := range nodes {
		i := u - minID
		open[i>>6] &^= 1 << (i & 63)
	}
	// Forward: exterior nodes reachable from the set. Successors of the
	// set's members lie above minID, so only the bound at maxID is tested.
	var stack []NodeID
	pushF := func(v NodeID) {
		if v >= maxID {
			return
		}
		i, m := v-minID, uint64(1)<<((v-minID)&63)
		if open[i>>6]&m != 0 && fwd[i>>6]&m == 0 {
			fwd[i>>6] |= m
			stack = append(stack, v)
		}
	}
	for _, u := range nodes {
		for _, v := range g.Succs(u) {
			pushF(v)
		}
	}
	if len(stack) == 0 {
		return true
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.Succs(u) {
			pushF(v)
		}
	}
	// Backward: exterior nodes that reach the set (bounded by minID). One
	// that is also forward-marked witnesses a path that leaves and
	// re-enters: not convex.
	pushB := func(v NodeID) bool {
		if v <= minID {
			return true
		}
		i, m := v-minID, uint64(1)<<((v-minID)&63)
		if open[i>>6]&m == 0 || bwd[i>>6]&m != 0 {
			return true
		}
		if fwd[i>>6]&m != 0 {
			return false
		}
		bwd[i>>6] |= m
		stack = append(stack, v)
		return true
	}
	for _, u := range nodes {
		for _, v := range g.Preds(u) {
			if !pushB(v) {
				return false
			}
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.Preds(u) {
			if !pushB(v) {
				return false
			}
		}
	}
	return true
}

// Boundary classifies the arcs crossing a node set's boundary within an
// ambient set (nil = whole graph).
type Boundary struct {
	// In holds external predecessors feeding the set; Out holds external
	// successors fed by the set, keyed by the internal endpoint.
	In  map[NodeID][]NodeID // internal node -> external sources
	Out map[NodeID][]NodeID // internal node -> external sinks
}

// BoundaryOf computes the boundary arcs of nodes within ambient.
func (g *Graph) BoundaryOf(nodes Set, ambient Set) Boundary {
	var inAmbient func(NodeID) bool
	if ambient == nil {
		inAmbient = func(NodeID) bool { return true }
	} else {
		inAmbient = ambient.Contains
	}
	b := Boundary{In: map[NodeID][]NodeID{}, Out: map[NodeID][]NodeID{}}
	for _, u := range nodes {
		for _, v := range g.Preds(u) {
			if inAmbient(v) && !nodes.Contains(v) {
				b.In[u] = append(b.In[u], v)
			}
		}
		for _, v := range g.Succs(u) {
			if inAmbient(v) && !nodes.Contains(v) {
				b.Out[u] = append(b.Out[u], v)
			}
		}
	}
	return b
}

// HasExternalIn reports whether any node of the set has an incoming arc
// from outside the set (within ambient).
func (g *Graph) HasExternalIn(nodes Set, ambient Set) bool {
	b := g.BoundaryOf(nodes, ambient)
	return len(b.In) > 0
}

// HasExternalOut reports whether any node of the set has an outgoing arc to
// outside the set (within ambient).
func (g *Graph) HasExternalOut(nodes Set, ambient Set) bool {
	b := g.BoundaryOf(nodes, ambient)
	return len(b.Out) > 0
}

// ArcsBetween returns the arcs from set a into set b.
func (g *Graph) ArcsBetween(a, b Set) [][2]NodeID {
	var arcs [][2]NodeID
	for _, u := range a {
		for _, v := range g.Succs(u) {
			if b.Contains(v) {
				arcs = append(arcs, [2]NodeID{u, v})
			}
		}
	}
	return arcs
}

// FlowsInto reports the fusion precondition of paper §5: all arcs from a
// flow into b — every outgoing arc of a lands in b (a's output is consumed
// exclusively by b), there is at least one such arc, and no arc flows back
// from b to a. Arcs into a from elsewhere are unconstrained.
func (g *Graph) FlowsInto(a, b Set) bool {
	found := false
	for _, u := range a {
		for _, v := range g.Succs(u) {
			if a.Contains(v) {
				continue
			}
			if !b.Contains(v) {
				return false
			}
			found = true
		}
	}
	if !found {
		return false
	}
	return len(g.ArcsBetween(b, a)) == 0
}

// LabelKey returns an opaque canonical key for the operation multiset of a
// node set (a counting sort over the operation codes). Two components with
// equal label keys are isomorphic under the relaxation used by the pattern
// models (constraints 1c and 4c; see paper §5, Pattern Matching, on
// relaxing isomorphism).
func (g *Graph) LabelKey(nodes Set) string {
	var counts [256]uint32
	for _, u := range nodes {
		counts[g.ops[u]]++
	}
	buf := make([]byte, 0, len(nodes))
	for op, c := range counts {
		for ; c > 0; c-- {
			buf = append(buf, byte(op))
		}
	}
	return string(buf)
}

// OpSetKey returns the coarser operation-set label (duplicates collapsed).
// Conditional patterns compare op-set labels, since components that skip
// their conditional branch execute strictly fewer operations.
func (g *Graph) OpSetKey(nodes Set) string {
	seen := map[string]bool{}
	var names []string
	for _, u := range nodes {
		n := g.ops[u].String()
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// OpSetSubset reports whether the operation set of a is a subset of the
// operation set of b.
func (g *Graph) OpSetSubset(a, b Set) bool {
	have := map[mir.Op]bool{}
	for _, u := range b {
		have[g.ops[u]] = true
	}
	for _, u := range a {
		if !have[g.ops[u]] {
			return false
		}
	}
	return true
}

// AllAssociative reports whether every node in the set executes the same
// associative operation, returning that operation. This is the paper's
// under-approximation of the associativity test (3b): each reduction
// component is a single node whose operation is known to be associative.
func (g *Graph) AllAssociative(nodes Set) (mir.Op, bool) {
	if len(nodes) == 0 {
		return mir.OpInvalid, false
	}
	op := g.ops[nodes[0]]
	if !op.Associative() {
		return mir.OpInvalid, false
	}
	for _, u := range nodes[1:] {
		if g.ops[u] != op {
			return mir.OpInvalid, false
		}
	}
	return op, true
}
