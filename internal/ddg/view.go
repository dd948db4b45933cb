package ddg

// Read-only graph views. GraphView is the interface pattern matching and
// verification consume instead of the concrete *Graph, and SubView is a
// zero-copy restriction of a frozen graph to a node subset: a bitset
// membership mask over the shared CSR arrays, with arcs filtered on the
// fly. It replaces materialized sub-graphs on the matching path — node ids
// are preserved (no renumbering, no remap tables) and nothing of the
// adjacency is copied. The mask covers only the words between the least
// and greatest member id, so deriving a sub-DDG view is O(|nodes| +
// span/64), span being that id range, rather than O(n + m).
// InducedSubgraph remains for simplification, which genuinely rebuilds
// the graph.

import "discovery/internal/mir"

// GraphView is the read-only graph surface the pattern definitions (§4)
// and Algorithm 1's matching phase need: node attributes, CSR adjacency,
// loop scopes, and the derived analyses of algo.go. Both *Graph (the whole
// frozen DDG) and *SubView (a zero-copy restriction of one) implement it.
type GraphView interface {
	NumNodes() int
	NumArcs() int
	Op(u NodeID) mir.Op
	Pos(u NodeID) mir.Pos
	Thread(u NodeID) int32
	ScopeOf(u NodeID) *Scope
	IterationOf(u NodeID, loop mir.LoopID) (IterationKey, bool)
	// LoopIterIndex returns the compaction index for a static loop, which
	// the graph derives from its scope chains (see iterindex.go), or nil
	// when no node ran inside the loop; compacted views group by it.
	LoopIterIndex(loop mir.LoopID) *LoopIterIndex

	// Succs and Preds return adjacency slices the caller must not mutate.
	// On a SubView they are filtered to members (and allocate); hot paths
	// on a SubView should prefer EachSucc/EachPred via the concrete type.
	Succs(u NodeID) []NodeID
	Preds(u NodeID) []NodeID

	// Overlay restricts the view to a node subset without copying; on a
	// SubView the subset is intersected with the existing members.
	Overlay(nodes Set) *SubView
	// Fingerprint hashes everything matching can observe (see
	// Graph.Fingerprint); a SubView folds its member set into the base's.
	Fingerprint() Hash128

	// Derived analyses (see algo.go for the constraint each one backs).
	Convex(nodes, ambient Set) bool
	Reaches(u, v NodeID) bool
	WeaklyConnectedComponents(nodes Set) []Set
	WeaklyConnected(nodes Set) bool
	WeaklyConnectedWithInputs(nodes Set) bool
	ArcsBetween(a, b Set) [][2]NodeID
	HasExternalIn(nodes, ambient Set) bool
	HasExternalOut(nodes, ambient Set) bool
	FlowsInto(a, b Set) bool
	LabelKey(nodes Set) string
	OpSetKey(nodes Set) string
	OpSetSubset(a, b Set) bool
	AllAssociative(nodes Set) (mir.Op, bool)
}

var (
	_ GraphView = (*Graph)(nil)
	_ GraphView = (*SubView)(nil)
)

// Overlay returns the zero-copy restriction of the graph to nodes. The
// node set is retained (not copied); callers must not mutate it afterwards.
func (g *Graph) Overlay(nodes Set) *SubView {
	sv := &SubView{base: g, nodes: nodes, arcs: -1}
	if len(nodes) == 0 {
		return sv
	}
	// The mask spans only the words between the first and last member.
	sv.word0 = int(nodes[0] >> 6)
	sv.mask = make([]uint64, int(nodes[len(nodes)-1]>>6)-sv.word0+1)
	for _, u := range nodes {
		sv.mask[int(u>>6)-sv.word0] |= 1 << (u & 63)
	}
	return sv
}

// SubView is a read-only restriction of a base graph to a member node set.
// Node ids are the base graph's ids; arcs are the base arcs with both
// endpoints in the member set, filtered during iteration rather than
// stored. The id space (NumNodes) stays the base's, so position-indexed
// algorithms work unchanged; Len reports the member count.
type SubView struct {
	base  *Graph
	nodes Set
	// mask is the membership bitset over the words the member set spans:
	// mask[w] holds ids [64(word0+w), 64(word0+w+1)).
	mask  []uint64
	word0 int

	arcs int // member-to-member arc count, computed lazily (-1 until then)

	fp     Hash128
	hashed bool
}

// Base returns the underlying whole graph.
func (sv *SubView) Base() *Graph { return sv.base }

// Nodes returns the member set (shared; do not mutate).
func (sv *SubView) Nodes() Set { return sv.nodes }

// Len returns the number of member nodes.
func (sv *SubView) Len() int { return len(sv.nodes) }

// Contains reports membership in O(1) via the bitset mask; ids outside
// the span the mask covers are never members.
func (sv *SubView) Contains(u NodeID) bool {
	w := int(u>>6) - sv.word0
	return uint(w) < uint(len(sv.mask)) && sv.mask[w]&(1<<(u&63)) != 0
}

// EachSucc calls fn for every member successor of u, without allocating.
// Iteration stops early when fn returns false.
func (sv *SubView) EachSucc(u NodeID, fn func(v NodeID) bool) {
	for _, v := range sv.base.Succs(u) {
		if sv.Contains(v) && !fn(v) {
			return
		}
	}
}

// EachPred calls fn for every member predecessor of u, without allocating.
// Iteration stops early when fn returns false.
func (sv *SubView) EachPred(u NodeID, fn func(v NodeID) bool) {
	for _, v := range sv.base.Preds(u) {
		if sv.Contains(v) && !fn(v) {
			return
		}
	}
}

// --- GraphView: node attributes delegate to the base (ids are shared). ---

// NumNodes returns the base graph's id-space size (not the member count),
// so position-indexed algorithms remain valid on shared ids.
func (sv *SubView) NumNodes() int { return sv.base.NumNodes() }

// NumArcs returns the number of arcs with both endpoints in the member
// set, counted lazily on first call.
func (sv *SubView) NumArcs() int {
	if sv.arcs < 0 {
		n := 0
		for _, u := range sv.nodes {
			sv.EachSucc(u, func(NodeID) bool { n++; return true })
		}
		sv.arcs = n
	}
	return sv.arcs
}

// Op returns the operation of node u (valid for any base id).
func (sv *SubView) Op(u NodeID) mir.Op { return sv.base.Op(u) }

// Pos returns the source position of node u.
func (sv *SubView) Pos(u NodeID) mir.Pos { return sv.base.Pos(u) }

// Thread returns the executing thread of node u.
func (sv *SubView) Thread(u NodeID) int32 { return sv.base.Thread(u) }

// ScopeOf returns the loop scope of node u.
func (sv *SubView) ScopeOf(u NodeID) *Scope { return sv.base.ScopeOf(u) }

// IterationOf delegates to the base graph.
func (sv *SubView) IterationOf(u NodeID, loop mir.LoopID) (IterationKey, bool) {
	return sv.base.IterationOf(u, loop)
}

// LoopIterIndex delegates to the base graph: node ids are shared, so the
// base's ordinals apply to the restriction unchanged.
func (sv *SubView) LoopIterIndex(loop mir.LoopID) *LoopIterIndex {
	return sv.base.LoopIterIndex(loop)
}

// Succs returns the member successors of u. Unlike the base's CSR slice
// this allocates; prefer EachSucc on hot paths.
func (sv *SubView) Succs(u NodeID) []NodeID {
	var out []NodeID
	sv.EachSucc(u, func(v NodeID) bool { out = append(out, v); return true })
	return out
}

// Preds returns the member predecessors of u (allocates; prefer EachPred).
func (sv *SubView) Preds(u NodeID) []NodeID {
	var out []NodeID
	sv.EachPred(u, func(v NodeID) bool { out = append(out, v); return true })
	return out
}

// Overlay restricts further: the new view's members are the intersection
// with the current member set, still backed by the same base graph.
func (sv *SubView) Overlay(nodes Set) *SubView {
	return sv.base.Overlay(nodes.Intersect(sv.nodes))
}

// Fingerprint combines the base fingerprint with the member set, so equal
// restrictions of equal graphs — and nothing else — hash equally.
func (sv *SubView) Fingerprint() Hash128 {
	if !sv.hashed {
		h := NewHasher(hashSeedSubView)
		h.Hash(sv.base.Fingerprint())
		h.Hash(sv.nodes.Hash())
		sv.fp = h.Sum()
		sv.hashed = true
	}
	return sv.fp
}

const hashSeedSubView = 0x5ab0dd6e4f1c2b93

// --- GraphView: derived analyses, restricted to member arcs. ---
//
// Set-in/set-out analyses delegate to the base over member-intersected
// sets: an arc between members of a subset is necessarily a member arc, so
// the base algorithm over the intersected sets computes the restricted
// answer. Analyses that walk out of the given set (reachability, boundary,
// convexity) are restricted explicitly.

// Convex checks convexity of nodes within ambient, where a nil ambient
// means the member set (not the whole base graph).
func (sv *SubView) Convex(nodes, ambient Set) bool {
	if ambient == nil {
		ambient = sv.nodes
	} else {
		ambient = ambient.Intersect(sv.nodes)
	}
	return sv.base.Convex(nodes.Intersect(sv.nodes), ambient)
}

// Reaches reports u ->* v through member nodes only.
func (sv *SubView) Reaches(u, v NodeID) bool {
	if !sv.Contains(u) || !sv.Contains(v) {
		return false
	}
	if u == v {
		return true
	}
	seen := map[NodeID]bool{u: true}
	stack := []NodeID{u}
	found := false
	for len(stack) > 0 && !found {
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		sv.EachSucc(w, func(x NodeID) bool {
			if x == v {
				found = true
				return false
			}
			if !seen[x] {
				seen[x] = true
				stack = append(stack, x)
			}
			return true
		})
	}
	return found
}

// WeaklyConnectedComponents partitions nodes ∩ members under member arcs.
func (sv *SubView) WeaklyConnectedComponents(nodes Set) []Set {
	return sv.base.WeaklyConnectedComponents(nodes.Intersect(sv.nodes))
}

// WeaklyConnected reports weak connectivity under member arcs.
func (sv *SubView) WeaklyConnected(nodes Set) bool {
	return sv.base.WeaklyConnected(nodes.Intersect(sv.nodes))
}

// WeaklyConnectedWithInputs is the base relaxation with the extension
// restricted to member predecessors.
func (sv *SubView) WeaklyConnectedWithInputs(nodes Set) bool {
	nodes = nodes.Intersect(sv.nodes)
	if len(nodes) <= 1 {
		return true
	}
	var preds []NodeID
	for _, u := range nodes {
		sv.EachPred(u, func(v NodeID) bool { preds = append(preds, v); return true })
	}
	return sv.base.connectedWithin(nodes, nodes.Union(NewSet(preds...)))
}

// ArcsBetween returns the member arcs from a ∩ members into b ∩ members.
func (sv *SubView) ArcsBetween(a, b Set) [][2]NodeID {
	return sv.base.ArcsBetween(a.Intersect(sv.nodes), b.Intersect(sv.nodes))
}

// HasExternalIn reports an in-arc from ambient∖nodes into nodes, where a
// nil ambient means the member set.
func (sv *SubView) HasExternalIn(nodes, ambient Set) bool {
	if ambient == nil {
		ambient = sv.nodes
	} else {
		ambient = ambient.Intersect(sv.nodes)
	}
	return sv.base.HasExternalIn(nodes.Intersect(sv.nodes), ambient)
}

// HasExternalOut reports an out-arc from nodes into ambient∖nodes, where a
// nil ambient means the member set.
func (sv *SubView) HasExternalOut(nodes, ambient Set) bool {
	if ambient == nil {
		ambient = sv.nodes
	} else {
		ambient = ambient.Intersect(sv.nodes)
	}
	return sv.base.HasExternalOut(nodes.Intersect(sv.nodes), ambient)
}

// FlowsInto reports the fusion precondition over member arcs only.
func (sv *SubView) FlowsInto(a, b Set) bool {
	a, b = a.Intersect(sv.nodes), b.Intersect(sv.nodes)
	found := false
	for _, u := range a {
		ok := true
		sv.EachSucc(u, func(v NodeID) bool {
			if a.Contains(v) {
				return true
			}
			if !b.Contains(v) {
				ok = false
				return false
			}
			found = true
			return true
		})
		if !ok {
			return false
		}
	}
	if !found {
		return false
	}
	return len(sv.ArcsBetween(b, a)) == 0
}

// LabelKey returns the operation-multiset key of nodes ∩ members.
func (sv *SubView) LabelKey(nodes Set) string {
	return sv.base.LabelKey(nodes.Intersect(sv.nodes))
}

// OpSetKey returns the operation-set key of nodes ∩ members.
func (sv *SubView) OpSetKey(nodes Set) string {
	return sv.base.OpSetKey(nodes.Intersect(sv.nodes))
}

// OpSetSubset reports op-set containment over member-intersected sets.
func (sv *SubView) OpSetSubset(a, b Set) bool {
	return sv.base.OpSetSubset(a.Intersect(sv.nodes), b.Intersect(sv.nodes))
}

// AllAssociative reports the single associative operation of nodes ∩
// members, if any.
func (sv *SubView) AllAssociative(nodes Set) (mir.Op, bool) {
	return sv.base.AllAssociative(nodes.Intersect(sv.nodes))
}
