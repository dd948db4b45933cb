package ddg

// Read-only graph views. GraphView is the interface pattern matching and
// verification consume instead of the concrete *Graph, and SubView is the
// membership mask of one node subset of a frozen graph: a bitset over the
// words between the least and greatest member id, so deriving a sub-DDG's
// mask is O(|nodes| + span/64), span being that id range, rather than
// O(n + m). Matchers read the whole graph's CSR arrays and test arc ends
// against the mask; nothing of the adjacency is copied and node ids are
// preserved. InducedSubgraph remains for simplification, which genuinely
// rebuilds the graph.

import (
	"math/bits"

	"discovery/internal/mir"
)

// GraphView is the read-only graph surface the pattern definitions (§4)
// and Algorithm 1's matching phase need: node attributes, CSR adjacency,
// loop scopes, and the derived analyses of algo.go. *Graph is its one
// implementation; the interface stays so that tests can substitute a
// graph that instruments what the checks read through it (the verifier's
// work-count test counts adjacency reads this way).
type GraphView interface {
	NumNodes() int
	Op(u NodeID) mir.Op
	Pos(u NodeID) mir.Pos
	ScopeOf(u NodeID) *Scope
	// LoopIterIndex returns the compaction index for a static loop, which
	// the graph derives from its scope chains (see iterindex.go), or nil
	// when no node ran inside the loop; compacted views group by it.
	LoopIterIndex(loop mir.LoopID) *LoopIterIndex

	// Succs and Preds return adjacency slices the caller must not mutate.
	Succs(u NodeID) []NodeID
	Preds(u NodeID) []NodeID

	// Overlay returns the membership mask of a node subset.
	Overlay(nodes Set) *SubView

	// Derived analyses (see algo.go for the constraint each one backs).
	Convex(nodes, ambient Set) bool
	Reaches(u, v NodeID) bool
	WeaklyConnectedComponents(nodes Set) []Set
	WeaklyConnectedWithInputs(nodes Set) bool
	ArcsBetween(a, b Set) [][2]NodeID
	HasExternalIn(nodes, ambient Set) bool
	HasExternalOut(nodes, ambient Set) bool
	LabelKey(nodes Set) string
	OpSetKey(nodes Set) string
	OpSetSubset(a, b Set) bool
	AllAssociative(nodes Set) (mir.Op, bool)
}

var _ GraphView = (*Graph)(nil)

// Overlay returns the membership mask of nodes in the graph. The node set
// is retained (not copied); callers must not mutate it afterwards.
func (g *Graph) Overlay(nodes Set) *SubView {
	sv := &SubView{nodes: nodes}
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

// SubView is the member set of one node subset of a graph, with an O(1)
// membership test. Node ids are the graph's ids; callers read arcs from
// the graph and keep those whose ends are members.
type SubView struct {
	nodes Set
	// mask is the membership bitset over the words the member set spans:
	// mask[w] holds ids [64(word0+w), 64(word0+w+1)).
	mask  []uint64
	word0 int
}

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

// word returns the mask word holding ids [64w, 64w+64): zero outside the
// span the mask covers.
func (sv *SubView) word(w int) uint64 {
	if i := w - sv.word0; uint(i) < uint(len(sv.mask)) {
		return sv.mask[i]
	}
	return 0
}

// DiffHash returns the Hash and Len of the member difference sv \ b
// without building it, given h, the Hash of sv's members. One popcount
// pass over the words both masks span counts the members they share, and
// so the difference's size. The hash is summed over the smaller side: h
// less the shared ids' terms, or the difference's own terms. Both must be
// overlays of one graph.
func (sv *SubView) DiffHash(b *SubView, h Hash128) (Hash128, int) {
	lo, hi := sv.overlap(b)
	common := 0
	for w := lo; w < hi; w++ {
		common += bits.OnesCount64(sv.mask[w-sv.word0] & b.mask[w-b.word0])
	}
	n := len(sv.nodes) - common
	if common < n {
		for w := lo; w < hi; w++ {
			base := uint64(w) << 6
			for m := sv.mask[w-sv.word0] & b.mask[w-b.word0]; m != 0; m &= m - 1 {
				h = h.sub(idHash(NodeID(base + uint64(bits.TrailingZeros64(m)))))
			}
		}
		return h, n
	}
	var d Hash128
	for i, m := range sv.mask {
		base := uint64(sv.word0+i) << 6
		for m &^= b.word(sv.word0 + i); m != 0; m &= m - 1 {
			d = d.add(idHash(NodeID(base + uint64(bits.TrailingZeros64(m)))))
		}
	}
	return d, n
}

// overlap returns the range [lo, hi) of mask words that both sv's and b's
// masks span; it is empty when their id ranges do not meet.
func (sv *SubView) overlap(b *SubView) (lo, hi int) {
	return max(sv.word0, b.word0), min(sv.word0+len(sv.mask), b.word0+len(b.mask))
}

// Intersect returns the member intersection sv ∩ b, read from the mask
// words both masks span.
func (sv *SubView) Intersect(b *SubView) Set {
	lo, hi := sv.overlap(b)
	var out Set
	for w := lo; w < hi; w++ {
		base := NodeID(w) << 6
		for m := sv.mask[w-sv.word0] & b.mask[w-b.word0]; m != 0; m &= m - 1 {
			out = append(out, base+NodeID(bits.TrailingZeros64(m)))
		}
	}
	return out
}

// Diff returns the member difference sv \ b, of n nodes as DiffHash
// counted them, in a set allocated at exactly that size.
func (sv *SubView) Diff(b *SubView, n int) Set {
	out := make(Set, 0, n)
	for i, m := range sv.mask {
		base := NodeID(sv.word0+i) << 6
		for m &^= b.word(sv.word0 + i); m != 0; m &= m - 1 {
			out = append(out, base+NodeID(bits.TrailingZeros64(m)))
		}
	}
	return out
}
