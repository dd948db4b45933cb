package ddg

import (
	"fmt"
	"slices"
	"testing"
)

// wholeMask is the membership oracle an overlay's span-sized mask
// replaced: one bit per node id of the whole graph.
func wholeMask(g *Graph, nodes Set) []uint64 {
	mask := make([]uint64, (g.NumNodes()+63)/64)
	for _, u := range nodes {
		mask[u>>6] |= 1 << (u & 63)
	}
	return mask
}

func inMask(mask []uint64, u NodeID) bool {
	return int(u>>6) < len(mask) && mask[u>>6]&(1<<(u&63)) != 0
}

// TestOverlayMaskSpansMembers: a k-node overlay allocates the words its
// member ids span, not one word per 64 nodes of the whole graph, and
// answers false for ids on either side of that span.
func TestOverlayMaskSpansMembers(t *testing.T) {
	g := kernelGraph(7, 1000, 2)
	for _, tc := range []struct {
		nodes Set
		words int
	}{
		{NewSet(500), 1},
		{NewSet(64, 127), 1},
		{NewSet(63, 64), 2},
		{NewSet(70, 100, 130), 2},
		{NewSet(0, 999), 16},
	} {
		sv := g.Overlay(tc.nodes)
		if len(sv.mask) != tc.words || cap(sv.mask) != tc.words {
			t.Errorf("Overlay(%v): mask len %d cap %d, want %d words (whole graph: %d)",
				tc.nodes, len(sv.mask), cap(sv.mask), tc.words, (g.NumNodes()+63)/64)
		}
		lo, hi := tc.nodes[0], tc.nodes[len(tc.nodes)-1]
		below := []NodeID{0, lo - 1, lo &^ 63}
		above := []NodeID{hi + 1, hi | 63, (hi | 63) + 1, NodeID(g.NumNodes() - 1), NoNode}
		for _, u := range append(below, above...) {
			if u != lo && u != hi && sv.Contains(u) {
				t.Errorf("Overlay(%v).Contains(%d) = true outside the members", tc.nodes, u)
			}
		}
		for _, u := range tc.nodes {
			if !sv.Contains(u) {
				t.Errorf("Overlay(%v).Contains(%d) = false for a member", tc.nodes, u)
			}
		}
	}
}

// TestOverlayEmpty: the empty overlay allocates nothing and holds nothing.
func TestOverlayEmpty(t *testing.T) {
	g := kernelGraph(8, 130, 2)
	sv := g.Overlay(nil)
	if sv.mask != nil || sv.Len() != 0 {
		t.Errorf("empty overlay: mask %v, len %d", sv.mask, sv.Len())
	}
	for _, u := range []NodeID{0, 1, 64, 129, NoNode} {
		if sv.Contains(u) {
			t.Errorf("empty overlay contains %d", u)
		}
	}
}

// TestOverlayAgreesWithWholeGraphMask holds membership against the
// whole-graph mask, over subsets on and across word boundaries and over
// the intersection of every two of them.
func TestOverlayAgreesWithWholeGraphMask(t *testing.T) {
	for _, n := range []int{1, 64, 65, 129, 300} {
		g := kernelGraph(uint64(n), n, 3)
		subs := kernelSubsets(n, []byte{0x96, 0x3c, 0x01})
		for i, nodes := range subs {
			for j, other := range subs {
				t.Run(fmt.Sprintf("n%d/%d/%d", n, i, j), func(t *testing.T) {
					checkOverlay(t, g, nodes)
					checkOverlay(t, g, nodes.Intersect(other))
				})
			}
		}
	}
}

func checkOverlay(t *testing.T, g *Graph, nodes Set) {
	t.Helper()
	sv := g.Overlay(nodes)
	mask := wholeMask(g, nodes)
	if !slices.Equal(sv.Nodes(), nodes) || sv.Len() != len(nodes) {
		t.Fatalf("members %v (len %d), want %v", sv.Nodes(), sv.Len(), nodes)
	}
	for u := NodeID(0); int(u) < g.NumNodes(); u++ {
		if sv.Contains(u) != inMask(mask, u) {
			t.Fatalf("Contains(%d) = %t, whole-graph mask says %t", u, sv.Contains(u), inMask(mask, u))
		}
	}
}
