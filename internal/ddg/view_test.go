package ddg

import (
	"slices"
	"testing"

	"discovery/internal/mir"
)

// viewTestGraph: 0 -> 1 -> 2 -> 3, 1 -> 4 (same shape as hashTestGraph).
func viewTestGraph() *Graph {
	pos := func(i int) mir.Pos { return mir.Pos{File: "v.c", Line: i + 1} }
	return arcGraph(sameOps(mir.OpFAdd, 5), pos, [2]NodeID{0, 1}, [2]NodeID{1, 2}, [2]NodeID{2, 3}, [2]NodeID{1, 4})
}

func TestSubViewMembershipAndArcs(t *testing.T) {
	g := viewTestGraph()
	sv := g.Overlay(NewSet(0, 1, 2))

	if sv.Len() != 3 {
		t.Errorf("Len = %d, want 3", sv.Len())
	}
	for _, u := range []NodeID{0, 1, 2} {
		if !sv.Contains(u) {
			t.Errorf("Contains(%d) = false", u)
		}
	}
	for _, u := range []NodeID{3, 4} {
		if sv.Contains(u) {
			t.Errorf("Contains(%d) = true", u)
		}
	}

	// Member arcs, as matchers read them: the graph's arcs whose ends are
	// both members, 0->1 and 1->2. The arcs 2->3 and 1->4 leave the set.
	var arcs [][2]NodeID
	for _, u := range sv.Nodes() {
		for _, v := range g.Succs(u) {
			if sv.Contains(v) {
				arcs = append(arcs, [2]NodeID{u, v})
			}
		}
	}
	if want := [][2]NodeID{{0, 1}, {1, 2}}; !slices.Equal(arcs, want) {
		t.Errorf("member arcs = %v, want %v", arcs, want)
	}
}
