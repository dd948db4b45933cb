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

// FuzzSubViewDiff checks SubView.DiffHash and Diff against Set.Diff and its
// Hash, and SubView.Intersect against Set.Intersect, in both argument
// orders and against the set itself; DiffHash sums over the smaller of the
// shared members and the difference, so the pairs reach both sides. Each
// byte of as and bs is one member id; shift moves the second set along the
// ids, so the two spans overlap, abut or lie words apart.
func FuzzSubViewDiff(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint16(0))                        // both empty
	f.Add([]byte{}, []byte{1, 2}, uint16(0))                    // one empty
	f.Add([]byte{1, 3, 5, 70}, []byte{2, 4, 6, 71}, uint16(0))  // disjoint, spans overlapping
	f.Add([]byte{1, 2, 3}, []byte{1, 2, 3}, uint16(200))        // spans words apart
	f.Add([]byte{60, 63}, []byte{0, 1}, uint16(64))             // spans abutting at 63/64
	f.Add([]byte{5, 64, 127}, []byte{64}, uint16(0))            // a member of both
	f.Add([]byte{63, 64, 127, 128}, []byte{64, 128}, uint16(0)) // word edges
	f.Add([]byte{62, 63, 64, 65, 126, 127, 128, 129}, []byte{63, 127}, uint16(0))
	f.Add([]byte{10, 70, 130}, []byte{10, 70, 130}, uint16(0))           // equal sets
	f.Add([]byte{0, 255}, []byte{0, 1, 2, 3, 4, 5, 6, 7}, uint16(60000)) // far apart
	f.Fuzz(func(t *testing.T, as, bs []byte, shift uint16) {
		idsOf := func(bs []byte, off NodeID) Set {
			ids := make([]NodeID, len(bs))
			for i, b := range bs {
				ids[i] = off + NodeID(b)
			}
			return NewSet(ids...)
		}
		a, b := idsOf(as, 0), idsOf(bs, NodeID(shift))
		g := new(Graph) // an overlay reads no more of its graph than the ids
		for _, p := range [][2]Set{{a, b}, {b, a}, {a, a}} {
			s, u := g.Overlay(p[0]), g.Overlay(p[1])
			want := p[0].Diff(p[1])
			h, n := s.DiffHash(u, p[0].Hash())
			if n != want.Len() || h != want.Hash() {
				t.Fatalf("%v \\ %v: DiffHash gave length %d, want %d, or a hash other than Set.Hash's",
					p[0], p[1], n, want.Len())
			}
			if got := s.Diff(u, n); !got.Equal(want) || cap(got) != n {
				t.Fatalf("%v \\ %v = %v (cap %d), want %v", p[0], p[1], got, cap(got), want)
			}
			if got, want := s.Intersect(u), p[0].Intersect(p[1]); !got.Equal(want) {
				t.Fatalf("%v ∩ %v = %v, want %v", p[0], p[1], got, want)
			}
		}
	})
}
