package core

import (
	"fmt"
	"testing"

	"discovery/internal/trace"
)

// TestSubtractKeyIsPoolKey checks the key subtract streams from two member
// masks, before it builds any difference, against the pool key of the
// difference built as a set: poolKey(g1.Nodes.Diff(g2.Nodes), loop,
// assoc). Every ordered pair of decomposed sub-DDGs that share a node is
// tried, on random programs, and the difference SubView.Diff builds must
// be that set, at exactly its size.
func TestSubtractKeyIsPoolKey(t *testing.T) {
	pairs := 0
	for seed := uint64(1); seed <= 40; seed++ {
		tr, err := trace.Run(genProgram(seed))
		if err != nil {
			t.Fatalf("seed %d: trace.Run: %v", seed, err)
		}
		gs := Simplify(tr.Graph)
		subs := Decompose(gs)
		ix := newNodeIndex(nodeSets(subs))
		for i, g1 := range subs {
			v := gs.Overlay(g1.Nodes)
			for _, j := range ix.sharing(g1.Nodes) {
				if int(j) == i {
					continue
				}
				pairs++
				g2 := gs.Overlay(subs[j].Nodes)
				h, n := v.DiffHash(g2)
				want := g1.Nodes.Diff(subs[j].Nodes)
				where := fmt.Sprintf("seed %d: %v minus %v", seed, g1, subs[j])
				if n != want.Len() {
					t.Fatalf("%s: streamed length %d, difference has %d nodes", where, n, want.Len())
				}
				if got := provenanceKey(h, g1.Loop, g1.Assoc); got != poolKey(want, g1.Loop, g1.Assoc) {
					t.Fatalf("%s: streamed key differs from the pool key of the built difference", where)
				}
				if got := v.Diff(g2, n); !got.Equal(want) || cap(got) != n {
					t.Fatalf("%s: Diff built %v (cap %d), want %v", where, got, cap(got), want)
				}
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no decomposed sub-DDGs shared a node; the test compared nothing")
	}
}
