package core

import (
	"fmt"
	"testing"

	"discovery/internal/patterns"
	"discovery/internal/trace"
)

// TestSubtractKeyIsPoolKey checks what subtract derives for a difference
// g1 \ g2 before it builds it, on every ordered pair of decomposed sub-DDGs
// that share a node in random programs, against the difference built as a
// set: the key from g1's set hash and the two member masks must be the
// pool key (SubDDG.Key) of g1.Nodes.Diff(g2.Nodes) under g1's provenance,
// the node set SubView.Diff builds must be that set at exactly its size,
// and the census derived from g1's must give a fresh census's verdicts.
// DiffHash sums over the smaller of g1 ∩ g2 and g1 \ g2, and the test
// fails unless both sides were taken.
func TestSubtractKeyIsPoolKey(t *testing.T) {
	pairs, fromShared := 0, 0
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
				h, n := v.DiffHash(g2, g1.Nodes.Hash())
				want := g1.Nodes.Diff(subs[j].Nodes)
				where := fmt.Sprintf("seed %d: %v minus %v", seed, g1, subs[j])
				if n != want.Len() {
					t.Fatalf("%s: derived length %d, difference has %d nodes", where, n, want.Len())
				}
				if g1.Nodes.Len()-n < n {
					fromShared++
				}
				built := &SubDDG{Nodes: want, Loop: g1.Loop, Assoc: g1.Assoc}
				if got := provenanceKey(h, g1.Loop, g1.Assoc); got != built.Key() {
					t.Fatalf("%s: derived key differs from the pool key of the built difference", where)
				}
				if got := v.Diff(g2, n); !got.Equal(want) || cap(got) != n {
					t.Fatalf("%s: Diff built %v (cap %d), want %v", where, got, cap(got), want)
				}
				for _, loop := range []bool{false, true} {
					vl := g1.viewLoop(loop)
					got := patterns.NewCensus(gs, v, vl).Without(gs, v, g2).Prescreen()
					fresh := patterns.PrescreenSub(gs, gs.Overlay(want), vl)
					if *got != *fresh {
						t.Fatalf("%s (loop %d): derived census %+v, fresh census %+v", where, vl, *got, *fresh)
					}
				}
			}
		}
	}
	if pairs == 0 || fromShared == 0 || fromShared == pairs {
		t.Fatalf("%d pairs, %d keyed from the shared nodes: both sides of DiffHash must be taken", pairs, fromShared)
	}
}
