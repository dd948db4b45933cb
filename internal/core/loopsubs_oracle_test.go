package core

// The loop decomposition as the scope chains define it, kept apart from
// the iteration indexes that production reads it off, so that the oracles
// comparing against it stay independent of both.

import (
	"fmt"
	"slices"

	"discovery/internal/ddg"
	"discovery/internal/mir"
)

// scopeChainLoopSubs returns the loop sub-DDGs of g by bucketing every
// node under each distinct loop of its scope chain: by ascending loop id,
// each of at least two nodes.
func scopeChainLoopSubs(g *ddg.Graph) []*SubDDG {
	var byLoop []ddg.Set
	for i := 0; i < g.NumNodes(); i++ {
		u := ddg.NodeID(i)
		var seen []mir.LoopID
		for f := g.ScopeOf(u); f != nil; f = f.Parent {
			if slices.Contains(seen, f.Loop) {
				continue
			}
			seen = append(seen, f.Loop)
			if int(f.Loop) >= len(byLoop) {
				byLoop = append(byLoop, make([]ddg.Set, int(f.Loop)+1-len(byLoop))...)
			}
			byLoop[f.Loop] = append(byLoop[f.Loop], u)
		}
	}
	var subs []*SubDDG
	for id, nodes := range byLoop {
		if len(nodes) >= 2 {
			subs = append(subs, &SubDDG{Nodes: nodes, Loop: mir.LoopID(id)})
		}
	}
	return subs
}

// loopSubsDiff compares loopSubs on g with the scope-chain bucketing and
// returns their first disagreement; nil means they agreed.
func loopSubsDiff(g *ddg.Graph) error {
	got, want := loopSubs(g), scopeChainLoopSubs(g)
	if len(got) != len(want) {
		return fmt.Errorf("%d loop sub-DDGs, the scope chains give %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Loop != want[i].Loop || !slices.Equal(got[i].Nodes, want[i].Nodes) {
			return fmt.Errorf("loop sub-DDG %d is loop %d of %d nodes, the scope chains give loop %d of %d nodes",
				i, got[i].Loop, got[i].Nodes.Len(), want[i].Loop, want[i].Nodes.Len())
		}
	}
	return nil
}
