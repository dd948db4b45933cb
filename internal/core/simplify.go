// Package core implements the iterative pattern finder of paper §5
// (Figure 4, Algorithm 1): DDG simplification, decomposition into loop and
// associative-component sub-DDGs, compaction, parallel constraint-based
// matching, subtraction, fusion, and merging, iterated to a fixpoint.
package core

import (
	"discovery/internal/ddg"
	"discovery/internal/mir"
)

// Simplify removes auxiliary computation from the DDG: memory address
// calculations, and arithmetic whose results flow only into address
// calculations (the analogue of the paper's generalized iterator
// recognition removing data-structure traversals). It returns the
// simplified graph.
//
// Note the side effect the paper documents as a limitation (§6.1): a
// computation whose output is used exclusively in addressing — such as the
// cluster index map in kmeans — loses its outgoing arcs, which later
// precludes matching it as a map (constraint 2d).
func Simplify(g *ddg.Graph) *ddg.Graph {
	n := g.NumNodes()
	removed := make([]bool, n)
	// Seed: all address-calculation nodes.
	for i := 0; i < n; i++ {
		if g.Op(ddg.NodeID(i)).Class() == mir.ClassAddr {
			removed[i] = true
		}
	}
	// Closure: remove computation and conversion nodes all of whose uses
	// were removed. Nodes with no uses at all stay: they are sinks of real
	// computation (e.g. comparisons feeding branches), not traversals.
	// Arcs of a traced DDG point to higher ids, so one pass in descending
	// id order meets every node after all its uses are final. Only a
	// decision made while a lower-id use was still kept can be stale; the
	// pass repeats while such decisions coexist with removals.
	for {
		changed, stale := false, false
		for i := n - 1; i >= 0; i-- {
			if removed[i] {
				continue
			}
			u := ddg.NodeID(i)
			class := g.Op(u).Class()
			if class != mir.ClassArith && class != mir.ClassConv {
				continue
			}
			succs := g.Succs(u)
			if len(succs) == 0 {
				continue
			}
			all := true
			for _, v := range succs {
				if !removed[v] {
					all, stale = false, stale || v < u
					break
				}
			}
			if all {
				removed[i] = true
				changed = true
			}
		}
		if !changed || !stale {
			break
		}
	}
	// Ascending and distinct by construction: already a Set.
	keep := make(ddg.Set, 0, n)
	for i := 0; i < n; i++ {
		if !removed[i] {
			keep = append(keep, ddg.NodeID(i))
		}
	}
	gs, _ := g.InducedSubgraph(keep)
	return gs
}
