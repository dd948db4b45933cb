package core

import (
	"slices"

	"discovery/internal/ddg"
)

// nodeIndex is an inverted index from the nodes of the simplified graph
// to the sets that contain them, in CSR form: the positions (into the
// slice the index was built from) of the sets holding node v are
// pos[off[v]:off[v+1]], ascending. Subtract, fuse, merge and pipeline
// detection build one per phase over the sets they compare, so each asks
// only the partners that can pass its test instead of every pair.
//
// Nodes of one loop iteration or one pattern component are numbered
// consecutively and usually belong to exactly the same sets, and long id
// ranges belong to none. runEnd[v] is the first node after v whose list
// differs from v's, so a query reads each such run's list once and jumps
// over the rest of it.
type nodeIndex struct {
	sets   []ddg.Set
	off    []int32
	pos    []int32
	runEnd []int32
	// live counts the non-empty indexed sets: once a query has met them
	// all, the rest of its walk cannot add anything.
	live int
}

// newNodeIndex indexes sets by node. A nil or empty set is simply absent
// from every list, which is how callers leave out the sets a phase never
// pairs with.
func newNodeIndex(sets []ddg.Set) *nodeIndex {
	n, live := 0, 0
	for _, s := range sets {
		if len(s) > 0 {
			live++
			n = max(n, int(s[len(s)-1])+1)
		}
	}
	off := make([]int32, n+1)
	for _, s := range sets {
		for _, v := range s {
			off[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	// Fill with off[v] as node v's cursor, which leaves it at the start of
	// v+1's list; shifting by one restores the offsets.
	pos := make([]int32, off[n])
	for i, s := range sets {
		for _, v := range s {
			pos[off[v]] = int32(i)
			off[v]++
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0
	ix := &nodeIndex{sets: sets, off: off, pos: pos, runEnd: make([]int32, n), live: live}
	for v := n - 1; v >= 0; v-- {
		ix.runEnd[v] = int32(v + 1)
		if v+1 < n && slices.Equal(ix.list(ddg.NodeID(v)), ix.list(ddg.NodeID(v+1))) {
			ix.runEnd[v] = ix.runEnd[v+1]
		}
	}
	return ix
}

// nodeSets returns the node sets of subs, in order: the input of a node
// index over them.
func nodeSets(subs []*SubDDG) []ddg.Set {
	sets := make([]ddg.Set, len(subs))
	for i, s := range subs {
		sets[i] = s.Nodes
	}
	return sets
}

// list returns the ascending positions of the indexed sets containing v.
func (ix *nodeIndex) list(v ddg.NodeID) []int32 {
	if int(v) >= len(ix.runEnd) {
		return nil
	}
	return ix.pos[ix.off[v]:ix.off[v+1]]
}

// sharing returns the ascending, duplicate-free positions of the indexed
// sets that share at least one node with nodes — exactly the sets nodes
// is not disjoint from. Each run of nodes with one list is read once: the
// walk jumps from a node to the first node of nodes past its run, and it
// stops once every indexed set has been met.
func (ix *nodeIndex) sharing(nodes ddg.Set) []int32 {
	var seen []uint64
	var out []int32
	for k := 0; k < len(nodes) && int(nodes[k]) < len(ix.runEnd) && len(out) < ix.live; {
		v := nodes[k]
		for _, p := range ix.list(v) {
			if seen == nil {
				seen = make([]uint64, (len(ix.sets)+63)/64)
			}
			if w, b := p/64, uint64(1)<<(p%64); seen[w]&b == 0 {
				seen[w] |= b
				out = append(out, p)
			}
		}
		// Runs are short next to the sets queried, so a linear step beats
		// a binary search here.
		for end := ddg.NodeID(ix.runEnd[v]); k < len(nodes) && nodes[k] < end; k++ {
		}
	}
	slices.Sort(out)
	return out
}

// flowTargets calls fn, in ascending position order, for every indexed
// set b that the indexed set at position a flows into: b is not a,
// shares no node with it, and gs.FlowsInto(a, b) holds.
//
// FlowsInto needs every successor of a outside a to lie in b, so b must
// contain a's first external successor; only the sets listed for that one
// node are candidates, and no set that passes is missed.
func (ix *nodeIndex) flowTargets(gs *ddg.Graph, a int, fn func(b int)) {
	as := ix.sets[a]
	v, ok := firstExternalSucc(gs, as)
	if !ok {
		return
	}
	for _, p := range ix.list(v) {
		b := int(p)
		if b == a || !as.Disjoint(ix.sets[b]) || !gs.FlowsInto(as, ix.sets[b]) {
			continue
		}
		fn(b)
	}
}

// firstExternalSucc returns the first successor outside a, scanning a's
// nodes in ascending order and each node's successors in arc order — the
// first arc FlowsInto tests against its consumer.
func firstExternalSucc(gs *ddg.Graph, a ddg.Set) (ddg.NodeID, bool) {
	for _, u := range a {
		for _, v := range gs.Succs(u) {
			if !a.Contains(v) {
				return v, true
			}
		}
	}
	return 0, false
}
