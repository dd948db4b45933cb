package core

import (
	"slices"

	"discovery/internal/ddg"
)

// nodeIndex is an inverted index from the nodes of the simplified graph
// to the sets that contain them, in CSR form: the positions (into the
// slice the index was built from) of the sets holding node v are
// pos[off[v-lo]:off[v-lo+1]], ascending. Subtract, fuse, merge and
// pipeline detection build one per phase over the sets they compare, so
// each asks only the partners that can pass its test instead of every
// pair.
//
// The index spans only the ids from lo, the lowest indexed node, to the
// highest: the sets a phase compares are usually a small, late part of
// the graph (md5-long's 189 matches lie in its last 1,200 of 394K ids),
// so the index costs what the sets cover, not what the graph holds.
//
// Nodes of one loop iteration or one pattern component are numbered
// consecutively and usually belong to exactly the same sets, and long id
// ranges belong to none. runEnd[v-lo] is the first node after v whose
// list differs from v's, so a query reads each such run's list once and
// jumps over the rest of it.
type nodeIndex struct {
	sets   []ddg.Set
	lo     ddg.NodeID
	off    []int32
	pos    []int32
	runEnd []ddg.NodeID
	// live counts the non-empty indexed sets: once a query has met them
	// all, the rest of its walk cannot add anything.
	live int
}

// newNodeIndex indexes sets by node. A nil or empty set is simply absent
// from every list, which is how callers leave out the sets a phase never
// pairs with.
func newNodeIndex(sets []ddg.Set) *nodeIndex {
	lo, hi, live := ddg.NodeID(0), ddg.NodeID(0), 0
	for _, s := range sets {
		if len(s) == 0 {
			continue
		}
		if live == 0 || s[0] < lo {
			lo = s[0]
		}
		hi = max(hi, s[len(s)-1])
		live++
	}
	n := 0 // the span's width
	if live > 0 {
		n = int(hi-lo) + 1
	}
	off := make([]int32, n+1)
	for _, s := range sets {
		for _, v := range s {
			off[v-lo+1]++
		}
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	// Fill with off[i] as span slot i's cursor, which leaves it at the
	// start of slot i+1's list; shifting by one restores the offsets.
	pos := make([]int32, off[n])
	for i, s := range sets {
		for _, v := range s {
			pos[off[v-lo]] = int32(i)
			off[v-lo]++
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0
	ix := &nodeIndex{sets: sets, lo: lo, off: off, pos: pos, runEnd: make([]ddg.NodeID, n), live: live}
	for i := n - 1; i >= 0; i-- {
		ix.runEnd[i] = lo + ddg.NodeID(i) + 1
		if i+1 < n && slices.Equal(ix.pos[off[i]:off[i+1]], ix.pos[off[i+1]:off[i+2]]) {
			ix.runEnd[i] = ix.runEnd[i+1]
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

// list returns the ascending positions of the indexed sets containing v;
// a node outside the span is in none.
func (ix *nodeIndex) list(v ddg.NodeID) []int32 {
	if v < ix.lo || int(v-ix.lo) >= len(ix.runEnd) {
		return nil
	}
	i := v - ix.lo
	return ix.pos[ix.off[i]:ix.off[i+1]]
}

// sharing returns the ascending, duplicate-free positions of the indexed
// sets that share at least one node with nodes — exactly the sets nodes
// is not disjoint from. The walk starts at the first of nodes inside the
// span and reads each run of nodes with one list once: it jumps from a
// node to the first node of nodes past its run, and it stops at the
// span's end or once every indexed set has been met.
func (ix *nodeIndex) sharing(nodes ddg.Set) []int32 {
	var seen []uint64
	var out []int32
	k, _ := slices.BinarySearch(nodes, ix.lo)
	for k < len(nodes) && int(nodes[k]-ix.lo) < len(ix.runEnd) && len(out) < ix.live {
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
		for end := ix.runEnd[v-ix.lo]; k < len(nodes) && nodes[k] < end; k++ {
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
