package ddg

// Loop-iteration indexes: the materialized form of the paper's DDG
// Compaction phase (§5), derived once per frozen graph instead of once per
// sub-DDG view.
//
// A LoopIterIndex maps every node to the dense ordinal of its dynamic
// iteration of one static loop — the group the compacted view of any
// sub-DDG derived from that loop places it in. The graph derives every
// loop's index from its own scope chains the first time any view asks for
// one, so patterns.LoopView is a sort over precomputed ordinals: no
// per-view scope-chain walks, no per-view key maps. Every graph — traced,
// simplified, canonicalized or hand-built — gets its indexes the same way.

import (
	"cmp"
	"slices"
	"sync"

	"discovery/internal/analysis"
	"discovery/internal/mir"
)

// LoopIterIndex is the per-loop compaction index of one graph: Keys lists
// the loop's dynamic iterations sorted ascending by (invocation,
// iteration) — the exact group order compacted views present — and ord
// maps each node of the loop's span, from its first node lo to its last,
// to its key's position, or -1 for a node of the span that did not
// execute inside the loop. Nodes outside the span are outside the loop,
// so an index costs the ids its loop covers, not the whole graph's.
type LoopIterIndex struct {
	Loop mir.LoopID
	Keys []IterationKey
	lo   NodeID
	ord  []int32
}

// OrdinalOf returns the dense iteration ordinal of node u, or ok=false if
// u did not execute inside the loop. A nil index holds no node.
func (ix *LoopIterIndex) OrdinalOf(u NodeID) (int32, bool) {
	if ix == nil || u < ix.lo || int(u-ix.lo) >= len(ix.ord) {
		return 0, false
	}
	o := ix.ord[u-ix.lo]
	return o, o >= 0
}

// NumGroups returns the number of dynamic iterations the index covers.
func (ix *LoopIterIndex) NumGroups() int {
	if ix == nil {
		return 0
	}
	return len(ix.Keys)
}

// CountGroups returns the number of groups the compacted view of nodes
// over this index has: its distinct iteration ordinals, marked in a bitset
// over the index's keys, plus one per node that did not run inside the
// loop. It equals the group count of patterns.LoopView without sorting or
// grouping anything. A nil index holds no node, so every node counts.
func (ix *LoopIterIndex) CountGroups(nodes Set) int {
	if ix == nil {
		return len(nodes)
	}
	seen := make([]uint64, (len(ix.Keys)+63)/64)
	n := 0
	for _, u := range nodes {
		o, ok := ix.OrdinalOf(u)
		if !ok {
			n++
			continue
		}
		if w, b := o>>6, uint64(1)<<(o&63); seen[w]&b == 0 {
			seen[w] |= b
			n++
		}
	}
	return n
}

// Members returns the nodes that executed inside the loop, ascending: the
// nodes of the span with an ordinal. A nil index has none.
func (ix *LoopIterIndex) Members() Set {
	if ix == nil {
		return nil
	}
	n := 0
	for _, o := range ix.ord {
		if o >= 0 {
			n++
		}
	}
	out := make(Set, 0, n)
	for i, o := range ix.ord {
		if o >= 0 {
			out = append(out, ix.lo+NodeID(i))
		}
	}
	return out
}

// iterIndexMemo caches a graph's derived indexes, by loop id (nil for a
// loop no node ran in); immutable once computed.
type iterIndexMemo struct {
	once sync.Once
	ixs  []*LoopIterIndex
}

// LoopIterIndex returns the compaction index for the given static loop, or
// nil when no node of the graph executed inside it. The graph derives the
// indexes of all its loops once, on first call.
func (g *Graph) LoopIterIndex(loop mir.LoopID) *LoopIterIndex {
	if ixs := g.iterIndexes(); int(loop) < len(ixs) {
		return ixs[loop]
	}
	return nil
}

// LoopIterIndexes returns the index of every loop some node of the graph
// executed inside, by ascending loop id, deriving them on first call as
// LoopIterIndex does. Their derivation is the graph's one walk of its
// scope chains.
func (g *Graph) LoopIterIndexes() []*LoopIterIndex {
	var out []*LoopIterIndex
	for _, ix := range g.iterIndexes() {
		if ix != nil {
			out = append(out, ix)
		}
	}
	return out
}

func (g *Graph) iterIndexes() []*LoopIterIndex {
	g.iterMemo.once.Do(func() { g.iterMemo.ixs = deriveIterIndexes(g.scope, g.tab.scopes) })
	return g.iterMemo.ixs
}

// deriveIterIndexes builds one index per static loop appearing in any
// scope chain; ids are the nodes' scope ids into scopes. Consecutive nodes
// of one iteration share the identical *Scope (scopes are persistent
// stacks), so a chain is walked only where the scope changes from the
// previous node's. Each node is charged to its innermost frame of each
// loop — the frame Scope.FrameFor reports — which matters when recursion
// nests the same static loop twice in one chain.
// While scanning, each run of one key gets a provisional number (a key met
// again after another key gets a second). A first scan counts each loop's
// provisional keys and finds its span, the first and last node in it, so
// the second sizes every key table and ordinal array once. When a
// loop's provisional keys arrive strictly ascending, as every
// single-threaded trace's do, they are already its sorted distinct keys
// and the ordinals are final. Otherwise the keys are sorted by
// (invocation, iteration), equal keys merged, and the ordinals renumbered
// to the distinct keys' positions. Loops are slots of a slice indexed by
// id, so no step hashes; the result is that slice.
func deriveIterIndexes(ids []uint32, scopes []*Scope) []*LoopIterIndex {
	// By loop id: the provisional key count, the last key met, and the
	// span [lo, hi) from the loop's first node to one past its last.
	type loopScan struct {
		keys   int32
		last   IterationKey
		lo, hi int
	}
	var scan []loopScan
	var frames []*Scope
	var prev *Scope
	for u, id := range ids {
		if s := scopes[id]; s != prev {
			prev = s
			for _, f := range frames { // the loops the previous node ran in
				scan[f.Loop].hi = u
			}
			frames = innermostFrames(frames[:0], s)
			for _, f := range frames {
				if int(f.Loop) >= len(scan) {
					scan = append(scan, make([]loopScan, int(f.Loop)+1-len(scan))...)
				}
				l := &scan[f.Loop]
				if l.keys == 0 {
					l.lo = u
				}
				if k := f.key(); l.keys == 0 || l.last != k {
					l.keys++
					l.last = k
				}
			}
		}
	}
	for _, f := range frames {
		scan[f.Loop].hi = len(ids)
	}

	type charge struct {
		ix  *LoopIterIndex
		ord int32
	}
	byLoop := make([]*LoopIterIndex, len(scan))
	unsorted := make([]bool, len(scan))
	var cur []charge // the current scope's innermost frame per loop
	prev = nil
	for u, id := range ids {
		if s := scopes[id]; s != prev {
			prev = s
			frames = innermostFrames(frames[:0], s)
			cur = cur[:0]
			for _, f := range frames {
				ix := byLoop[f.Loop]
				if ix == nil {
					l := scan[f.Loop]
					ord := make([]int32, l.hi-l.lo)
					for i := range ord {
						ord[i] = -1
					}
					ix = &LoopIterIndex{Loop: f.Loop, Keys: make([]IterationKey, 0, l.keys), lo: NodeID(l.lo), ord: ord}
					byLoop[f.Loop] = ix
				}
				k := f.key()
				if n := len(ix.Keys); n == 0 || ix.Keys[n-1] != k {
					if n > 0 && compareKeys(ix.Keys[n-1], k) >= 0 {
						unsorted[f.Loop] = true
					}
					ix.Keys = append(ix.Keys, k)
				}
				cur = append(cur, charge{ix, int32(len(ix.Keys) - 1)})
			}
		}
		for _, c := range cur {
			c.ix.ord[u-int(c.ix.lo)] = c.ord
		}
	}
	for loop, ix := range byLoop {
		if ix == nil || !unsorted[loop] {
			continue
		}
		byKey := make([]int32, len(ix.Keys)) // sorted position -> provisional number
		for i := range byKey {
			byKey[i] = int32(i)
		}
		slices.SortFunc(byKey, func(a, b int32) int { return compareKeys(ix.Keys[a], ix.Keys[b]) })
		renum := make([]int32, len(byKey)) // provisional number -> distinct key position
		keys := make([]IterationKey, 0, len(byKey))
		for _, o := range byKey {
			if k := ix.Keys[o]; len(keys) == 0 || keys[len(keys)-1] != k {
				keys = append(keys, k)
			}
			renum[o] = int32(len(keys) - 1)
		}
		for i, o := range ix.ord {
			if o >= 0 {
				ix.ord[i] = renum[o]
			}
		}
		ix.Keys = keys
	}
	return byLoop
}

// innermostFrames appends to dst the innermost frame of each loop in s's
// chain, innermost loop first, and returns it.
func innermostFrames(dst []*Scope, s *Scope) []*Scope {
frames:
	for f := s; f != nil; f = f.Parent {
		for _, g := range dst {
			if g.Loop == f.Loop { // an outer frame of a re-entered loop
				continue frames
			}
		}
		dst = append(dst, f)
	}
	return dst
}

// key returns the iteration key of the frame f heads.
func (f *Scope) key() IterationKey {
	return IterationKey{Loop: f.Loop, Invocation: f.Invocation, Iter: f.Iter}
}

// compareKeys orders iteration keys of one loop by (invocation, iteration).
func compareKeys(a, b IterationKey) int {
	if c := cmp.Compare(a.Invocation, b.Invocation); c != 0 {
		return c
	}
	return cmp.Compare(a.Iter, b.Iter)
}

// checkIterIndexes verifies the graph's indexes against the ground truth
// the scope chains encode: every loop in a chain has an index, its span
// runs from a node in the loop to a node in the loop inside the graph, ord
// agrees with IterationOf node by node (nodes outside the span read as
// outside the loop), the ordinal's key is the node's key, and the key
// table is sorted. Part of CheckInvariants — an index that drifted
// from the chains would silently change compacted views, the worst kind of
// wrong.
func (g *Graph) checkIterIndexes() error {
	fail := func(format string, args ...any) error {
		return analysis.Errorf(analysis.StageFinalize, analysis.InvariantViolation, format, args...)
	}
	var prev *Scope
	for u, id := range g.scope {
		s := g.tab.scopes[id]
		if s == prev {
			continue
		}
		prev = s
		for f := s; f != nil; f = f.Parent {
			if g.LoopIterIndex(f.Loop) == nil {
				return fail("ddg: node %d runs in loop %d, which has no iteration index", u, f.Loop)
			}
		}
	}
	for id, ix := range g.iterIndexes() {
		if ix == nil {
			continue
		}
		loop := mir.LoopID(id)
		if ix.Loop != loop {
			return fail("ddg: iteration index filed under loop %d names loop %d", loop, ix.Loop)
		}
		if n := len(ix.ord); n == 0 || int(ix.lo)+n > g.NumNodes() || ix.ord[0] < 0 || ix.ord[n-1] < 0 {
			return fail("ddg: iteration index for loop %d spans nodes [%d, %d) of %d, not from a node in the loop to one",
				loop, ix.lo, int(ix.lo)+n, g.NumNodes())
		}
		for i := 1; i < len(ix.Keys); i++ {
			if compareKeys(ix.Keys[i-1], ix.Keys[i]) >= 0 {
				return fail("ddg: iteration index for loop %d has unsorted keys at %d", loop, i)
			}
		}
		for i := 0; i < g.NumNodes(); i++ {
			u := NodeID(i)
			want, inLoop := g.IterationOf(u, loop)
			o, ok := ix.OrdinalOf(u)
			if ok != inLoop {
				return fail("ddg: iteration index for loop %d disagrees with node %d's scope chain (indexed=%t, in loop=%t)",
					loop, u, ok, inLoop)
			}
			if ok && (int(o) >= len(ix.Keys) || ix.Keys[o] != want) {
				return fail("ddg: iteration index for loop %d groups node %d under ordinal %d, scope chain says %v",
					loop, u, o, want)
			}
		}
	}
	return nil
}
