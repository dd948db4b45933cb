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
	"sort"
	"sync"

	"discovery/internal/analysis"
	"discovery/internal/mir"
)

// LoopIterIndex is the per-loop compaction index of one graph: Keys lists
// the loop's dynamic iterations sorted ascending by (invocation,
// iteration) — the exact group order compacted views present — and ord
// maps each node to its key's position, or -1 for nodes that did not
// execute inside the loop.
type LoopIterIndex struct {
	Loop mir.LoopID
	Keys []IterationKey
	ord  []int32
}

// OrdinalOf returns the dense iteration ordinal of node u, or ok=false if
// u did not execute inside the loop. A nil index holds no node.
func (ix *LoopIterIndex) OrdinalOf(u NodeID) (int32, bool) {
	if ix == nil || int(u) >= len(ix.ord) || ix.ord[u] < 0 {
		return 0, false
	}
	return ix.ord[u], true
}

// NumGroups returns the number of dynamic iterations the index covers.
func (ix *LoopIterIndex) NumGroups() int {
	if ix == nil {
		return 0
	}
	return len(ix.Keys)
}

// iterIndexMemo caches a graph's derived indexes; immutable once
// computed.
type iterIndexMemo struct {
	once sync.Once
	ixs  map[mir.LoopID]*LoopIterIndex
}

// LoopIterIndex returns the compaction index for the given static loop, or
// nil when no node of the graph executed inside it. The graph derives the
// indexes of all its loops once, on first call.
func (g *Graph) LoopIterIndex(loop mir.LoopID) *LoopIterIndex {
	return g.iterIndexes()[loop]
}

func (g *Graph) iterIndexes() map[mir.LoopID]*LoopIterIndex {
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
// provisional keys, so the second sizes every key table once. When a
// loop's provisional keys arrive strictly ascending, as every
// single-threaded trace's do, they are already its sorted distinct keys
// and the ordinals are final. Otherwise the keys are sorted by
// (invocation, iteration), equal keys merged, and the ordinals renumbered
// to the distinct keys' positions. Loops are slots of a slice indexed by
// id, so no step hashes.
func deriveIterIndexes(ids []uint32, scopes []*Scope) map[mir.LoopID]*LoopIterIndex {
	var counts []int32 // by loop id: provisional keys
	var last []IterationKey
	var frames []*Scope
	var prev *Scope
	for _, id := range ids {
		if s := scopes[id]; s != prev {
			prev = s
			frames = innermostFrames(frames[:0], s)
			for _, f := range frames {
				if int(f.Loop) >= len(counts) {
					counts = append(counts, make([]int32, int(f.Loop)+1-len(counts))...)
					last = append(last, make([]IterationKey, int(f.Loop)+1-len(last))...)
				}
				if k := f.key(); counts[f.Loop] == 0 || last[f.Loop] != k {
					counts[f.Loop]++
					last[f.Loop] = k
				}
			}
		}
	}

	type charge struct {
		ix  *LoopIterIndex
		ord int32
	}
	byLoop := make([]*LoopIterIndex, len(counts))
	unsorted := make([]bool, len(counts))
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
					ord := make([]int32, len(ids))
					for i := range ord {
						ord[i] = -1
					}
					ix = &LoopIterIndex{Loop: f.Loop, Keys: make([]IterationKey, 0, counts[f.Loop]), ord: ord}
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
			c.ix.ord[u] = c.ord
		}
	}
	out := map[mir.LoopID]*LoopIterIndex{}
	for loop, ix := range byLoop {
		if ix == nil {
			continue
		}
		out[ix.Loop] = ix
		if !unsorted[loop] {
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
		for u, o := range ix.ord {
			if o >= 0 {
				ix.ord[u] = renum[o]
			}
		}
		ix.Keys = keys
	}
	return out
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
// the scope chains encode: every loop in a chain has an index, ord agrees
// with IterationOf node by node, the ordinal's key is the node's key, and
// the key table is sorted. Part of CheckInvariants — an index that drifted
// from the chains would silently change compacted views, the worst kind of
// wrong.
func (g *Graph) checkIterIndexes() error {
	fail := func(format string, args ...any) error {
		return analysis.Errorf(analysis.StageFinalize, analysis.InvariantViolation, format, args...)
	}
	ixs := g.iterIndexes()
	var prev *Scope
	for u, id := range g.scope {
		s := g.tab.scopes[id]
		if s == prev {
			continue
		}
		prev = s
		for f := s; f != nil; f = f.Parent {
			if ixs[f.Loop] == nil {
				return fail("ddg: node %d runs in loop %d, which has no iteration index", u, f.Loop)
			}
		}
	}
	loops := make([]mir.LoopID, 0, len(ixs))
	for loop := range ixs {
		loops = append(loops, loop)
	}
	sort.Slice(loops, func(i, j int) bool { return loops[i] < loops[j] })
	for _, loop := range loops {
		ix := ixs[loop]
		if ix.Loop != loop {
			return fail("ddg: iteration index filed under loop %d names loop %d", loop, ix.Loop)
		}
		if len(ix.ord) != g.NumNodes() {
			return fail("ddg: iteration index for loop %d covers %d nodes, graph has %d",
				loop, len(ix.ord), g.NumNodes())
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
