package patterns

import (
	"slices"
	"sort"
	"sync"

	"discovery/internal/ddg"
	"discovery/internal/mir"
)

// View is the matching substrate for one sub-DDG: a partition of the
// sub-DDG's nodes into candidate component groups, with group-level arcs,
// labels, and boundary information.
//
// Loop-derived sub-DDGs are viewed compacted — one group per dynamic loop
// iteration, which is the paper's DDG Compaction phase (§5) — so that a
// work-split Pthreads loop and its sequential counterpart present identical
// views. Associative-component sub-DDGs are viewed node-per-node.
//
// Only the grouping is built eagerly. Group arcs, boundary flags, and
// labels derive lazily from the graph and the member mask of the
// ambient node set (ddg.SubView) the first time a matcher asks for them —
// a view refuted by the group count and ops alone (CannotMatch) never
// touches the graph's adjacency at all.
// Nothing of the base graph is copied either way.
type View struct {
	G       ddg.GraphView
	Ambient ddg.Set   // the sub-DDG's nodes
	Groups  []ddg.Set // view node -> original nodes

	sub     *ddg.SubView // lazy member mask of Ambient over G
	subOnce sync.Once

	// Lazily built group structure (ensure). Guarded by ensOnce: matchers
	// for different kinds may share one view across workers.
	ensOnce sync.Once
	arcs    [][]int   // group adjacency (original arcs between groups), sorted
	indeg   []int     // distinct-group in-degree per group
	extIn   []bool    // group receives an arc from outside the sub-DDG
	extOut  []bool    // group sends an arc outside the sub-DDG
	census  Prescreen // group-level census of the above, with verdicts

	// Lazily computed labels, per group ("" = not yet computed; group
	// labels are never empty since groups are non-empty). mu guards the
	// label/op-set memos and the reachability closure.
	mu     sync.Mutex
	labels []string
	opsets []string

	reach [][]bool // group-level reachability closure (lazy, under mu)
}

// LoopView builds the compacted view of a loop-derived sub-DDG: one group
// per (invocation, iteration) of the given static loop, in ascending
// (invocation, iteration) order. The grouping sorts (ordinal, node) pairs
// over the graph's loop-iteration index (ddg.LoopIterIndex): its ordinals
// follow that order over the whole graph, and restricting to any node
// subset preserves it. Nodes lacking a frame for the loop — every node
// when the index is nil — follow per node in input order (they are rare:
// boundary computation hoisted around the loop). All groups share one
// backing array, each capped at its own length.
func LoopView(g ddg.GraphView, nodes ddg.Set, loop mir.LoopID) *View {
	ix := g.LoopIterIndex(loop)
	// An ordinal is non-negative, so (ordinal << 32 | node) sorts by
	// ordinal and, within one, by node id.
	keyed := make([]uint64, 0, len(nodes))
	var loose []ddg.NodeID
	for _, u := range nodes {
		if o, ok := ix.OrdinalOf(u); ok {
			keyed = append(keyed, uint64(o)<<32|uint64(u))
		} else {
			loose = append(loose, u)
		}
	}
	slices.Sort(keyed)
	all := make(ddg.Set, len(keyed)+len(loose))
	var groups []ddg.Set
	start := 0
	for i, k := range keyed {
		all[i] = ddg.NodeID(k)
		if i+1 == len(keyed) || k>>32 != keyed[i+1]>>32 {
			groups = append(groups, all[start:i+1:i+1])
			start = i + 1
		}
	}
	for _, u := range loose {
		all[start] = u
		groups = append(groups, all[start:start+1:start+1])
		start++
	}
	return &View{G: g, Ambient: nodes, Groups: groups}
}

// NodeView builds the node-per-node view of a sub-DDG (associative
// components). Each singleton group is a capped window onto nodes.
func NodeView(g ddg.GraphView, nodes ddg.Set) *View {
	groups := make([]ddg.Set, len(nodes))
	for i := range nodes {
		groups[i] = nodes[i : i+1 : i+1]
	}
	return &View{G: g, Ambient: nodes, Groups: groups}
}

// SetOverlay hands the view an overlay already built over its ambient set
// (v.G.Overlay(v.Ambient)), so that Sub returns it instead of building a
// second one. It has no effect once Sub has run.
func (v *View) SetOverlay(sub *ddg.SubView) {
	v.subOnce.Do(func() { v.sub = sub })
}

// Sub returns the member mask of the view's ambient set, building it on
// first use.
func (v *View) Sub() *ddg.SubView {
	v.subOnce.Do(func() {
		v.sub = v.G.Overlay(v.Ambient)
	})
	return v.sub
}

// ensure derives the group-level arc structure and boundary flags from the
// overlay. Membership tests ride the overlay's bitset; the group of a
// member node is found through its position in the sorted ambient set, so
// the scratch state is O(|ambient|), never O(|graph|).
func (v *View) ensure() {
	v.ensOnce.Do(v.build)
}

func (v *View) build() {
	sub := v.Sub()
	n := len(v.Groups)
	v.arcs = make([][]int, n)
	v.indeg = make([]int, n)
	v.extIn = make([]bool, n)
	v.extOut = make([]bool, n)
	// Ambient-aligned group index: gidx[i] = group of v.Ambient[i]. A
	// group's members ascend, so each one's position is searched from the
	// previous one's, and a successor's from its source's.
	gidx := make([]int32, len(v.Ambient))
	for i, grp := range v.Groups {
		p := 0
		for _, u := range grp {
			p = v.Ambient.IndexFrom(p, u)
			gidx[p] = int32(i)
		}
	}
	for i, grp := range v.Groups {
		var out []int
		p := 0
		for _, u := range grp {
			p = v.Ambient.IndexFrom(p, u)
			for _, w := range v.G.Succs(u) {
				if !sub.Contains(w) {
					v.extOut[i] = true
					continue
				}
				if j := int(gidx[v.Ambient.IndexFrom(p, w)]); j != i {
					out = append(out, j)
				}
			}
			if !v.extIn[i] {
				for _, w := range v.G.Preds(u) {
					if !sub.Contains(w) {
						v.extIn[i] = true
						break
					}
				}
			}
		}
		sort.Ints(out)
		dedup := out[:0]
		for k, j := range out {
			if k > 0 && j == out[k-1] {
				continue
			}
			dedup = append(dedup, j)
		}
		v.arcs[i] = dedup
		for _, j := range dedup {
			v.indeg[j]++
		}
	}
	c := Prescreen{NumNodes: n, AllAssocOneOp: v.oneAssocOp()}
	for i, in := range v.indeg {
		out := len(v.arcs[i])
		c.Arcs += out
		c.MaxIn, c.MaxOut = max(c.MaxIn, in), max(c.MaxOut, out)
		if v.extIn[i] {
			c.ExtIn++
		} else if in == 0 {
			c.Isolated++
		}
		if v.extOut[i] {
			c.ExtOut++
		}
		switch in {
		case 0:
			c.Sources++
		case 2:
			c.Junctions++
		}
		if out == 0 {
			c.Sinks++
		}
	}
	c.InterGroup = c.Arcs > 0
	c.verdicts()
	v.census = c
}

// CannotMatch is every matcher's structural gate: it reports that the
// rules of Prescreen.verdicts refute kind on this view. The rules that
// need only the group count and the ops are decided first, so a view they
// refute never builds its adjacency; the rest read the group-level census.
// The finder books a reduction matcher run only for views past this gate.
func (v *View) CannotMatch(k Kind) bool {
	if shapeVerdicts(len(v.Groups), true, v.oneAssocOp())&prescreenBit(k) != 0 {
		return true
	}
	v.ensure()
	return v.census.CannotMatch(k)
}

// oneAssocOp reports whether every group is a single node and all of them
// carry one common associative operation (the paper's 3b
// under-approximation).
func (v *View) oneAssocOp() bool {
	for _, grp := range v.Groups {
		if len(grp) != 1 {
			return false
		}
		if op := v.G.Op(grp[0]); !op.Associative() || op != v.G.Op(v.Groups[0][0]) {
			return false
		}
	}
	return true
}

// op returns the common operation of a view that passed a reduction
// kind's gate (every group one node of one associative op).
func (v *View) op() mir.Op { return v.G.Op(v.Groups[0][0]) }

// NumGroups returns the number of view groups.
func (v *View) NumGroups() int { return len(v.Groups) }

// Arcs returns the sorted distinct groups that group i has arcs to. The
// returned slice is shared; callers must not mutate it.
func (v *View) Arcs(i int) []int {
	v.ensure()
	return v.arcs[i]
}

// ExtIn reports whether group i receives an arc from outside the sub-DDG.
func (v *View) ExtIn(i int) bool {
	v.ensure()
	return v.extIn[i]
}

// ExtOut reports whether group i sends an arc outside the sub-DDG.
func (v *View) ExtOut(i int) bool {
	v.ensure()
	return v.extOut[i]
}

// Label returns the operation-multiset label of group i (relaxed 1c),
// computed on first use per group.
func (v *View) Label(i int) string {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.labels == nil {
		v.labels = make([]string, len(v.Groups))
	}
	if v.labels[i] == "" {
		v.labels[i] = v.G.LabelKey(v.Groups[i])
	}
	return v.labels[i]
}

// OpSet returns the operation-set label of group i (conditional variants),
// computed on first use per group.
func (v *View) OpSet(i int) string {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.opsets == nil {
		v.opsets = make([]string, len(v.Groups))
	}
	if v.opsets[i] == "" {
		v.opsets[i] = v.G.OpSetKey(v.Groups[i])
	}
	return v.opsets[i]
}

// Reaches reports group-level reachability i ->* j (strictly forward,
// i != j implied; Reaches(i,i) is true only on a cycle, which cannot occur
// in a DAG view).
func (v *View) Reaches(i, j int) bool {
	v.mu.Lock()
	if v.reach == nil {
		v.computeReach()
	}
	r := v.reach[i][j]
	v.mu.Unlock()
	return r
}

func (v *View) computeReach() {
	v.ensure()
	n := len(v.Groups)
	v.reach = make([][]bool, n)
	// Reverse-topological accumulation would be fastest; a BFS per group is
	// ample for view sizes (at most a few hundred groups).
	for i := 0; i < n; i++ {
		v.reach[i] = make([]bool, n)
		stack := append([]int(nil), v.arcs[i]...)
		for len(stack) > 0 {
			j := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if v.reach[i][j] {
				continue
			}
			v.reach[i][j] = true
			stack = append(stack, v.arcs[j]...)
		}
	}
}

// InDegree returns the number of distinct groups with arcs into group i.
func (v *View) InDegree(i int) int {
	v.ensure()
	return v.indeg[i]
}

// OutDegree returns the number of distinct groups that group i has arcs to.
func (v *View) OutDegree(i int) int { return len(v.Arcs(i)) }

// GroupsUnion returns the original nodes of the given groups.
func (v *View) GroupsUnion(idx ...int) ddg.Set {
	sets := make([]ddg.Set, len(idx))
	for k, i := range idx {
		sets[k] = v.Groups[i]
	}
	return ddg.UnionAll(sets...)
}
