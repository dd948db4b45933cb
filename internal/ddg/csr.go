package ddg

import (
	"discovery/internal/analysis"
	"discovery/internal/mir"
)

// tables holds the distinct source positions and loop scopes that a
// graph's nodes name by id, so the per-node arrays stay pointer-free. A
// graph shares its tables, read-only, with every subgraph induced from
// it.
type tables struct {
	pos    []mir.Pos
	scopes []*Scope
}

// FrozenBuilder constructs a Graph. Callers stream nodes in final id
// order, each with its full predecessor list; the builder packs
// predecessors into the CSR arrays as they arrive, counts each node's
// successors in the successor offsets it will return, and derives the
// successor arrays in one counting-sort pass at Finish.
//
// Because every predecessor must already exist (AddNode rejects preds at
// or beyond the new node's id), a finished graph satisfies the
// topological-id invariant by construction and so cannot contain a cycle.
// The tracer's finalization, where the merge order makes
// predecessor-first emission natural, builds through it.
// InducedSubgraph, which knows its node count and arc bound up front,
// writes the same arrays in place, checking the invariant itself, and
// only calls Finish.
//
// Nodes name their position and scope by id in the builder's tables:
// UseTables installs whole tables (the tracer's merged ones), and PosID
// and ScopeID intern one value at a time.
type FrozenBuilder struct {
	// g.succOff[u+1] counts u's successors until Finish turns the counts
	// into offsets.
	g *Graph
	// err records the first invariant violation; once set, further bad
	// preds are skipped and Finish reports the failure instead of a graph.
	err *analysis.Error
	// posIDs and scopeIDs memoize PosID and ScopeID.
	posIDs   map[mir.Pos]uint32
	scopeIDs map[*Scope]uint32
}

// NewFrozenBuilder returns a builder expecting about nodes nodes and at
// most maxArcs arcs (pre-deduplication operand count is a fine bound).
func NewFrozenBuilder(nodes, maxArcs int) *FrozenBuilder {
	g := &Graph{
		ops:     make([]mir.Op, 0, nodes),
		pos:     make([]uint32, 0, nodes),
		thread:  make([]int32, 0, nodes),
		scope:   make([]uint32, 0, nodes),
		tab:     &tables{},
		predOff: make([]uint32, 1, nodes+1),
		predArr: make([]NodeID, 0, maxArcs),
		succOff: make([]uint32, 1, nodes+1),
	}
	return &FrozenBuilder{g: g}
}

// UseTables makes pos and scopes the builder's tables: position id i
// names pos[i] and scope id i names scopes[i]. It replaces any tables the
// builder had, and the graph keeps both slices, so the caller must not
// modify them afterwards.
func (fb *FrozenBuilder) UseTables(pos []mir.Pos, scopes []*Scope) {
	fb.g.tab = &tables{pos: pos, scopes: scopes}
	fb.posIDs, fb.scopeIDs = nil, nil
}

// PosID returns the id of position p, adding it to the builder's table
// on first use.
func (fb *FrozenBuilder) PosID(p mir.Pos) uint32 {
	if id, ok := fb.posIDs[p]; ok {
		return id
	}
	if fb.posIDs == nil {
		fb.posIDs = map[mir.Pos]uint32{}
	}
	t := fb.g.tab
	id := uint32(len(t.pos))
	t.pos = append(t.pos, p)
	fb.posIDs[p] = id
	return id
}

// ScopeID returns the id of scope s (nil included), adding it to the
// builder's table on first use.
func (fb *FrozenBuilder) ScopeID(s *Scope) uint32 {
	if id, ok := fb.scopeIDs[s]; ok {
		return id
	}
	if fb.scopeIDs == nil {
		fb.scopeIDs = map[*Scope]uint32{}
	}
	t := fb.g.tab
	id := uint32(len(t.scopes))
	t.scopes = append(t.scopes, s)
	fb.scopeIDs[s] = id
	return id
}

// AddNode appends a node with the given predecessors and returns its id;
// pos and scope are ids in the builder's tables. NoNode preds are skipped
// and duplicates within the list are dropped, which dedups the whole
// graph, since an arc (u,v) can only be proposed while v is being added.
// A pred >= the new id — nodes must arrive in an order where every value
// flows forward — or a position or scope id outside the tables records an
// InvariantViolation that Finish reports; the offending arc is dropped so
// building can continue and the violation is surfaced once, typed,
// instead of as a panic.
func (fb *FrozenBuilder) AddNode(op mir.Op, pos uint32, thread int32, scope uint32, preds ...NodeID) NodeID {
	g := fb.g
	id := NodeID(len(g.ops))
	if int(pos) >= len(g.tab.pos) || int(scope) >= len(g.tab.scopes) {
		if fb.err == nil {
			fb.err = analysis.Errorf(analysis.StageFinalize, analysis.InvariantViolation,
				"ddg: FrozenBuilder: node %d names position %d of %d or scope %d of %d",
				id, pos, len(g.tab.pos), scope, len(g.tab.scopes))
		}
	}
	g.ops = append(g.ops, op)
	g.pos = append(g.pos, pos)
	g.thread = append(g.thread, thread)
	g.scope = append(g.scope, scope)
	g.succOff = append(g.succOff, 0)
	start := len(g.predArr)
outer:
	for _, p := range preds {
		if p == NoNode {
			continue
		}
		if p >= id {
			if fb.err == nil {
				fb.err = analysis.Errorf(analysis.StageFinalize, analysis.InvariantViolation,
					"ddg: FrozenBuilder: pred %d of node %d does not precede it", p, id)
			}
			continue
		}
		for _, q := range g.predArr[start:] {
			if q == p {
				continue outer
			}
		}
		g.predArr = append(g.predArr, p)
		g.succOff[p+1]++
	}
	g.predOff = append(g.predOff, uint32(len(g.predArr)))
	return id
}

// Finish derives the successor CSR arrays and returns the frozen graph,
// or the first invariant violation AddNode observed. The builder must not
// be used afterwards.
func (fb *FrozenBuilder) Finish() (*Graph, error) {
	if fb.err != nil {
		err := fb.err
		fb.g, fb.err, fb.posIDs, fb.scopeIDs = nil, nil, nil, nil
		return nil, err
	}
	g := fb.g
	n := len(g.ops)
	g.arcs = len(g.predArr)
	off := g.succOff
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	// Fill with off[u] as u's cursor, which leaves it at the start of
	// u+1's list; shifting by one restores the offsets. Walking v in
	// ascending order fills each successor list in ascending target order.
	g.succArr = make([]NodeID, g.arcs)
	for v := 0; v < n; v++ {
		for _, u := range g.predArr[g.predOff[v]:g.predOff[v+1]] {
			g.succArr[off[u]] = NodeID(v)
			off[u]++
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0
	fb.g, fb.posIDs, fb.scopeIDs = nil, nil, nil
	return g, nil
}
