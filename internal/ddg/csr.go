package ddg

import (
	"discovery/internal/analysis"
	"discovery/internal/mir"
)

// FrozenBuilder constructs a Graph; it is the only way to make one.
// Callers stream nodes in final id order, each with its full predecessor
// list; the builder packs predecessors into the CSR arrays as they arrive
// and derives the successor arrays in one counting-sort pass at Finish.
//
// Because every predecessor must already exist (AddNode rejects preds at
// or beyond the new node's id), a finished graph satisfies the
// topological-id invariant by construction and so cannot contain a cycle.
// The tracer's finalization, where the merge order makes
// predecessor-first emission natural, and InducedSubgraph both build
// through it.
type FrozenBuilder struct {
	g *Graph
	// succCnt[u] counts u's successors until Finish turns it into the
	// CSR fill cursor.
	succCnt []uint32
	// err records the first invariant violation; once set, further bad
	// preds are skipped and Finish reports the failure instead of a graph.
	err *analysis.Error
}

// NewFrozenBuilder returns a builder expecting about nodes nodes and at
// most maxArcs arcs (pre-deduplication operand count is a fine bound).
func NewFrozenBuilder(nodes, maxArcs int) *FrozenBuilder {
	g := &Graph{
		ops:     make([]mir.Op, 0, nodes),
		pos:     make([]mir.Pos, 0, nodes),
		thread:  make([]int32, 0, nodes),
		scope:   make([]*Scope, 0, nodes),
		predOff: make([]uint32, 1, nodes+1),
		predArr: make([]NodeID, 0, maxArcs),
	}
	return &FrozenBuilder{g: g, succCnt: make([]uint32, 0, nodes)}
}

// AddNode appends a node with the given predecessors and returns its id.
// NoNode preds are skipped and duplicates within the list are dropped,
// which dedups the whole graph, since an arc (u,v) can only be proposed
// while v is being added. A pred >= the new id — nodes must arrive in an
// order where every value flows forward — records an InvariantViolation
// that Finish reports; the offending arc is dropped so building can
// continue and the violation is surfaced once, typed, instead of as a
// panic.
func (fb *FrozenBuilder) AddNode(op mir.Op, pos mir.Pos, thread int32, scope *Scope, preds ...NodeID) NodeID {
	g := fb.g
	id := NodeID(len(g.ops))
	g.ops = append(g.ops, op)
	g.pos = append(g.pos, pos)
	g.thread = append(g.thread, thread)
	g.scope = append(g.scope, scope)
	fb.succCnt = append(fb.succCnt, 0)
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
		fb.succCnt[p]++
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
		fb.g, fb.succCnt, fb.err = nil, nil, nil
		return nil, err
	}
	g := fb.g
	n := len(g.ops)
	g.arcs = len(g.predArr)
	g.succOff = make([]uint32, n+1)
	for u := 0; u < n; u++ {
		g.succOff[u+1] = g.succOff[u] + fb.succCnt[u]
	}
	// Reuse succCnt as the per-node fill cursor.
	copy(fb.succCnt, g.succOff[:n])
	g.succArr = make([]NodeID, g.arcs)
	for v := 0; v < n; v++ {
		for _, u := range g.predArr[g.predOff[v]:g.predOff[v+1]] {
			g.succArr[fb.succCnt[u]] = NodeID(v)
			fb.succCnt[u]++
		}
	}
	// Walking v in ascending order fills each successor list in ascending
	// target order.
	fb.g, fb.succCnt = nil, nil
	return g, nil
}
