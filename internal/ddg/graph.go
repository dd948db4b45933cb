// Package ddg implements dynamic dataflow graphs (DDGs), the program
// representation of the pattern-finding analysis (paper §3).
//
// A DDG is a directed acyclic graph where each node corresponds to one
// execution of an IR operation and there is an arc (u,v) whenever execution
// v uses a value defined by execution u. Unlike static dataflow graphs,
// each node represents a single operation execution, which is what allows
// the analysis to reason about the parallel arrangement of individual
// executions (paper challenge 3).
package ddg

import (
	"fmt"
	"slices"

	"discovery/internal/mir"
)

// NodeID identifies a node in a Graph. IDs are dense and start at 0.
type NodeID uint32

// NoNode is the sentinel for "no defining node" (e.g. a constant operand,
// which the paper depicts as a sourceless arc).
const NoNode = ^NodeID(0)

// Graph is a dynamic dataflow graph. The struct-of-arrays layout keeps
// traces of hundreds of thousands of nodes compact.
//
// A graph has two phases. While building, adjacency lives in per-node
// slices and AddNode/AddArc are legal. Freeze packs the adjacency into a
// compressed sparse row (CSR) layout — two flat arrays plus offset
// indexes — which the finder, simplifier, and pattern verifiers then
// traverse cache-linearly; a frozen graph is immutable.
type Graph struct {
	ops    []mir.Op
	pos    []mir.Pos
	thread []int32
	scope  []*Scope
	arcs   int

	// Building phase: per-node adjacency. succSet[u] is non-nil once u's
	// out-degree crosses dedupeThreshold, replacing AddArc's linear
	// duplicate scan (quadratic on high-fan-out nodes otherwise).
	succ    [][]NodeID
	pred    [][]NodeID
	succSet []map[NodeID]struct{}

	// Frozen phase: CSR adjacency. succOff/predOff have NumNodes()+1
	// entries; the successors of u are succArr[succOff[u]:succOff[u+1]].
	frozen  bool
	succOff []uint32
	succArr []NodeID
	predOff []uint32
	predArr []NodeID

	// fpMemo caches Fingerprint (hash.go); immutable once computed.
	fpMemo fingerprintMemo

	// iterMemo caches the loop-iteration indexes a frozen graph derives
	// from its scope chains on first use (iterindex.go). Derived metadata:
	// it never participates in Fingerprint.
	iterMemo iterIndexMemo

	// pager, when non-nil, backs the frozen CSR arc arrays out of core
	// (paged.go): succArr/predArr are released and Succs/Preds read
	// through a bounded resident page set instead.
	pager *arcPager
}

// dedupeThreshold is the out-degree beyond which AddArc switches from a
// linear duplicate scan to a per-node hash set.
const dedupeThreshold = 16

// New returns an empty graph with capacity for n nodes.
func New(n int) *Graph {
	return &Graph{
		ops:     make([]mir.Op, 0, n),
		pos:     make([]mir.Pos, 0, n),
		thread:  make([]int32, 0, n),
		scope:   make([]*Scope, 0, n),
		succ:    make([][]NodeID, 0, n),
		pred:    make([][]NodeID, 0, n),
		succSet: make([]map[NodeID]struct{}, 0, n),
	}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.ops) }

// NumArcs returns the number of arcs.
func (g *Graph) NumArcs() int { return g.arcs }

// AddNode appends a node and returns its id. The caller must synchronize
// concurrent additions (the tracer records into unshared per-thread
// buffers and builds the graph in a single-threaded finalization step).
// AddNode panics on a frozen graph.
func (g *Graph) AddNode(op mir.Op, pos mir.Pos, thread int32, scope *Scope) NodeID {
	if g.frozen {
		panic("ddg: AddNode on a frozen graph")
	}
	id := NodeID(len(g.ops))
	g.ops = append(g.ops, op)
	g.pos = append(g.pos, pos)
	g.thread = append(g.thread, thread)
	g.scope = append(g.scope, scope)
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	g.succSet = append(g.succSet, nil)
	return id
}

// AddArc adds the def-use arc (u, v), ignoring duplicates and sentinels.
// It panics on a frozen graph. Duplicate detection is an inline scan for
// small out-degrees, upgrading to a per-node hash set past a threshold so
// high-fan-out nodes (e.g. an initial value feeding every iteration of a
// reduction) stay linear.
func (g *Graph) AddArc(u, v NodeID) {
	if g.frozen {
		panic("ddg: AddArc on a frozen graph")
	}
	if u == NoNode || v == NoNode || u == v {
		return
	}
	if set := g.succSet[u]; set != nil {
		if _, dup := set[v]; dup {
			return
		}
		set[v] = struct{}{}
	} else {
		for _, w := range g.succ[u] {
			if w == v {
				return
			}
		}
		if len(g.succ[u]) >= dedupeThreshold {
			set := make(map[NodeID]struct{}, 2*len(g.succ[u]))
			for _, w := range g.succ[u] {
				set[w] = struct{}{}
			}
			set[v] = struct{}{}
			g.succSet[u] = set
		}
	}
	g.succ[u] = append(g.succ[u], v)
	g.pred[v] = append(g.pred[v], u)
	g.arcs++
}

// Freeze packs the adjacency into the CSR layout and releases the
// building-phase structures. Freezing is idempotent; a frozen graph
// rejects AddNode and AddArc. Succs and Preds keep returning the same
// sequences, just backed by two flat arrays that traversals walk
// cache-linearly.
func (g *Graph) Freeze() {
	if g.frozen {
		return
	}
	g.succOff, g.succArr = packCSR(g.succ, g.arcs)
	g.predOff, g.predArr = packCSR(g.pred, g.arcs)
	g.succ, g.pred, g.succSet = nil, nil, nil
	g.frozen = true
}

// Frozen reports whether the graph has been packed into CSR form.
func (g *Graph) Frozen() bool { return g.frozen }

func packCSR(adj [][]NodeID, arcs int) (off []uint32, arr []NodeID) {
	off = make([]uint32, len(adj)+1)
	arr = make([]NodeID, 0, arcs)
	for i, list := range adj {
		arr = append(arr, list...)
		off[i+1] = uint32(len(arr))
	}
	return off, arr
}

// Op returns the operation executed by node u.
func (g *Graph) Op(u NodeID) mir.Op { return g.ops[u] }

// Pos returns the source position of node u.
func (g *Graph) Pos(u NodeID) mir.Pos { return g.pos[u] }

// Thread returns the thread that executed node u.
func (g *Graph) Thread(u NodeID) int32 { return g.thread[u] }

// ScopeOf returns the dynamic loop scope of node u (may be nil).
func (g *Graph) ScopeOf(u NodeID) *Scope { return g.scope[u] }

// Succs returns the successors of u. The returned slice is shared; callers
// must not mutate it.
func (g *Graph) Succs(u NodeID) []NodeID {
	if g.frozen {
		if g.pager != nil {
			return g.pager.arcsOf(&g.pager.succ, u)
		}
		return g.succArr[g.succOff[u]:g.succOff[u+1]]
	}
	return g.succ[u]
}

// Preds returns the predecessors of u. The returned slice is shared.
func (g *Graph) Preds(u NodeID) []NodeID {
	if g.frozen {
		if g.pager != nil {
			return g.pager.arcsOf(&g.pager.pred, u)
		}
		return g.predArr[g.predOff[u]:g.predOff[u+1]]
	}
	return g.pred[u]
}

// Nodes returns all node ids.
func (g *Graph) Nodes() Set {
	s := make(Set, g.NumNodes())
	for i := range s {
		s[i] = NodeID(i)
	}
	return s
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("ddg(%d nodes, %d arcs)", g.NumNodes(), g.NumArcs())
}

// InducedSubgraph materializes the subgraph induced by keep as a fresh
// frozen graph, returning it together with the mapping from new to old
// ids — keep itself, since new id i is keep[i]. It is used by DDG
// simplification, which rebuilds the graph without auxiliary computation.
//
// New ids follow keep's sorted order, so the topological-id invariant
// carries over: every kept predecessor of a node precedes it, and the
// nodes stream straight into a FrozenBuilder through a dense remap over
// keep's id span. Each node's predecessors go in ascending order and
// FrozenBuilder fills successors ascending, the order the graph's own
// arcs had. A graph violating the invariant has no such order; it is a
// caller bug, reported by panic.
func (g *Graph) InducedSubgraph(keep Set) (*Graph, []NodeID) {
	if len(keep) == 0 {
		out, _ := NewFrozenBuilder(0, 0).Finish()
		return out, keep
	}
	lo := keep[0]
	remap := make([]NodeID, keep[len(keep)-1]-lo+1)
	for i := range remap {
		remap[i] = NoNode
	}
	for i, u := range keep {
		remap[u-lo] = NodeID(i)
	}
	// Size the arc array by the kept share of the graph's arcs.
	fb := NewFrozenBuilder(len(keep), int(int64(g.arcs)*int64(len(keep))/int64(max(g.NumNodes(), 1))))
	var preds []NodeID
	for _, u := range keep {
		preds = preds[:0]
		for _, p := range g.Preds(u) {
			if p >= lo && int(p-lo) < len(remap) && remap[p-lo] != NoNode {
				preds = append(preds, remap[p-lo])
			}
		}
		slices.Sort(preds)
		fb.AddNode(g.ops[u], g.pos[u], g.thread[u], g.scope[u], preds...)
	}
	out, err := fb.Finish()
	if err != nil {
		panic(err)
	}
	return out, keep
}

// CheckAcyclic verifies that the graph is a DAG, which every well-formed
// dynamic dataflow graph must be (values flow forward in time). It returns
// an error naming a node on a cycle otherwise.
func (g *Graph) CheckAcyclic() error {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]byte, g.NumNodes())
	// Iterative DFS to avoid stack overflow on long chains.
	type frame struct {
		node NodeID
		next int
	}
	for start := 0; start < g.NumNodes(); start++ {
		if color[start] != white {
			continue
		}
		stack := []frame{{NodeID(start), 0}}
		color[start] = grey
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			succs := g.Succs(f.node)
			if f.next < len(succs) {
				v := succs[f.next]
				f.next++
				switch color[v] {
				case grey:
					return fmt.Errorf("ddg: cycle through node %d (%v)", v, g.ops[v])
				case white:
					color[v] = grey
					stack = append(stack, frame{v, 0})
				}
			} else {
				color[f.node] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return nil
}
