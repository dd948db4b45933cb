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

	"discovery/internal/analysis"
	"discovery/internal/mir"
)

// NodeID identifies a node in a Graph. IDs are dense and start at 0.
type NodeID uint32

// NoNode is the sentinel for "no defining node" (e.g. a constant operand,
// which the paper depicts as a sourceless arc).
const NoNode = ^NodeID(0)

// Graph is a dynamic dataflow graph. The struct-of-arrays layout keeps
// traces of hundreds of thousands of nodes compact: every per-node array
// holds fixed-width integers and no pointers, so a node costs a fixed
// number of bytes that the garbage collector never scans. A node's source
// position and loop scope are ids into tables of the distinct values (see
// tables).
//
// Every graph is finished by a FrozenBuilder and is immutable afterwards.
// Adjacency is held in compressed sparse row (CSR) form — two flat arrays
// plus offset indexes — which the finder, simplifier, and pattern
// verifiers traverse cache-linearly.
type Graph struct {
	ops    []mir.Op
	pos    []uint32 // ids into tab.pos
	thread []int32
	scope  []uint32 // ids into tab.scopes
	tab    *tables
	arcs   int

	// CSR adjacency. succOff/predOff have NumNodes()+1 entries; the
	// successors of u are succArr[succOff[u]:succOff[u+1]].
	succOff []uint32
	succArr []NodeID
	predOff []uint32
	predArr []NodeID

	// fpMemo caches Fingerprint (hash.go); immutable once computed.
	fpMemo fingerprintMemo

	// iterMemo caches the loop-iteration indexes a graph derives from its
	// scope chains on first use (iterindex.go). Derived metadata: it never
	// participates in Fingerprint.
	iterMemo iterIndexMemo

	// pager, when non-nil, backs the CSR arc arrays out of core
	// (paged.go): succArr/predArr are released and Succs/Preds read
	// through a bounded resident page set instead.
	pager *arcPager
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.ops) }

// NumArcs returns the number of arcs.
func (g *Graph) NumArcs() int { return g.arcs }

// Op returns the operation executed by node u.
func (g *Graph) Op(u NodeID) mir.Op { return g.ops[u] }

// Pos returns the source position of node u.
func (g *Graph) Pos(u NodeID) mir.Pos { return g.tab.pos[g.pos[u]] }

// Thread returns the thread that executed node u.
func (g *Graph) Thread(u NodeID) int32 { return g.thread[u] }

// ScopeOf returns the dynamic loop scope of node u (may be nil).
func (g *Graph) ScopeOf(u NodeID) *Scope { return g.tab.scopes[g.scope[u]] }

// Succs returns the successors of u. The returned slice is shared; callers
// must not mutate it. A resident read inlines into the caller; a spilled
// graph's read goes out of line to the pager.
func (g *Graph) Succs(u NodeID) []NodeID {
	if g.pager != nil {
		return g.pagedSuccs(u)
	}
	return g.succArr[g.succOff[u]:g.succOff[u+1]]
}

// Preds returns the predecessors of u. The returned slice is shared.
func (g *Graph) Preds(u NodeID) []NodeID {
	if g.pager != nil {
		return g.pagedPreds(u)
	}
	return g.predArr[g.predOff[u]:g.predOff[u+1]]
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
// graph, returning it together with the mapping from new to old
// ids — keep itself, since new id i is keep[i]. It is used by DDG
// simplification, which rebuilds the graph without auxiliary computation.
// The subgraph shares g's position and scope tables and copies the ids.
//
// New ids follow keep's sorted order, so the topological-id invariant
// carries over: every kept predecessor of a node precedes it. The node
// count is exact and the arcs into kept nodes bound the arc count, so the
// per-node arrays and the predecessor CSR are written in place, through a
// dense remap over keep's id span, and FrozenBuilder.Finish derives the
// successors from them. The remap is monotone and a graph's predecessor
// lists are distinct, so each remapped list stays distinct and needs only
// an insertion step per arc to come out ascending (a traced node has at
// most two operands). A graph violating the invariant has no such order;
// it is a caller bug, reported by panic.
func (g *Graph) InducedSubgraph(keep Set) (*Graph, []NodeID) {
	if len(keep) == 0 {
		fb := NewFrozenBuilder(0, 0)
		fb.g.tab = g.tab
		out, _ := fb.Finish()
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
	// Size the arc array by the arcs into kept nodes, a bound that always
	// holds, so that it never regrows; the offsets stay resident on a
	// spilled graph, so counting reads no arc.
	arcsIn := 0
	for _, u := range keep {
		arcsIn += int(g.predOff[u+1] - g.predOff[u])
	}
	n := len(keep)
	out := &Graph{
		ops:     make([]mir.Op, n),
		pos:     make([]uint32, n),
		thread:  make([]int32, n),
		scope:   make([]uint32, n),
		tab:     g.tab,
		predOff: make([]uint32, n+1),
		predArr: make([]NodeID, 0, arcsIn),
		succOff: make([]uint32, n+1), // successor counts until Finish
	}
	for i, u := range keep {
		out.ops[i], out.pos[i], out.thread[i], out.scope[i] = g.ops[u], g.pos[u], g.thread[u], g.scope[u]
		start := len(out.predArr)
		for _, p := range g.Preds(u) {
			if p < lo || int(p-lo) >= len(remap) || remap[p-lo] == NoNode {
				continue
			}
			q := remap[p-lo]
			if q >= NodeID(i) {
				panic(analysis.Errorf(analysis.StageFinalize, analysis.InvariantViolation,
					"ddg: InducedSubgraph: pred %d of node %d does not precede it", p, u))
			}
			out.predArr = append(out.predArr, q)
			for k := len(out.predArr) - 1; k > start && out.predArr[k-1] > q; k-- {
				out.predArr[k], out.predArr[k-1] = out.predArr[k-1], q
			}
			out.succOff[q+1]++
		}
		out.predOff[i+1] = uint32(len(out.predArr))
	}
	out, err := (&FrozenBuilder{g: out}).Finish()
	if err != nil {
		panic(err)
	}
	return out, keep
}
