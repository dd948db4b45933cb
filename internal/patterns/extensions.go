package patterns

// Extension patterns beyond the paper's evaluated set, from its future
// work (§9: "characterizing more parallel patterns such as pipeline and
// stencil") and its limitations discussion. They are matched only when
// the finder's extensions are enabled, so the paper's Table 3 behaviour
// is the default.
//
//   - Stencil: a map whose components read overlapping neighbourhoods of
//     a common input (out[i] = f(in[i-1], in[i], in[i+1])). Detected as a
//     refinement of a matched map: after discarding broadcast inputs
//     (values read by every component), each component must read at least
//     two distinct external definitions, and the component overlap graph
//     — components sharing at least one input — must be connected.
//   - Tree reduction: the general associative combining tree (the shape
//     GPU reductions produce), of which the paper's linear and tiled
//     variants are special cases; this is one step of the future-work
//     item "unifying the definition of linear and tiled patterns".

import (
	"sort"

	"discovery/internal/ddg"
)

// Extension pattern kinds.
const (
	// KindStencil is a map over overlapping neighbourhoods.
	KindStencil Kind = 100 + iota
	// KindTreeReduction is an arbitrary associative combining tree.
	KindTreeReduction
)

func init() {
	// Keep String/Short total over the extension kinds.
	extensionKindNames[KindStencil] = kindName{"stencil", "st"}
	extensionKindNames[KindTreeReduction] = kindName{"tree reduction", "r"}
}

type kindName struct{ long, short string }

var extensionKindNames = map[Kind]kindName{}

// MatchStencil refines a matched (plain) map into a stencil, or returns
// nil if the map has no overlapping-neighbourhood structure.
func MatchStencil(g ddg.GraphView, m *Pattern) *Pattern {
	if m == nil || m.Kind != KindMap || len(m.Comps) < 3 {
		return nil
	}
	// External input definitions per component.
	inputs := make([]ddg.Set, len(m.Comps))
	for i, c := range m.Comps {
		var ins []ddg.NodeID
		for _, u := range c {
			for _, p := range g.Preds(u) {
				if !c.Contains(p) {
					ins = append(ins, p)
				}
			}
		}
		inputs[i] = ddg.NewSet(ins...)
	}
	// Broadcast inputs (read by every component) do not carry stencil
	// structure: scene constants, coefficients, and the like.
	broadcast := inputs[0]
	for _, in := range inputs[1:] {
		broadcast = broadcast.Intersect(in)
	}
	arity := -1
	for i := range inputs {
		inputs[i] = inputs[i].Diff(broadcast)
		n := inputs[i].Len()
		if n < 2 {
			return nil // a stencil reads a neighbourhood, not a point
		}
		if arity == -1 {
			arity = n
		} else if n != arity {
			return nil // uniform neighbourhood size
		}
	}
	// Overlap graph: components sharing at least one non-broadcast input.
	// It must be connected (neighbourhoods tile the input) and no
	// component may be isolated.
	n := len(m.Comps)
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !inputs[i].Disjoint(inputs[j]) {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	if count != n {
		return nil
	}
	return &Pattern{
		Kind:    KindStencil,
		Comps:   m.Comps,
		NumFull: m.NumFull,
		MapPart: m,
	}
}

// MatchTreeReduction reports the combining tree formed by the whole view,
// or nil. Linear chains and tiled arrangements also satisfy the tree
// shape; callers should prefer the more specific matchers first.
func MatchTreeReduction(v *View) *Pattern {
	// The census gate decides (3b) one associative op and the in-tree
	// shape: at most one use of every node inside the view, exactly one
	// sink (the root), and n-1 arcs, which with one root means connected.
	if v.CannotMatch(KindTreeReduction) {
		return nil
	}
	n := v.NumGroups()
	// Leaves take input elements; the root produces the result.
	for i := 0; i < n; i++ {
		if v.InDegree(i) == 0 && !v.ExtIn(i) {
			return nil
		}
		if v.OutDegree(i) == 0 && !v.ExtOut(i) {
			return nil
		}
	}
	if !v.G.Convex(v.Ambient, nil) {
		return nil
	}
	// Components in topological (leaves-first) order.
	order := topoOrder(v)
	comps := make([]ddg.Set, n)
	for k, i := range order {
		comps[k] = v.Groups[i]
	}
	return &Pattern{Kind: KindTreeReduction, Comps: comps, Op: v.op()}
}

// topoOrder returns a leaves-first topological order of the view.
func topoOrder(v *View) []int {
	n := v.NumGroups()
	indeg := make([]int, n)
	for i := range indeg {
		indeg[i] = v.InDegree(i)
	}
	var queue []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	sort.Ints(queue)
	var order []int
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, j := range v.Arcs(u) {
			indeg[j]--
			if indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	return order
}
