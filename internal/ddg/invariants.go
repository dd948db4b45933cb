package ddg

import (
	"sort"

	"discovery/internal/analysis"
)

// CheckInvariants verifies the structural invariants every well-formed
// DDG must satisfy:
//
//   - struct-of-arrays consistency (every per-node array has one entry per
//     node, and every position and scope id names an entry of the tables);
//   - no sentinel (NoNode) or self arcs;
//   - topological-id ordering: every arc flows from a lower to a higher
//     node id (Convex and the pattern matchers prune with it; it also
//     implies acyclicity, so no separate DFS is needed);
//   - arc dedup: no node lists the same predecessor or successor twice;
//   - pred/succ symmetry: the predecessor and successor adjacencies
//     describe the same arc set, and their total size matches NumArcs;
//   - loop-iteration indexes: every loop's index (deriving it if no view
//     has yet) agrees with the scope chains node by node;
//   - CSR layout: offset arrays of the right length, monotone, covering
//     the arc arrays;
//   - paging (spilled graphs only): segments tile the offset arrays in
//     node order, and every lookup bucket names the segment holding the
//     bucket's first node.
//
// It is run by tests, by `discovery -check` after tracing and after
// simplification, and is cheap enough (O(arcs log arcs)) to gate any
// pipeline that accepts externally produced graphs. The returned error is
// an *analysis.Error of kind InvariantViolation.
func (g *Graph) CheckInvariants() error {
	fail := func(format string, args ...any) error {
		return analysis.Errorf(analysis.StageFinalize, analysis.InvariantViolation, format, args...)
	}
	n := g.NumNodes()
	if len(g.pos) != n || len(g.thread) != n || len(g.scope) != n {
		return fail("ddg: per-node arrays disagree: %d ops, %d pos, %d threads, %d scopes",
			n, len(g.pos), len(g.thread), len(g.scope))
	}
	for u := 0; u < n; u++ {
		if int(g.pos[u]) >= len(g.tab.pos) || int(g.scope[u]) >= len(g.tab.scopes) {
			return fail("ddg: node %d names position %d of %d or scope %d of %d",
				u, g.pos[u], len(g.tab.pos), g.scope[u], len(g.tab.scopes))
		}
	}
	// A spilled graph's arc arrays live out of core: its offsets are
	// checked against the pager's segment tables instead of the flat
	// arrays, and the per-node checks below read the arcs back through
	// the pager (Succs/Preds).
	for _, csr := range []struct {
		name string
		off  []uint32
		arr  []NodeID
	}{
		{"pred", g.predOff, g.predArr},
		{"succ", g.succOff, g.succArr},
	} {
		if len(csr.off) != n+1 {
			return fail("ddg: %s offsets have %d entries, want %d", csr.name, len(csr.off), n+1)
		}
		if n > 0 && csr.off[0] != 0 {
			return fail("ddg: %s offsets start at %d, want 0", csr.name, csr.off[0])
		}
		for i := 0; i < n; i++ {
			if csr.off[i] > csr.off[i+1] {
				return fail("ddg: %s offsets decrease at node %d", csr.name, i)
			}
		}
		if g.pager == nil && int(csr.off[n]) != len(csr.arr) {
			return fail("ddg: %s offsets cover %d arcs, array has %d", csr.name, csr.off[n], len(csr.arr))
		}
	}
	if g.pager != nil {
		for _, t := range []*arcTable{&g.pager.succ, &g.pager.pred} {
			if err := t.check(); err != nil {
				return err
			}
		}
	}

	// Per-node arc checks and pair collection for the symmetry test.
	type arc struct{ u, v NodeID }
	fromPreds := make([]arc, 0, g.arcs)
	fromSuccs := make([]arc, 0, g.arcs)
	var scratch []NodeID
	dedup := func(list []NodeID) (NodeID, bool) {
		scratch = append(scratch[:0], list...)
		sort.Slice(scratch, func(i, j int) bool { return scratch[i] < scratch[j] })
		for i := 1; i < len(scratch); i++ {
			if scratch[i] == scratch[i-1] {
				return scratch[i], true
			}
		}
		return 0, false
	}
	for i := 0; i < n; i++ {
		v := NodeID(i)
		for _, p := range g.Preds(v) {
			if p == NoNode {
				return fail("ddg: node %d has a NoNode predecessor", v)
			}
			if p == v {
				return fail("ddg: node %d has a self arc", v)
			}
			if int(p) >= n {
				return fail("ddg: node %d has out-of-range predecessor %d", v, p)
			}
			if p > v {
				return fail("ddg: arc %d->%d flows backwards (topological-id ordering broken)", p, v)
			}
			fromPreds = append(fromPreds, arc{p, v})
		}
		if dup, ok := dedup(g.Preds(v)); ok {
			return fail("ddg: node %d lists predecessor %d twice", v, dup)
		}
		for _, s := range g.Succs(v) {
			if s == NoNode || int(s) >= n {
				return fail("ddg: node %d has invalid successor %d", v, s)
			}
			fromSuccs = append(fromSuccs, arc{v, s})
		}
		if dup, ok := dedup(g.Succs(v)); ok {
			return fail("ddg: node %d lists successor %d twice", v, dup)
		}
	}
	if len(fromPreds) != g.arcs || len(fromSuccs) != g.arcs {
		return fail("ddg: NumArcs is %d but adjacency holds %d pred / %d succ arcs",
			g.arcs, len(fromPreds), len(fromSuccs))
	}
	less := func(arcs []arc) func(i, j int) bool {
		return func(i, j int) bool {
			if arcs[i].u != arcs[j].u {
				return arcs[i].u < arcs[j].u
			}
			return arcs[i].v < arcs[j].v
		}
	}
	sort.Slice(fromPreds, less(fromPreds))
	sort.Slice(fromSuccs, less(fromSuccs))
	for i := range fromPreds {
		if fromPreds[i] != fromSuccs[i] {
			return fail("ddg: pred/succ adjacencies disagree: pred side has %d->%d, succ side %d->%d",
				fromPreds[i].u, fromPreds[i].v, fromSuccs[i].u, fromSuccs[i].v)
		}
	}
	return g.checkIterIndexes()
}

// check audits one spilled table against the offset array it pages: the
// segments tile the nodes in order and each holds exactly its nodes'
// arcs, and each bucket names the segment holding its first node, so
// segOf can reach the right segment by stepping forward. A stale bucket
// that named a later segment would return another node's arcs.
func (t *arcTable) check() error {
	fail := func(format string, args ...any) error {
		return analysis.Errorf(analysis.StageFinalize, analysis.InvariantViolation, format, args...)
	}
	n := len(t.off) - 1
	if len(t.startNode) != len(t.segs)+1 || t.startNode[0] != 0 || int(t.startNode[len(t.segs)]) != n {
		return fail("ddg: spill segment table does not span nodes [0, %d)", n)
	}
	for s := range t.segs {
		lo, hi := t.startNode[s], t.startNode[s+1]
		if lo > hi || int(hi) > n {
			return fail("ddg: spill segment %d covers nodes [%d, %d) of %d", s, lo, hi, n)
		}
		if seg := &t.segs[s]; seg.arcBase != t.off[lo] || seg.arcBase+seg.arcs != t.off[hi] {
			return fail("ddg: spill segment %d holds arcs [%d, %d), its nodes hold [%d, %d)",
				s, seg.arcBase, seg.arcBase+seg.arcs, t.off[lo], t.off[hi])
		}
	}
	if want := (n + 1<<t.shift - 1) >> t.shift; len(t.bucket) != want {
		return fail("ddg: spill lookup table has %d buckets, want %d", len(t.bucket), want)
	}
	for b, s := range t.bucket {
		first := uint32(b << t.shift)
		if int(s) >= len(t.segs) || t.startNode[s] > first || t.startNode[s+1] <= first {
			return fail("ddg: spill lookup bucket %d names segment %d, which does not hold node %d", b, s, first)
		}
	}
	return nil
}
