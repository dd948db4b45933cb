package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"discovery/internal/ddg"
	"discovery/internal/mir"
	"discovery/internal/patterns"
)

// SubDDG is one entry of the pattern finder's pool: a node set over the
// simplified DDG together with the provenance that determines how it is
// viewed during matching.
type SubDDG struct {
	Nodes ddg.Set

	// Loop is the static loop this sub-DDG derives from; loop-derived
	// sub-DDGs are viewed compacted (one group per dynamic iteration).
	// Zero means not loop-derived.
	Loop mir.LoopID

	// Assoc marks associative-component sub-DDGs, viewed node-per-node.
	Assoc bool

	// FusedA and FusedB are the constituents of fused sub-DDGs; matching a
	// fused sub-DDG combines patterns already matched on the constituents.
	FusedA, FusedB *SubDDG

	// Matched patterns on this sub-DDG, filled by the match phase.
	Matched []*patterns.Pattern

	key  ddg.Hash128
	hash ddg.Hash128 // Nodes.Hash(), memoized by nodesHash

	// sub and census serve the subtract phases that take an unmatched
	// sub-DDG as g1, and a matched one drops both. sub is the overlay of
	// Nodes (overlay), built by the match or subtract phase that first
	// needs it and dropped at the end of the next subtract phase. census
	// is the structural census the match phase used, or the one subtract
	// derived for the sub-DDG; each difference taken from the sub-DDG
	// derives its own from it and the nodes it loses
	// (patterns.Census.Without). One matched from the cache, or without
	// the prescreen, has none.
	sub    *ddg.SubView
	census *patterns.Census
}

// Domain tags for the finder's hash keys (see ddg.NewHasher).
const (
	hashSeedPoolKey  = 0x90a7b3c5d1e2f407
	hashSeedFusedKey = 0x2c4e6a8b0d1f3355
)

// Key canonically identifies the sub-DDG by node set and provenance; the
// pool rejects duplicates by key, which is Algorithm 1's termination
// argument (both key dimensions are finite), and a view cache stores the
// sub-DDG's match outcome under it (ViewCache). Provenance is part of
// the key because the same node set can need a different view: a
// sequential map-reduction loop and the fusion of its subtracted map with
// its reduction cover identical nodes, but only the fused provenance can
// match the compound pattern. The key is a 128-bit content hash — 16
// bytes per pool entry regardless of sub-DDG size, unlike the O(n)
// strings it replaces.
func (s *SubDDG) Key() ddg.Hash128 {
	if s.key.IsZero() {
		if s.FusedA != nil {
			// Fused sub-DDGs are keyed by their constituents, not just the
			// union: the same union can arise from different pattern
			// pairings (e.g. the row-level and pixel-level views of one
			// loop nest fused with the same consumer), and only some
			// pairings match compound patterns.
			s.key = fusedKey(s.FusedA, s.FusedB)
		} else {
			s.key = provenanceKey(s.nodesHash(), s.Loop, s.Assoc)
		}
	}
	return s.key
}

// overlay returns the overlay of the sub-DDG's nodes on g, building it on
// first use.
func (s *SubDDG) overlay(g *ddg.Graph) *ddg.SubView {
	if s.sub == nil {
		s.sub = g.Overlay(s.Nodes)
	}
	return s.sub
}

// nodesHash returns the additive hash of the sub-DDG's node set
// (ddg.Set.Hash), computing it on first use.
func (s *SubDDG) nodesHash() ddg.Hash128 {
	if s.hash.IsZero() {
		s.hash = s.Nodes.Hash()
	}
	return s.hash
}

// fusedKey is the key of the fusion of a into b.
func fusedKey(a, b *SubDDG) ddg.Hash128 {
	h := ddg.NewHasher(hashSeedFusedKey)
	h.Hash(a.Key())
	h.Hash(b.Key())
	return h.Sum()
}

// provenanceKey composes the key of a sub-DDG that is not fused from the
// hash of its node set (ddg.Set.Hash, or SubView.DiffHash, which derives
// the same sum from a parent's) and its provenance.
func provenanceKey(nodes ddg.Hash128, loop mir.LoopID, assoc bool) ddg.Hash128 {
	h := ddg.NewHasher(hashSeedPoolKey)
	h.Hash(nodes)
	h.Word(uint64(loop))
	var a uint64
	if assoc {
		a = 1
	}
	h.Word(a)
	return h.Sum()
}

// Kind describes the provenance for diagnostics.
func (s *SubDDG) Kind() string {
	switch {
	case s.FusedA != nil:
		return "fused"
	case s.Assoc:
		return "assoc"
	case s.Loop != 0:
		return fmt.Sprintf("loop%d", s.Loop)
	default:
		return "whole"
	}
}

// View builds the matching view of the sub-DDG (paper §5, DDG Compaction):
// loop-derived sub-DDGs compact to one group per dynamic iteration unless
// compaction is disabled; everything else is node-per-node.
func (s *SubDDG) View(g ddg.GraphView, compact bool) *patterns.View {
	if s.Loop != 0 && compact {
		return patterns.LoopView(g, s.Nodes, s.Loop)
	}
	return patterns.NodeView(g, s.Nodes)
}

// numGroups returns the number of groups the sub-DDG's view has, without
// building it: for a compacted loop view, its nodes' distinct iteration
// ordinals plus the nodes outside the loop (ddg.LoopIterIndex.CountGroups),
// and otherwise one per node.
func (s *SubDDG) numGroups(g ddg.GraphView, compact bool) int {
	if loop := s.viewLoop(compact); loop != 0 {
		return g.LoopIterIndex(loop).CountGroups(s.Nodes)
	}
	return s.Nodes.Len()
}

// viewLoop is the grouping provenance the view would use: the sub-DDG's
// loop when compacting applies, zero (node-per-node) otherwise.
func (s *SubDDG) viewLoop(compact bool) mir.LoopID {
	if s.Loop != 0 && compact {
		return s.Loop
	}
	return 0
}

// String summarizes the sub-DDG.
func (s *SubDDG) String() string {
	return fmt.Sprintf("subddg(%s, %d nodes)", s.Kind(), s.Nodes.Len())
}

// decompose partitions the simplified DDG into loop sub-DDGs (one per
// static loop, spanning all invocations and threads) and associative
// component sub-DDGs (weakly connected components of same-operation
// associative nodes), the two decomposition dimensions of paper §5.
//
// The loop sub-DDGs come from one pass over the nodes. The associative
// components are swept over the run's executors, one item each: an item
// enumerates its component's position-closed subsets and their weakly
// connected components, and keys each candidate. A sequential fold then
// drops every candidate whose key an earlier one had, in component order,
// so the sub-DDGs and their order do not depend on which executor ran
// which item. The caller runs interrupted(ctx, res) afterwards, as after
// every sweep: once the run is cancelled, the unclaimed components yield
// nothing.
func decompose(sc *runSched, g *ddg.Graph) []*SubDDG {
	subs := loopSubs(g)
	comps := assocComponents(g)
	cands := make([][]assocCand, len(comps))
	sweep(sc, "decompose", len(comps), func(i int) { cands[i] = assocCands(g, comps[i]) })
	n := 0
	for _, cs := range cands {
		n += len(cs)
	}
	seen := make(map[ddg.Hash128]struct{}, n)
	for _, cs := range cands {
		for _, c := range cs {
			if _, dup := seen[c.key]; !dup {
				seen[c.key] = struct{}{}
				subs = append(subs, &SubDDG{Nodes: c.nodes, Assoc: true, key: c.key})
			}
		}
	}
	return subs
}

// loopSubs returns the loop sub-DDGs of g, by ascending loop id, each of
// at least two nodes.
func loopSubs(g *ddg.Graph) []*SubDDG {
	// Bucketed by loop id (static ids are small and dense), counted first
	// so that the buckets share one backing array. Nodes arrive in
	// ascending order and join each loop of their chain once, so every
	// bucket is already a Set.
	var count []int
	eachLoopNode(g, func(_ ddg.NodeID, id mir.LoopID) {
		if int(id) >= len(count) {
			count = append(count, make([]int, int(id)+1-len(count))...)
		}
		count[id]++
	})
	byLoop := presized(count)
	eachLoopNode(g, func(u ddg.NodeID, id mir.LoopID) { byLoop[id] = append(byLoop[id], u) })
	var subs []*SubDDG
	for id, nodes := range byLoop {
		if len(nodes) < 2 {
			continue
		}
		subs = append(subs, &SubDDG{Nodes: nodes, Loop: mir.LoopID(id)})
	}
	return subs
}

// eachLoopNode calls fn once for every node of g and every distinct loop
// of its scope chain, by ascending node. Consecutive nodes mostly share a
// scope, whose distinct loops are listed once per change.
func eachLoopNode(g *ddg.Graph, fn func(u ddg.NodeID, id mir.LoopID)) {
	var loops []mir.LoopID
	var prev *ddg.Scope
	for i := 0; i < g.NumNodes(); i++ {
		u := ddg.NodeID(i)
		if s := g.ScopeOf(u); s != prev {
			prev, loops = s, loops[:0]
			for f := s; f != nil; f = f.Parent {
				if !slices.Contains(loops, f.Loop) {
					loops = append(loops, f.Loop)
				}
			}
		}
		for _, id := range loops {
			fn(u, id)
		}
	}
}

// presized cuts one backing array into an empty bucket per key with room
// for exactly count[key] nodes, so that filling the buckets by append
// never reallocates.
func presized(count []int) []ddg.Set {
	total := 0
	for _, n := range count {
		total += n
	}
	all := make([]ddg.NodeID, total)
	buckets := make([]ddg.Set, len(count))
	off := 0
	for k, n := range count {
		buckets[k] = all[off : off : off+n]
		off += n
	}
	return buckets
}

// assocComponents returns the weakly connected components, of at least
// two nodes, of each associative operation's nodes, by operation code.
func assocComponents(g *ddg.Graph) []ddg.Set {
	// Bucketed by operation code, counted first so that the buckets share
	// one backing array, in ascending node order: each bucket is already a
	// Set.
	var count [256]int
	for i := 0; i < g.NumNodes(); i++ {
		if op := g.Op(ddg.NodeID(i)); op.Associative() {
			count[op]++
		}
	}
	byOp := presized(count[:])
	for i := 0; i < g.NumNodes(); i++ {
		u := ddg.NodeID(i)
		if op := g.Op(u); op.Associative() {
			byOp[op] = append(byOp[op], u)
		}
	}
	var comps []ddg.Set
	for _, all := range byOp {
		for _, comp := range g.WeaklyConnectedComponents(all) {
			if comp.Len() >= 2 {
				comps = append(comps, comp)
			}
		}
	}
	return comps
}

// assocCand is one candidate associative sub-DDG and its pool key.
type assocCand struct {
	nodes ddg.Set
	key   ddg.Hash128
}

// assocCands returns the candidate sub-DDGs of one associative component.
// A weakly connected component can mix executions of several static
// instructions — e.g. the accumulator inside dist() chains into the
// per-thread partial sums that chain into the final sum. A reduction
// pattern covers a subset of those instructions (the partial and final
// accumulators, but not dist's), so decomposition enumerates the
// connected subcomponents that are closed over static source positions
// (include an instruction, include all its executions in the component).
// This is the node-set freedom the paper's constraint models have
// natively; class counts per component are small, so the enumeration is
// cheap (and capped). Each candidate of at least two nodes is hashed
// once, into its key; the same node set may come from several subsets.
// The component itself is one of them, and needs no splitting.
func assocCands(g *ddg.Graph, comp ddg.Set) []assocCand {
	var out []assocCand
	eachPositionClosedSubset(g, comp, func(sub ddg.Set) {
		if len(sub) == len(comp) { // comp itself, weakly connected already
			out = append(out, assocCand{comp, provenanceKey(comp.Hash(), 0, true)})
			return
		}
		for _, wcc := range g.WeaklyConnectedComponents(sub) {
			if wcc.Len() >= 2 {
				out = append(out, assocCand{wcc, provenanceKey(wcc.Hash(), 0, true)})
			}
		}
	})
	return out
}

// maxPositionClasses caps the subset enumeration in associative component
// decomposition; components mixing more static instructions fall back to
// the whole component plus its per-instruction slices.
const maxPositionClasses = 6

// eachPositionClosedSubset calls fn with each subset of comp that is
// closed over static source positions, comp itself included: the union of
// each nonempty set of position classes, by ascending class mask, the
// classes in position order. The subset fn sees is valid only during the
// call.
func eachPositionClosedSubset(g *ddg.Graph, comp ddg.Set, fn func(ddg.Set)) {
	// The distinct positions, sorted by (file, line); components mix few.
	var poss []mir.Pos
	for _, u := range comp {
		if i, found := slices.BinarySearchFunc(poss, g.Pos(u), comparePos); !found {
			poss = slices.Insert(poss, i, g.Pos(u))
		}
	}
	if len(poss) == 1 {
		fn(comp)
		return
	}
	// One class per position, in position order.
	cls := make([]int32, len(comp))
	for i, u := range comp {
		c, _ := slices.BinarySearchFunc(poss, g.Pos(u), comparePos)
		cls[i] = int32(c)
	}
	if len(poss) > maxPositionClasses {
		fn(comp)
		for _, cl := range ddg.Partition(comp, cls, len(poss)) {
			fn(cl)
		}
		return
	}
	// A subset is comp filtered by its class mask, so it comes out
	// ascending; one buffer serves every mask.
	buf := make(ddg.Set, 0, len(comp))
	for mask := 1; mask < 1<<len(poss); mask++ {
		buf = buf[:0]
		for i, u := range comp {
			if mask>>cls[i]&1 != 0 {
				buf = append(buf, u)
			}
		}
		fn(buf)
	}
}

// comparePos orders source positions by file, then line.
func comparePos(a, b mir.Pos) int {
	if c := strings.Compare(a.File, b.File); c != 0 {
		return c
	}
	return cmp.Compare(a.Line, b.Line)
}
