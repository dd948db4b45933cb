// Package patterns implements the parallel pattern definitions of paper §4
// — map (plain, conditional, fused), linear and tiled reductions, and
// linear/tiled map-reductions — as matchers over dynamic dataflow graphs.
//
// Matching follows the paper's Algorithm 1 semantics: a matcher decides
// whether an entire sub-DDG, observed through a View (compacted for
// loop-derived sub-DDGs, node-per-node for associative components),
// constitutes an instance of one pattern definition. Where the paper
// solves a constraint model, the matchers decide by structure: a census
// gate, then the combinatorial structure — reduction chain orders and
// tiled partial/final partitions — read off the view's arcs. The
// isomorphism and connectivity constraints use the label relaxations the
// paper describes (§5, Pattern Matching). Direct definitional verifiers
// (verify.go) re-check matches against the unrelaxed §4 constraints, and a
// brute-force oracle over the paper's reduction models (oracle_test.go)
// checks the reduction matchers' verdicts.
package patterns

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"discovery/internal/ddg"
	"discovery/internal/mir"
)

// Kind identifies a pattern definition.
type Kind uint8

// The pattern kinds of paper §4.
const (
	KindMap Kind = iota
	KindConditionalMap
	KindFusedMap
	KindLinearReduction
	KindTiledReduction
	KindLinearMapReduction
	KindTiledMapReduction
)

// String returns the short name used in the paper's Table 3 (m, cm, fm, r,
// mr) qualified with the linear/tiled variant.
func (k Kind) String() string {
	if n, ok := extensionKindNames[k]; ok {
		return n.long
	}
	switch k {
	case KindMap:
		return "map"
	case KindConditionalMap:
		return "conditional map"
	case KindFusedMap:
		return "fused map"
	case KindLinearReduction:
		return "linear reduction"
	case KindTiledReduction:
		return "tiled reduction"
	case KindLinearMapReduction:
		return "linear map-reduction"
	case KindTiledMapReduction:
		return "tiled map-reduction"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Short returns the Table 3 abbreviation of the kind.
func (k Kind) Short() string {
	if n, ok := extensionKindNames[k]; ok {
		return n.short
	}
	switch k {
	case KindMap:
		return "m"
	case KindConditionalMap:
		return "cm"
	case KindFusedMap:
		return "fm"
	case KindLinearReduction, KindTiledReduction:
		return "r"
	case KindLinearMapReduction, KindTiledMapReduction:
		return "mr"
	}
	return "?"
}

// IsMapKind reports whether the kind is a map variant (the fusion
// compatibility test of §5 requires "a map flowing into any pattern").
func (k Kind) IsMapKind() bool {
	return k == KindMap || k == KindConditionalMap || k == KindFusedMap ||
		k == KindStencil
}

// IsReductionKind reports whether the kind is a reduction variant.
func (k Kind) IsReductionKind() bool {
	return k == KindLinearReduction || k == KindTiledReduction ||
		k == KindTreeReduction
}

// Pattern is a matched pattern instance: its kind, its components as node
// sets over the original DDG, and structured sub-parts for compound kinds.
type Pattern struct {
	Kind Kind

	// Comps are the top-level components. For maps these are the map
	// components in view order; for linear reductions the chain in
	// reduction order; for conditional maps the full components precede
	// the output-less ones (split at NumFull).
	Comps []ddg.Set

	// NumFull is, for conditional (fused) maps, the count of leading
	// components that produce output.
	NumFull int

	// Partials and Final describe tiled reductions: Partials[k] is the
	// k-th partial linear reduction chain (in chain order), Final the
	// final chain, with Partials[k] feeding Final[k].
	Partials [][]ddg.Set
	Final    []ddg.Set

	// MapPart and RedPart are the constituents of map-reductions (and, for
	// fused maps, the two fused maps).
	MapPart *Pattern
	RedPart *Pattern

	// Op is the reduction operator for reduction kinds.
	Op mir.Op

	// nodesOnce guards the node-union memo. Patterns stored in a shared
	// core.ViewCache are read by concurrent Find runs, so the memo must be
	// computed exactly once regardless of which run asks first; a plain
	// nil-check was a data race between two first callers.
	nodesOnce sync.Once
	nodes     ddg.Set
}

// Nodes returns (and caches) the union of all nodes in the pattern. Safe
// for concurrent use: after the first call completes the pattern is
// effectively immutable, and concurrent first calls are serialized.
func (p *Pattern) Nodes() ddg.Set {
	p.nodesOnce.Do(func() {
		var all []ddg.Set
		all = append(all, p.Comps...)
		for _, chain := range p.Partials {
			all = append(all, chain...)
		}
		all = append(all, p.Final...)
		if p.MapPart != nil {
			all = append(all, p.MapPart.Nodes())
		}
		if p.RedPart != nil {
			all = append(all, p.RedPart.Nodes())
		}
		p.nodes = ddg.UnionAll(all...)
	})
	return p.nodes
}

// Subsumes reports whether p's nodes are a superset of q's nodes; the
// merge phase discards subsumed patterns (§5, Pattern Merging).
func (p *Pattern) Subsumes(q *Pattern) bool {
	return q.Nodes().SubsetOf(p.Nodes())
}

// String summarizes the pattern.
func (p *Pattern) String() string {
	switch {
	case p.Kind == KindTiledReduction:
		return fmt.Sprintf("%s(%v, %d partials x %d, final %d)",
			p.Kind, p.Op, len(p.Partials), chainLen(p.Partials), len(p.Final))
	case p.Kind.IsReductionKind():
		return fmt.Sprintf("%s(%v, %d components)", p.Kind, p.Op, len(p.Comps))
	case p.Kind == KindLinearMapReduction || p.Kind == KindTiledMapReduction:
		return fmt.Sprintf("%s(map %d -> %v)", p.Kind, len(p.MapPart.Comps), p.RedPart.Op)
	case p.Kind == KindConditionalMap:
		return fmt.Sprintf("%s(%d components, %d with output)", p.Kind, len(p.Comps), p.NumFull)
	default:
		return fmt.Sprintf("%s(%d components)", p.Kind, len(p.Comps))
	}
}

func chainLen(partials [][]ddg.Set) int {
	if len(partials) == 0 {
		return 0
	}
	return len(partials[0])
}

// Positions returns the distinct source positions covered by the pattern,
// sorted, for reporting.
func (p *Pattern) Positions(g ddg.GraphView) []mir.Pos {
	seen := map[mir.Pos]bool{}
	for _, u := range p.Nodes() {
		seen[g.Pos(u)] = true
	}
	out := make([]mir.Pos, 0, len(seen))
	for pos := range seen {
		out = append(out, pos)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out
}

// OpsSummary returns the distinct operation mnemonics in the pattern,
// sorted — the annotation shown in the paper's Figure 6 reports
// (e.g. "tiled_map_reduction fadd,fmul").
func (p *Pattern) OpsSummary(g ddg.GraphView) string {
	seen := map[string]bool{}
	for _, u := range p.Nodes() {
		seen[g.Op(u).String()] = true
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}
