package patterns

// Map pattern matching (paper §4.2).
//
// Under Algorithm 1 semantics the question is whether the entire sub-DDG,
// as partitioned by its view, is a map: every view group is a component.
// With that framing, the §4.2 constraints — component independence (2b),
// input (2c) and output (2d) arcs — plus the relaxed isomorphism (1c) and
// convexity (1e) leave no combinatorial freedom, so the map model is
// decided by propagation alone. The reduction models (reduction.go) have
// little more: a chain order, or the head of a tiled final chain.

import "discovery/internal/ddg"

// MatchMap reports the map or conditional map formed by the whole view, or
// nil. The conditional variant covers views where only some components
// produce output (paper §4.2, Map variants).
func MatchMap(v *View) *Pattern {
	// The census gate decides (2b) component independence — no arcs
	// between groups, hence no transitive dependencies either — (2c) an
	// input element for every component, and (2d) an output element for at
	// least one.
	if v.CannotMatch(KindMap) {
		return nil
	}
	n := v.NumGroups()
	// (1d) weak connectivity of each component, relaxed to connectivity
	// through shared inputs (see ddg.WeaklyConnectedWithInputs).
	for i := 0; i < n; i++ {
		if !v.G.WeaklyConnectedWithInputs(v.Groups[i]) {
			return nil
		}
	}
	// (2d) output elements: full components have them; the conditional
	// variant tolerates components without.
	var full, partial []int
	for i := 0; i < n; i++ {
		if v.ExtOut(i) {
			full = append(full, i)
		} else {
			partial = append(partial, i)
		}
	}
	// (1c) relaxed isomorphism: full components share an operation-set
	// label; conditional components execute a subset of it (they skipped
	// their output branch).
	fullSet := v.OpSet(full[0])
	for _, i := range full[1:] {
		if v.OpSet(i) != fullSet {
			return nil
		}
	}
	kind := KindMap
	if len(partial) > 0 {
		kind = KindConditionalMap
		fullNodes := v.Groups[full[0]]
		for _, i := range partial {
			if !v.G.OpSetSubset(v.Groups[i], fullNodes) {
				return nil
			}
		}
	}
	// (1e) pattern convexity over the whole DDG.
	if !v.G.Convex(v.Ambient, nil) {
		return nil
	}
	comps := make([]ddg.Set, 0, n)
	for _, i := range full {
		comps = append(comps, v.Groups[i])
	}
	for _, i := range partial {
		comps = append(comps, v.Groups[i])
	}
	return &Pattern{Kind: kind, Comps: comps, NumFull: len(full)}
}
