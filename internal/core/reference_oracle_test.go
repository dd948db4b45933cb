package core

// A reference Find: Algorithm 1 as the paper writes it (§5), as a
// whole-pipeline oracle for the fast path. It simplifies and decomposes
// the graph, builds a view of every sub-DDG the size gate admits and runs
// every matcher on it, with no census; it subtracts and fuses pair by pair
// over materialised node sets, deduplicates the pool by node-set equality
// instead of by hash, and merges pair by pair. Keys, censuses, overlays,
// node indexes and sweeps all stay out of it, so a fast path that loses,
// adds or reorders a match, a pool entry or a skipped view disagrees with
// it.

import (
	"fmt"
	"slices"

	"discovery/internal/ddg"
	"discovery/internal/patterns"
)

// refPool is the reference pool: its entries in the order they were
// added, deduplicated by node set and provenance, or by constituents for
// a fusion, and bounded like the finder's.
type refPool struct {
	subs    []*SubDDG
	seen    map[string]bool
	limit   int
	limited bool
}

// add appends s unless it is empty, the pool holds an entry equal to it,
// or the pool is full.
func (p *refPool) add(s *SubDDG) bool {
	if s.Nodes.Len() == 0 {
		return false
	}
	id := fmt.Sprintf("%d/%v/%s", s.Loop, s.Assoc, s.Nodes.Key())
	if s.FusedA != nil {
		id = fmt.Sprintf("fused %p %p", s.FusedA, s.FusedB)
	}
	if p.seen[id] {
		return false
	}
	if len(p.subs) >= p.limit {
		p.limited = true
		return false
	}
	p.seen[id] = true
	p.subs = append(p.subs, s)
	return true
}

// findReference runs the reference Find on g. It honours the view-size
// gate (MaxViewGroups) and the pool bound (poolBound); every other option
// must be left at its default.
func findReference(g *ddg.Graph, opts Options) *Result {
	res := &Result{OriginalNodes: g.NumNodes()}
	gs := Simplify(g)
	res.Graph, res.SimplifiedNodes = gs, gs.NumNodes()
	pool := &refPool{seen: map[string]bool{}, limit: opts.poolLimit()}
	for _, s := range loopSubs(gs) {
		pool.add(s)
	}
	for _, comp := range assocComponents(gs) {
		eachPositionClosedSubset(gs, comp, func(sub ddg.Set) {
			for _, wcc := range gs.WeaklyConnectedComponents(sub) {
				if wcc.Len() >= 2 {
					pool.add(&SubDDG{Nodes: slices.Clone(wcc), Assoc: true})
				}
			}
		})
	}
	active := slices.Clone(pool.subs)
	for iter := 1; len(active) > 0 && iter <= maxIterations; iter++ {
		res.Iterations = iter
		var matched []*SubDDG
		for _, s := range active {
			if s.Matched = refMatch(gs, s, opts, res); len(s.Matched) > 0 {
				matched = append(matched, s)
				for _, p := range s.Matched {
					res.Matches = append(res.Matches, Match{Pattern: p, Sub: s, Iteration: iter})
				}
			}
		}
		active = subtractPairwise(pool.subs, matched, pool.add)
		active = append(active, fusePairwise(gs, pool.subs, matched, pool.add)...)
	}
	res.PoolSize, res.PoolLimited = len(pool.subs), pool.limited
	res.Patterns = mergePairwise(res.Matches)
	return res
}

// refMatch matches one sub-DDG: a fusion combines its constituents'
// patterns, and any other sub-DDG whose view the size gate admits runs
// every matcher of its kinds on that view.
func refMatch(gs *ddg.Graph, s *SubDDG, opts Options, res *Result) []*patterns.Pattern {
	var found []*patterns.Pattern
	if s.FusedA != nil {
		for _, pa := range s.FusedA.Matched {
			if !pa.Kind.IsMapKind() {
				continue
			}
			for _, pb := range s.FusedB.Matched {
				var p *patterns.Pattern
				switch {
				case pb.Kind.IsMapKind():
					p = patterns.MatchFusedMap(gs, pa, pb)
				case pb.Kind == patterns.KindLinearReduction:
					p = patterns.MatchLinearMapReduction(gs, pa, pb)
				case pb.Kind == patterns.KindTiledReduction:
					p = patterns.MatchTiledMapReduction(gs, pa, pb)
				}
				if p != nil {
					found = append(found, p)
				}
			}
		}
		return found
	}
	v := s.View(gs, true)
	if v.NumGroups() > opts.maxViewGroups() {
		res.SkippedViews++
		return nil
	}
	if !s.Assoc {
		if p := patterns.MatchMap(v); p != nil {
			found = append(found, p)
		}
	}
	if p := patterns.MatchLinearReduction(v); p != nil {
		found = append(found, p)
	}
	if p := patterns.MatchTiledReduction(v); p != nil {
		found = append(found, p)
	}
	return found
}

// referenceDiff runs Find and the reference Find on g and returns their
// first disagreement, or nil.
func referenceDiff(g *ddg.Graph, opts Options) error {
	got, want := Find(g, opts), findReference(g, opts)
	if len(got.Failures) > 0 {
		return fmt.Errorf("Find failed: %v", got.Failures[0])
	}
	for _, c := range []struct {
		what      string
		got, want any
	}{
		{"PoolSize", got.PoolSize, want.PoolSize},
		{"PoolLimited", got.PoolLimited, want.PoolLimited},
		{"SkippedViews", got.SkippedViews, want.SkippedViews},
		{"Iterations", got.Iterations, want.Iterations},
		{"Matches", matchesSig(got.Matches), matchesSig(want.Matches)},
		{"Patterns", patternSig(got), patternSig(want)},
	} {
		if c.got != c.want {
			return fmt.Errorf("%s: Find %v, reference %v", c.what, c.got, c.want)
		}
	}
	return nil
}

// matchesSig renders each match as its iteration, its sub-DDG's
// provenance and size, and its pattern's kind and node set.
func matchesSig(ms []Match) string {
	out := ""
	for _, m := range ms {
		out += fmt.Sprintf("%d %s %v %s;", m.Iteration, m.Sub, m.Pattern.Kind, m.Pattern.Nodes().Key())
	}
	return out
}
