package core

// The pairwise partner search as a test-only oracle. Subtract, fuse and
// merge used to compare every pair of sub-DDGs (patterns); they now ask a
// node index for the partners that can pass their tests. The loops below
// are the pairwise bodies, kept sequential, and partnerDiff runs both side
// by side through Find's fixpoint: at every phase the indexed search must
// add the same fresh sub-DDGs, in the same order, and hit the pool bound
// the same way, and the final merge must keep the same patterns.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"discovery/internal/ddg"
	"discovery/internal/obs"
	"discovery/internal/patterns"
	"discovery/internal/trace"
)

// subtractPairwise tests every match against every unmatched pool entry.
func subtractPairwise(pool, matched []*SubDDG, addPool func(*SubDDG) bool) []*SubDDG {
	if len(matched) == 0 {
		return nil
	}
	var fresh []*SubDDG
	for _, g1 := range pool {
		if len(g1.Matched) > 0 {
			continue
		}
		for _, g2 := range matched {
			if g1.Nodes.Disjoint(g2.Nodes) {
				continue // the difference would be g1 unchanged
			}
			diff := g1.Nodes.Diff(g2.Nodes)
			if diff.Len() == 0 || diff.Len() == g1.Nodes.Len() {
				continue
			}
			if s := (&SubDDG{Nodes: diff, Loop: g1.Loop, Assoc: g1.Assoc}); addPool(s) {
				fresh = append(fresh, s)
			}
		}
	}
	return fresh
}

// fusePairwise tests every ordered pair of matched pool entries.
func fusePairwise(gs *ddg.Graph, pool, matched []*SubDDG, addPool func(*SubDDG) bool) []*SubDDG {
	if len(matched) == 0 {
		return nil
	}
	isNew := make(map[*SubDDG]bool, len(matched))
	for _, s := range matched {
		isNew[s] = true
	}
	// Every added fusion has no matches yet, so iterating a snapshot is
	// the same as iterating the growing pool.
	snapshot := append([]*SubDDG(nil), pool...)
	var fresh []*SubDDG
	for _, a := range snapshot {
		if len(a.Matched) == 0 || !hasMapMatch(a) {
			continue
		}
		for _, b := range snapshot {
			if a == b || len(b.Matched) == 0 {
				continue
			}
			if !isNew[a] && !isNew[b] {
				continue
			}
			if !a.Nodes.Disjoint(b.Nodes) || !gs.FlowsInto(a.Nodes, b.Nodes) {
				continue
			}
			if s := (&SubDDG{Nodes: a.Nodes.Union(b.Nodes), FusedA: a, FusedB: b}); addPool(s) {
				fresh = append(fresh, s)
			}
		}
	}
	return fresh
}

// mergePairwise tests each pattern against every strictly larger one: the
// prefix of the size-sorted list.
func mergePairwise(matches []Match) []*patterns.Pattern {
	var out []*patterns.Pattern
	type mergeKey struct {
		nodes ddg.Hash128
		kind  patterns.Kind
	}
	seen := map[mergeKey]bool{}
	for _, m := range matches {
		key := mergeKey{m.Pattern.Nodes().Hash(), m.Pattern.Kind}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, m.Pattern)
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Nodes().Len() > out[j].Nodes().Len()
	})
	var final []*patterns.Pattern
	for _, p := range out {
		size := p.Nodes().Len()
		subsumed := false
		for j := 0; j < len(out) && out[j].Nodes().Len() > size; j++ {
			if out[j].Subsumes(p) {
				subsumed = true
				break
			}
		}
		if !subsumed {
			final = append(final, p)
		}
	}
	sort.Slice(final, func(i, j int) bool {
		a, b := final[i].Nodes(), final[j].Nodes()
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		return final[i].Kind < final[j].Kind
	})
	return final
}

// clone copies the pool, so the pairwise oracle can run a phase on the
// same state the indexed phase starts from.
func (p *subPool) clone() *subPool {
	c := &subPool{subs: append([]*SubDDG(nil), p.subs...), seen: make(map[ddg.Hash128]bool, len(p.seen)),
		limit: p.limit, limited: p.limited}
	for k := range p.seen {
		c.seen[k] = true
	}
	return c
}

// partnerDiff runs Find's fixpoint on g — simplify, decompose, then match,
// subtract and fuse until nothing new appears — with the indexed phases
// driving the run and the pairwise oracle run on a copy of the pool
// before each phase. It returns the first disagreement in a phase's fresh
// list (keys, in order) or pool-bound flag, or in the merged patterns.
// headroom > 0 bounds the pool at the decomposed size plus headroom, so
// the bound bites inside subtract and fuse.
func partnerDiff(g *ddg.Graph, opts Options, headroom int) error {
	ctx := context.Background()
	res := &Result{}
	gs := Simplify(g)
	sc := newRunSched(ctx, opts, res)
	pool := newSubPool(opts.poolLimit())
	for _, s := range Decompose(gs) {
		pool.add(s)
	}
	if headroom > 0 {
		pool.limit = len(pool.subs) + headroom
	}
	keys := func(subs []*SubDDG) string {
		out := ""
		for _, s := range subs {
			out += fmt.Sprintf("%x,", s.Key())
		}
		return out
	}
	compare := func(iter int, phase string, got []*SubDDG, gotPool *subPool, want []*SubDDG, wantPool *subPool) error {
		if keys(got) != keys(want) {
			return fmt.Errorf("iteration %d %s: indexed search added %d sub-DDG(s), pairwise %d, or in another order",
				iter, phase, len(got), len(want))
		}
		if gotPool.limited != wantPool.limited {
			return fmt.Errorf("iteration %d %s: PoolLimited %v, pairwise %v", iter, phase, gotPool.limited, wantPool.limited)
		}
		return nil
	}
	active := append([]*SubDDG(nil), pool.subs...)
	for iter := 1; len(active) > 0 && iter <= maxIterations; iter++ {
		matched := runMatchPhase(ctx, gs, active, opts, res, nil, sc, obs.OrNop(nil), 0)
		for _, s := range matched {
			for _, p := range s.Matched {
				res.Matches = append(res.Matches, Match{Pattern: p, Sub: s, Iteration: iter})
			}
		}
		oracle := pool.clone()
		want := subtractPairwise(oracle.subs, matched, oracle.add)
		fresh := subtractPhase(ctx, gs, pool, matched, sc, res)
		if err := compare(iter, "subtract", fresh, pool, want, oracle); err != nil {
			return err
		}
		oracle = pool.clone()
		want = fusePairwise(gs, oracle.subs, matched, oracle.add)
		fused := fusePhase(ctx, gs, pool, matched, sc, res)
		if err := compare(iter, "fuse", fused, pool, want, oracle); err != nil {
			return err
		}
		active = append(fresh, fused...)
	}
	if len(res.Failures) > 0 {
		return fmt.Errorf("run failed: %v", res.Failures[0])
	}
	sig := func(ps []*patterns.Pattern) string { return patternSig(&Result{Patterns: ps}) }
	if got, want := sig(merge(res.Matches)), sig(mergePairwise(res.Matches)); got != want {
		return fmt.Errorf("merge kept %q, pairwise merge kept %q", got, want)
	}
	return nil
}

func TestPartnerSearchMatchesPairwiseOracleRandomPrograms(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			tr, err := trace.Run(genProgram(seed))
			if err != nil {
				t.Fatalf("trace.Run: %v", err)
			}
			for _, headroom := range []int{0, 1, 4} {
				if err := partnerDiff(tr.Graph, Options{}, headroom); err != nil {
					t.Errorf("headroom %d: %v", headroom, err)
				}
			}
		})
	}
}

// TestMergeMatchesPairwiseOracle runs merge and the pairwise merge on
// random overlapping patterns over a small id range, where subsumers one
// node larger, equal node sets of different kinds and subsumers whose
// first node precedes the pattern's are all common.
func TestMergeMatchesPairwiseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	kinds := []patterns.Kind{patterns.KindMap, patterns.KindLinearReduction}
	for trial := 0; trial < 300; trial++ {
		var matches []Match
		for i := 0; i < 1+rng.Intn(24); i++ {
			lo := rng.Intn(24)
			var ids []ddg.NodeID
			for id := lo; id < lo+1+rng.Intn(12); id++ {
				if rng.Intn(4) != 0 {
					ids = append(ids, ddg.NodeID(id))
				}
			}
			if len(ids) == 0 {
				ids = append(ids, ddg.NodeID(lo))
			}
			p := &patterns.Pattern{Kind: kinds[rng.Intn(len(kinds))], Comps: []ddg.Set{ddg.NewSet(ids...)}}
			matches = append(matches, Match{Pattern: p, Iteration: 1})
		}
		got, want := merge(matches), mergePairwise(matches)
		if len(got) != len(want) {
			t.Fatalf("trial %d: merge kept %d pattern(s), pairwise %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: pattern %d differs: %v %v, pairwise %v %v",
					trial, i, got[i].Kind, got[i].Nodes(), want[i].Kind, want[i].Nodes())
			}
		}
	}
}
