package core

// Randomized differential suite for DDG compaction and out-of-core
// paging. Over structured random programs, patterns.LoopView must group
// every loop's nodes exactly as an oracle reading the scope chains does,
// and the finder must report identical patterns whether the simplified
// graph's adjacency is resident or paged through a spill file.

import (
	"fmt"
	"sort"
	"testing"

	"discovery/internal/ddg"
	"discovery/internal/mir"
	"discovery/internal/patterns"
	"discovery/internal/trace"
)

// patternSig renders a finder result's pattern set byte-for-byte.
func patternSig(res *Result) string {
	s := ""
	for _, p := range res.Patterns {
		s += p.Kind.String() + ":" + p.Nodes().Key() + ";"
	}
	return s
}

// scopeChainGroups is the compaction oracle: the grouping LoopView must
// produce, read straight off the scope chains — one group per
// (invocation, iteration) of loop in ascending order, then each node
// without a frame for the loop on its own, in input order.
func scopeChainGroups(g *ddg.Graph, nodes ddg.Set, loop mir.LoopID) []ddg.Set {
	byIter := map[ddg.IterationKey][]ddg.NodeID{}
	var keys []ddg.IterationKey
	var loose []ddg.NodeID
	for _, u := range nodes {
		k, ok := g.IterationOf(u, loop)
		if !ok {
			loose = append(loose, u)
			continue
		}
		if _, seen := byIter[k]; !seen {
			keys = append(keys, k)
		}
		byIter[k] = append(byIter[k], u)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Invocation != keys[j].Invocation {
			return keys[i].Invocation < keys[j].Invocation
		}
		return keys[i].Iter < keys[j].Iter
	})
	groups := make([]ddg.Set, 0, len(keys)+len(loose))
	for _, k := range keys {
		groups = append(groups, ddg.NewSet(byIter[k]...))
	}
	for _, u := range loose {
		groups = append(groups, ddg.NewSet(u))
	}
	return groups
}

// subsetsOf returns deterministic node subsets to view: the full set, the
// first half, every other node, and a pseudo-random third.
func subsetsOf(g *ddg.Graph, seed uint64) []ddg.Set {
	n := g.NumNodes()
	half := make([]ddg.NodeID, 0, n/2)
	even := make([]ddg.NodeID, 0, n/2)
	var rnd []ddg.NodeID
	x := seed | 1
	for u := 0; u < n; u++ {
		if u < n/2 {
			half = append(half, ddg.NodeID(u))
		}
		if u%2 == 0 {
			even = append(even, ddg.NodeID(u))
		}
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x%3 == 0 {
			rnd = append(rnd, ddg.NodeID(u))
		}
	}
	return []ddg.Set{g.Nodes(), ddg.NewSet(half...), ddg.NewSet(even...), ddg.NewSet(rnd...)}
}

// TestCompactionDifferentialRandomPrograms holds LoopView against the
// scope-chain oracle for every loop of 30 random programs, over the
// subsetsOf subsets of the traced graph and of its simplified graph.
func TestCompactionDifferentialRandomPrograms(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			tr, err := trace.Run(genProgram(seed))
			if err != nil {
				t.Fatalf("trace.Run: %v", err)
			}
			for _, g := range []*ddg.Graph{tr.Graph, Simplify(tr.Graph)} {
				if err := g.CheckInvariants(); err != nil {
					t.Fatalf("graph fails invariants: %v", err)
				}
				loops := map[mir.LoopID]bool{}
				for u := 0; u < g.NumNodes(); u++ {
					for f := g.ScopeOf(ddg.NodeID(u)); f != nil; f = f.Parent {
						loops[f.Loop] = true
					}
				}
				if len(loops) == 0 {
					t.Fatal("random program traced no loop")
				}
				for loop := range loops {
					for si, nodes := range subsetsOf(g, seed+uint64(loop)) {
						got := patterns.LoopView(g, nodes, loop).Groups
						want := scopeChainGroups(g, nodes, loop)
						if fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("%d-node graph, loop %d, subset %d: LoopView grouped %v, scope chains say %v",
								g.NumNodes(), loop, si, got, want)
						}
					}
				}
			}
		})
	}
}

// TestCountGroupsIsLoopViewGroups holds the view-size gate's group count,
// which reads iteration ordinals into a bitset and builds no view, equal
// to the group count of the compacted view on random loop subsets, and
// SubDDG.numGroups to the count of the view SubDDG.View builds.
func TestCountGroupsIsLoopViewGroups(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		tr, err := trace.Run(genProgram(seed))
		if err != nil {
			t.Fatalf("seed %d: trace.Run: %v", seed, err)
		}
		g := Simplify(tr.Graph)
		for _, s := range scopeChainLoopSubs(g) {
			for si, nodes := range subsetsOf(g, seed+uint64(s.Loop)) {
				if got, want := g.LoopIterIndex(s.Loop).CountGroups(nodes), patterns.LoopView(g, nodes, s.Loop).NumGroups(); got != want {
					t.Fatalf("seed %d, loop %d, subset %d: counted %d groups, the loop view has %d", seed, s.Loop, si, got, want)
				}
			}
			for _, compact := range []bool{false, true} {
				if got, want := s.numGroups(g, compact), s.View(g, compact).NumGroups(); got != want {
					t.Fatalf("seed %d, %v (compact %v): counted %d groups, its view has %d", seed, s, compact, got, want)
				}
			}
		}
	}
}

func TestFinderEquivalentWhenSpilled(t *testing.T) {
	for seed := uint64(31); seed <= 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			prog := genProgram(seed)
			traced := func() *ddg.Graph {
				tr, err := trace.Run(prog)
				if err != nil {
					t.Fatalf("trace.Run: %v", err)
				}
				return tr.Graph
			}
			resident := Find(traced(), Options{})
			paged := Find(traced(), Options{SpillBudget: 128, SpillDir: t.TempDir()})
			defer paged.Graph.CloseSpill()
			if !paged.Graph.Spilled() {
				t.Fatal("128-byte budget did not spill the simplified graph")
			}
			if st := paged.Graph.PageStats(); st.Faults == 0 {
				t.Fatalf("finder never paged the spilled graph: %+v", st)
			}
			if got, want := patternSig(paged), patternSig(resident); got != want {
				t.Fatalf("paged finder found %q, resident finder found %q", got, want)
			}
		})
	}
}
