package core

import (
	"math/rand/v2"
	"slices"
	"testing"

	"discovery/internal/ddg"
	"discovery/internal/mir"
)

// TestNodeIndexSpanAgainstBruteForce holds the node index to a scan of
// every indexed set, with the sets placed high in a large id range as a
// phase's matches usually are: list for every id below, inside and above
// the span, sharing for queries that start below the span, and
// flowTargets over a forward graph whose arcs run between nearby ids. The
// index's arrays must cover only the span from the lowest indexed node to
// the highest.
func TestNodeIndexSpanAgainstBruteForce(t *testing.T) {
	flows := 0
	for seed := uint64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewPCG(seed, 33))
		base := 4000 + rng.IntN(4000) // no set reaches below base
		width := 40 + rng.IntN(200)
		n := base + width + 20
		g := nearArcGraph(t, rng, n)

		var sets []ddg.Set
		for k := rng.IntN(12); k >= 0; k-- {
			switch rng.IntN(4) {
			case 0: // left out of the index
				sets = append(sets, nil)
			case 1: // scattered
				var ids []ddg.NodeID
				for m := 1 + rng.IntN(6); m > 0; m-- {
					ids = append(ids, ddg.NodeID(base+rng.IntN(width)))
				}
				sets = append(sets, ddg.NewSet(ids...))
			default: // an interval, which flows into its neighbours
				lo := base + rng.IntN(width)
				sets = append(sets, interval(lo, lo+1+rng.IntN(6)))
			}
		}
		ix := newNodeIndex(sets)

		lo, hi, members, live := ddg.NodeID(0), ddg.NodeID(0), 0, 0
		for _, s := range sets {
			if len(s) == 0 {
				continue
			}
			if live == 0 || s[0] < lo {
				lo = s[0]
			}
			hi = max(hi, s[len(s)-1])
			members += len(s)
			live++
		}
		span := 0
		if live > 0 {
			span = int(hi-lo) + 1
		}
		if len(ix.runEnd) != span || len(ix.off) != span+1 || len(ix.pos) != members {
			t.Fatalf("seed %d: index arrays runEnd %d, off %d, pos %d; want the span's %d, %d and %d members",
				seed, len(ix.runEnd), len(ix.off), len(ix.pos), span, span+1, members)
		}

		for v := ddg.NodeID(0); int(v) < n+10; v++ {
			var want []int32
			for i, s := range sets {
				if s.Contains(v) {
					want = append(want, int32(i))
				}
			}
			if got := ix.list(v); !slices.Equal(got, want) {
				t.Fatalf("seed %d: list(%d) = %v, want %v", seed, v, got, want)
			}
		}

		for q := 0; q < 40; q++ {
			var ids []ddg.NodeID
			for m := 1 + rng.IntN(20); m > 0; m-- {
				if rng.IntN(3) == 0 {
					ids = append(ids, ddg.NodeID(rng.IntN(base))) // below the span
				} else {
					ids = append(ids, ddg.NodeID(base-5+rng.IntN(width+30)))
				}
			}
			query := ddg.NewSet(ids...)
			var want []int32
			for i, s := range sets {
				if !query.Disjoint(s) {
					want = append(want, int32(i))
				}
			}
			if got := ix.sharing(query); !slices.Equal(got, want) {
				t.Fatalf("seed %d: sharing(%v) = %v, want %v", seed, query, got, want)
			}
		}

		for a := range sets {
			var want []int
			for b, s := range sets {
				if b != a && sets[a].Disjoint(s) && g.FlowsInto(sets[a], s) {
					want = append(want, b)
				}
			}
			var got []int
			ix.flowTargets(g, a, func(b int) { got = append(got, b) })
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d: flowTargets(%d) = %v, want %v", seed, a, got, want)
			}
			flows += len(want)
		}
	}
	if flows == 0 {
		t.Fatal("no set flowed into another: flowTargets was never checked on a hit")
	}
}

// interval returns the set of ids [lo, hi).
func interval(lo, hi int) ddg.Set {
	s := make(ddg.Set, 0, hi-lo)
	for v := lo; v < hi; v++ {
		s = append(s, ddg.NodeID(v))
	}
	return s
}

// nearArcGraph builds an n-node forward graph in which each node but the
// first reads one or two of the four nodes before it.
func nearArcGraph(t *testing.T, rng *rand.Rand, n int) *ddg.Graph {
	t.Helper()
	fb := ddg.NewFrozenBuilder(n, 2*n)
	pos, scope := fb.PosID(mir.Pos{}), fb.ScopeID(nil)
	for v := 0; v < n; v++ {
		var preds []ddg.NodeID
		for k := 0; v > 0 && k < 1+rng.IntN(2); k++ {
			preds = append(preds, ddg.NodeID(max(0, v-1-rng.IntN(4))))
		}
		fb.AddNode(mir.OpAdd, pos, 0, scope, preds...)
	}
	g, err := fb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return g
}
