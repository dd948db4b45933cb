package trace_test

// Differential suite for DDG compaction (paper §5). A frozen graph derives
// its loop-iteration indexes from its own scope chains, and
// patterns.LoopView buckets nodes by them; here every grouping LoopView
// produces is held against scopeChainGroups, an oracle that groups by
// walking each node's scope chain — for every loop of every Starbench
// trace, over several node subsets, on traced and simplified graphs, with
// the adjacency resident or spilled out of core, and under concurrent
// first use.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"discovery/internal/core"
	"discovery/internal/ddg"
	"discovery/internal/mir"
	"discovery/internal/patterns"
	"discovery/internal/starbench"
	"discovery/internal/trace"
	"discovery/internal/vm"
)

// loopsOf collects every static loop appearing in any node's scope chain,
// sorted — the full set of loops LoopView can be asked about.
func loopsOf(g *ddg.Graph) []mir.LoopID {
	seen := map[mir.LoopID]bool{}
	for u := ddg.NodeID(0); int(u) < g.NumNodes(); u++ {
		for f := g.ScopeOf(u); f != nil; f = f.Parent {
			seen[f.Loop] = true
		}
	}
	loops := make([]mir.LoopID, 0, len(seen))
	for l := range seen {
		loops = append(loops, l)
	}
	sort.Slice(loops, func(i, j int) bool { return loops[i] < loops[j] })
	return loops
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

// renderGroups renders a grouping byte-for-byte.
func renderGroups(groups []ddg.Set) string {
	var b strings.Builder
	fmt.Fprintf(&b, "groups=%d\n", len(groups))
	for i, grp := range groups {
		fmt.Fprintf(&b, "%d: %v\n", i, grp)
	}
	return b.String()
}

// checkLoopViews asserts that LoopView groups exactly as the oracle for
// every loop of g over every given node subset.
func checkLoopViews(t *testing.T, g *ddg.Graph, subsets func(loop mir.LoopID) []ddg.Set) {
	t.Helper()
	for _, loop := range loopsOf(g) {
		for si, nodes := range subsets(loop) {
			got := renderGroups(patterns.LoopView(g, nodes, loop).Groups)
			want := renderGroups(scopeChainGroups(g, nodes, loop))
			if got != want {
				t.Fatalf("loop %d subset %d: LoopView grouping differs from the scope-chain oracle:\ngot:\n%swant:\n%s",
					loop, si, got, want)
			}
		}
	}
}

// subsetsOf returns deterministic node subsets to view: the full set, the
// first half, every other node, and a pseudo-random third.
func subsetsOf(g *ddg.Graph, seed uint64) []ddg.Set {
	n := g.NumNodes()
	all := g.Nodes()
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
	return []ddg.Set{all, ddg.NewSet(half...), ddg.NewSet(even...), ddg.NewSet(rnd...)}
}

// TestOnlineCompactionDifferentialStarbench asserts, for every benchmark ×
// version, that the traced graph's derived indexes survive full invariant
// checking (which cross-checks them against the scope chains node by
// node), and that LoopView matches the scope-chain oracle for every loop
// and several node subsets, on the traced graph and on its simplified
// graph (an InducedSubgraph, which derives its own indexes).
func TestOnlineCompactionDifferentialStarbench(t *testing.T) {
	for _, b := range starbench.All() {
		for _, v := range starbench.Versions() {
			b, v := b, v
			t.Run(fmt.Sprintf("%s_%s", b.Name, v), func(t *testing.T) {
				t.Parallel()
				built := b.Build(v, b.Analysis)
				res, err := trace.Run(built.Prog, vm.WithMaxOps(1<<24))
				if err != nil {
					t.Fatalf("trace.Run: %v", err)
				}
				g := res.Graph
				if err := g.CheckInvariants(); err != nil {
					t.Fatalf("traced graph fails invariants: %v", err)
				}
				checkLoopViews(t, g, func(loop mir.LoopID) []ddg.Set { return subsetsOf(g, uint64(loop)+1) })
				gs := core.Simplify(g)
				if err := gs.CheckInvariants(); err != nil {
					t.Fatalf("simplified graph fails invariants: %v", err)
				}
				checkLoopViews(t, gs, func(loop mir.LoopID) []ddg.Set { return subsetsOf(gs, uint64(loop)+1) })
			})
		}
	}
}

// TestCompactionIndexedViewsOnSpilledGraph spills a traced graph's
// adjacency at a tiny budget and asserts the paged reads, the invariant
// checker, and LoopView all still agree byte-for-byte with the resident
// graph and the scope-chain oracle.
func TestCompactionIndexedViewsOnSpilledGraph(t *testing.T) {
	for _, tc := range stressCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			b := starbench.ByName(tc.name)
			built := b.Build(starbench.Pthreads, tc.params)
			res, err := trace.Run(built.Prog, vm.WithMaxOps(1<<24))
			if err != nil {
				t.Fatalf("trace.Run: %v", err)
			}
			g := res.Graph
			resident := fingerprint(g) // capture before the arcs move out of core

			if err := g.SpillArcs(ddg.SpillConfig{Dir: t.TempDir(), Budget: 256, SegmentBytes: 128}); err != nil {
				t.Fatalf("SpillArcs: %v", err)
			}
			defer g.CloseSpill()
			if !g.Spilled() {
				t.Fatal("graph did not spill")
			}
			// Every adjacency read now pages; the rendering must not change.
			if got := fingerprint(g); got != resident {
				t.Fatal("paged adjacency differs from resident adjacency")
			}
			st := g.PageStats()
			if st.Faults == 0 || st.SpilledBytes == 0 {
				t.Fatalf("spilled graph recorded no paging activity: %+v", st)
			}
			if st.PeakResidentBytes > 256+int64(g.NumNodes())*4 {
				// Budget + one oversized in-flight segment is the ceiling.
				t.Fatalf("peak resident %d exceeds budget headroom", st.PeakResidentBytes)
			}
			if err := g.CheckInvariants(); err != nil {
				t.Fatalf("spilled graph fails invariants: %v", err)
			}
			checkLoopViews(t, g, func(mir.LoopID) []ddg.Set { return []ddg.Set{g.Nodes()} })
		})
	}
}

// TestRaceFirstLoopViews makes the first LoopView calls on a fresh frozen
// graph from 8 goroutines at once, so they race to derive its indexes;
// run under -race by make race. Every goroutine must see the oracle's
// grouping for every loop.
func TestRaceFirstLoopViews(t *testing.T) {
	b := starbench.ByName("md5")
	built := b.Build(starbench.Pthreads, starbench.Params{"nbuf": 8, "bufwords": 4, "nproc": 8})
	res, err := trace.Run(built.Prog, vm.WithMaxOps(1<<24))
	if err != nil {
		t.Fatalf("trace.Run: %v", err)
	}
	g := res.Graph
	nodes := g.Nodes()
	loops := loopsOf(g)
	want := make([]string, len(loops))
	for i, loop := range loops { // the oracle reads scope chains only, never the indexes
		want[i] = renderGroups(scopeChainGroups(g, nodes, loop))
	}

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for k := range loops {
				i := (k + r) % len(loops) // goroutines start on different loops
				if got := renderGroups(patterns.LoopView(g, nodes, loops[i]).Groups); got != want[i] {
					errs <- fmt.Sprintf("goroutine %d, loop %d: LoopView grouping differs from the oracle", r, loops[i])
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
